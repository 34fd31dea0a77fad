//! Engine-level guarantees: bit-identical results regardless of worker
//! count, cache state or overlapping campaigns, one simulation per job
//! across campaigns that do not overlap, nothing memoized by a call that
//! unwinds, and graceful fallback when the on-disk cache is damaged.

use horizon_core::campaign::Campaign;
use horizon_engine::Engine;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use horizon_workloads::systems::submitted_systems;
use horizon_workloads::{cpu2017, SubSuite};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn profiles() -> Vec<WorkloadProfile> {
    cpu2017::speed_int()
        .iter()
        .take(4)
        .map(|b| b.profile().clone())
        .collect()
}

fn machines() -> Vec<MachineConfig> {
    vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()]
}

fn campaign() -> Campaign {
    Campaign {
        instructions: 20_000,
        warmup: 5_000,
        seed: 42,
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "horizon-engine-test-{}-{tag}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

#[test]
fn results_are_bit_identical_across_worker_counts_and_match_builtin() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    // No executor is installed in this process, so this is the builtin
    // backend.
    let builtin = campaign.measure_profiles(&profiles, &machines);

    let serial = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    let parallel = Engine::new()
        .with_jobs(7)
        .measure_profiles(&campaign, &profiles, &machines);

    assert_eq!(serial, builtin, "--jobs 1 must reproduce the builtin grid");
    assert_eq!(
        parallel, builtin,
        "--jobs 7 must reproduce the builtin grid"
    );
}

/// Every submitted system is a Table IV machine at another clock and
/// name: it shares that machine's job, yet its cells must still equal the
/// builtin backend's simulation of it.
#[test]
fn submitted_systems_share_table_iv_jobs_and_match_builtin() {
    let campaign = campaign();
    let profiles = profiles();
    let table_iv = MachineConfig::table_iv_machines();
    let mut machines = table_iv.clone();
    for system in SubSuite::all().into_iter().flat_map(submitted_systems) {
        if !machines.iter().any(|m| m.name == system.name) {
            machines.push(system.machine);
        }
    }
    assert!(machines.len() > table_iv.len() + 4, "{machines:?}");

    let builtin = campaign.measure_profiles(&profiles, &machines);
    let engine = Engine::new().with_jobs(2);
    let grid = engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(grid, builtin, "derived cells must equal simulated ones");

    // One job per (profile, Table IV microarchitecture).
    let stats = engine.stats();
    assert_eq!(stats.cells, (profiles.len() * machines.len()) as u64);
    assert_eq!(
        stats.simulated_jobs,
        (profiles.len() * table_iv.len()) as u64
    );
    assert_eq!(stats.unique_jobs, stats.simulated_jobs);
    // A clock variant is its own cell, not a copy of its Table IV twin's.
    let fast = machines
        .iter()
        .position(|m| m.name == "Vendor-A Workstation 3.8GHz")
        .expect("the 3.8 GHz workstation is submitted");
    assert_ne!(grid.at(0, 0), grid.at(0, fast));
}

#[test]
fn memo_serves_repeat_campaigns_without_resimulating() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();

    let engine = Engine::new();
    let first = engine.measure_profiles(&campaign, &profiles, &machines);
    let after_first = engine.stats();
    let second = engine.measure_profiles(&campaign, &profiles, &machines);
    let after_second = engine.stats();

    assert_eq!(first, second);
    let unique = (profiles.len() * machines.len()) as u64;
    assert_eq!(after_first.simulated_jobs, unique);
    assert_eq!(
        after_second.simulated_jobs, unique,
        "repeat campaign must not simulate anything"
    );
    assert_eq!(after_second.memo_hits, unique);
    assert_eq!(after_second.cells, 2 * unique);
}

#[test]
fn cold_and_warm_disk_cache_produce_identical_results() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let dir = scratch_dir("warm");

    // Cold: fresh directory, everything simulates.
    let cold_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let cold = cold_engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(
        cold_engine.stats().simulated_jobs,
        (profiles.len() * machines.len()) as u64
    );

    // Warm: a brand-new engine (empty memo) reads every job from disk.
    let warm_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let warm = warm_engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = warm_engine.stats();
    assert_eq!(warm, cold, "warm-cache grid must be bit-identical");
    assert_eq!(stats.simulated_jobs, 0);
    assert_eq!(stats.disk_hits, (profiles.len() * machines.len()) as u64);
    assert!(stats.hit_rate() > 0.99);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cache_files_fall_back_to_resimulation() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let dir = scratch_dir("corrupt");

    let engine = Engine::new().with_cache_dir(&dir).unwrap();
    let expected = engine.measure_profiles(&campaign, &profiles, &machines);

    // Vandalize every cache file a different way.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), profiles.len() * machines.len());
    for (i, path) in entries.iter().enumerate() {
        match i % 3 {
            0 => std::fs::write(path, "not json at all").unwrap(),
            1 => {
                // Truncate mid-document.
                let text = std::fs::read_to_string(path).unwrap();
                std::fs::write(path, &text[..text.len() / 2]).unwrap();
            }
            _ => std::fs::write(path, "{\"version\": 999}").unwrap(),
        }
    }

    let recovered_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let recovered = recovered_engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = recovered_engine.stats();
    assert_eq!(recovered, expected, "re-simulated grid must be identical");
    assert_eq!(stats.disk_hits, 0, "no damaged entry may be served");
    assert_eq!(
        stats.simulated_jobs,
        (profiles.len() * machines.len()) as u64
    );

    // The engine also repairs the cache as it re-simulates.
    let repaired_engine = Engine::new().with_cache_dir(&dir).unwrap();
    let repaired = repaired_engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(repaired, expected);
    assert_eq!(
        repaired_engine.stats().disk_hits,
        (profiles.len() * machines.len()) as u64
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_grid_cells_collapse_to_one_job() {
    let campaign = campaign();
    let mut profiles = profiles();
    // Same workload listed twice: a real occurrence in `repro all`, where
    // overlapping experiments share benchmarks.
    profiles.push(profiles[0].clone());
    let machines = machines();

    let engine = Engine::new();
    let result = engine.measure_profiles(&campaign, &profiles, &machines);
    let stats = engine.stats();

    assert_eq!(stats.cells, (profiles.len() * machines.len()) as u64);
    assert_eq!(
        stats.unique_jobs,
        ((profiles.len() - 1) * machines.len()) as u64,
        "duplicate rows must deduplicate"
    );
    assert_eq!(stats.simulated_jobs, stats.unique_jobs);
    // The duplicated rows carry identical measurements.
    for m in 0..machines.len() {
        assert_eq!(result.at(0, m), result.at(profiles.len() - 1, m));
    }
}

#[test]
fn misses_are_claimed_largest_estimated_cost_first() {
    use horizon_engine::estimated_cost;
    use std::sync::Mutex;

    let campaign = campaign();
    // Full speed-int suite for a meaningful spread of estimated costs.
    let profiles: Vec<WorkloadProfile> = cpu2017::speed_int()
        .iter()
        .map(|b| b.profile().clone())
        .collect();
    let machines = vec![MachineConfig::skylake_i7_6700()];

    let order: std::sync::Arc<Mutex<Vec<String>>> = std::sync::Arc::new(Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&order);
    // One worker: completion order == claim order == scheduled order.
    let engine = Engine::new().with_jobs(1).with_progress(move |e| {
        sink.lock().unwrap().push(e.workload.clone());
    });
    engine.measure_profiles(&campaign, &profiles, &machines);

    let mut expected: Vec<(u64, usize)> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (estimated_cost(&campaign, p), i))
        .collect();
    expected.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let expected: Vec<String> = expected
        .iter()
        .map(|&(_, i)| profiles[i].name().to_string())
        .collect();
    assert_eq!(*order.lock().unwrap(), expected);
}

#[test]
fn telemetry_captures_campaign_structure_and_matches_stats() {
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let unique = profiles.len() * machines.len();

    let engine = Engine::new().with_jobs(3);
    engine.measure_profiles(&campaign, &profiles, &machines);
    engine.measure_profiles(&campaign, &profiles, &machines);
    let snap = engine.recorder().snapshot();

    // Stage spans nest under the campaign span.
    let campaigns = snap.spans_named("engine.campaign");
    assert_eq!(campaigns.len(), 2);
    assert_eq!(campaigns[0].parent, None);
    for stage in [
        "engine.expand",
        "engine.probe",
        "engine.simulate",
        "engine.integrate",
        "engine.assemble",
    ] {
        let stages = snap.spans_named(stage);
        assert!(!stages.is_empty(), "{stage} span missing");
        for s in &stages {
            assert!(
                campaigns.iter().any(|c| Some(c.id) == s.parent),
                "{stage} must be a child of a campaign span"
            );
        }
    }
    // The second, fully memoized campaign runs no simulate stage.
    assert_eq!(snap.spans_named("engine.simulate").len(), 1);

    // One engine.job span per unique job per campaign, correctly parented
    // (simulated jobs hang off the campaign, cached ones off the probe
    // stage) and labeled with its outcome.
    let job_spans = snap.spans_named("engine.job");
    assert_eq!(job_spans.len(), 2 * unique);
    let simulated: Vec<_> = job_spans
        .iter()
        .filter(|s| s.field_str("outcome") == Some("simulated"))
        .collect();
    let memoized: Vec<_> = job_spans
        .iter()
        .filter(|s| s.field_str("outcome") == Some("memo"))
        .collect();
    assert_eq!(simulated.len(), unique);
    assert_eq!(memoized.len(), unique);
    assert!(simulated.iter().all(|s| s.parent == Some(campaigns[0].id)));
    let probe_ids: Vec<u64> = snap
        .spans_named("engine.probe")
        .iter()
        .map(|s| s.id)
        .collect();
    assert!(memoized
        .iter()
        .all(|s| probe_ids.contains(&s.parent.unwrap())));
    for s in &simulated {
        let workload = s.field_str("workload").expect("workload field");
        let profile = profiles.iter().find(|p| p.name() == workload).unwrap();
        assert!(s.field_str("machine").is_some());
        assert!(s.field_u64("wall_ns").is_some());
        assert_eq!(
            s.field_u64("est_cost"),
            Some(horizon_engine::estimated_cost(&campaign, profile)),
            "a job's est_cost is its profile's estimated cost"
        );
    }

    // Histograms saw every simulated job.
    assert_eq!(
        snap.histogram("engine.job_wall_ns").unwrap().count(),
        unique as u64
    );
    assert_eq!(
        snap.histogram("engine.queue_wait_ns").unwrap().count(),
        unique as u64
    );

    // Stats are derived from this very snapshot — no second ledger.
    let stats = engine.stats();
    assert_eq!(stats.campaigns, 2);
    assert_eq!(stats.cells, snap.counter("engine.cells"));
    assert_eq!(stats.simulated_jobs, unique as u64);
    assert_eq!(stats.memo_hits, unique as u64);
    assert!(stats.simulation_wall_nanos > 0);

    // reset_stats clears the recorder.
    engine.reset_stats();
    assert_eq!(engine.stats(), horizon_engine::EngineStats::default());
}

#[test]
fn progress_callback_sees_every_job_exactly_once() {
    use std::sync::Mutex;
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();

    let events: std::sync::Arc<Mutex<Vec<(String, String, bool)>>> =
        std::sync::Arc::new(Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&events);
    let engine = Engine::new().with_jobs(3).with_progress(move |e| {
        sink.lock()
            .unwrap()
            .push((e.workload.clone(), e.machine.clone(), e.cached));
    });

    engine.measure_profiles(&campaign, &profiles, &machines);
    engine.measure_profiles(&campaign, &profiles, &machines);

    let events = events.lock().unwrap();
    let total = profiles.len() * machines.len();
    assert_eq!(events.len(), 2 * total);
    assert_eq!(
        events.iter().filter(|(_, _, cached)| !cached).count(),
        total
    );
    assert_eq!(
        events.iter().filter(|(_, _, cached)| *cached).count(),
        total
    );
}

/// Every job reaches the live bus as a progress event that names its
/// outcome and is timed from its own campaign's start, so the second
/// campaign's ETA depends only on its own elapsed time and counts, never
/// on the time the run spent before it.
#[test]
fn progress_events_name_outcomes_and_time_their_own_campaign() {
    use horizon_telemetry::{EventKind, JobOutcome, Recorder, RunScope};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let recorder = Arc::new(Recorder::new());
    let engine = Engine::new()
        .with_jobs(1)
        .with_recorder(Arc::clone(&recorder));
    let run = horizon_telemetry::next_run_id();
    let sub = recorder.bus().subscribe_run(1024, run);
    let _scope = RunScope::enter(run);

    engine.measure_profiles(&campaign, &profiles, &machines);
    // Time the run spends between its campaigns, which the second
    // campaign's ETA must not count.
    std::thread::sleep(Duration::from_millis(300));
    let second_start = Instant::now();
    engine.measure_profiles(&campaign, &profiles, &machines);
    let second_wall = second_start.elapsed().as_nanos() as u64;

    let progress: Vec<EventKind> = std::iter::from_fn(|| sub.try_recv())
        .map(|event| event.kind)
        .filter(|kind| matches!(kind, EventKind::Progress { .. }))
        .collect();
    let jobs = profiles.len() * machines.len();
    assert_eq!(progress.len(), 2 * jobs);
    let (first, second) = progress.split_at(jobs);
    for (events, expected) in [(first, JobOutcome::Simulated), (second, JobOutcome::Memo)] {
        for (k, kind) in events.iter().enumerate() {
            let EventKind::Progress {
                completed,
                total,
                outcome,
                campaign_nanos,
            } = *kind
            else {
                unreachable!("filtered to progress events");
            };
            assert_eq!((completed, total), (k as u64 + 1, jobs as u64));
            assert_eq!(outcome, expected);
            let eta = (completed < total).then(|| campaign_nanos * (total - completed) / completed);
            assert_eq!(kind.eta_nanos(), eta);
        }
    }
    for kind in second {
        let EventKind::Progress { campaign_nanos, .. } = *kind else {
            unreachable!("filtered to progress events");
        };
        assert!(
            campaign_nanos <= second_wall,
            "the second campaign's clock read {campaign_nanos} ns of its {second_wall} ns"
        );
    }
}

#[test]
fn one_worker_simulates_on_the_calling_thread() {
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();

    let simulated_on: Arc<Mutex<Vec<ThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&simulated_on);
    let engine = Engine::new().with_jobs(1).with_progress(move |e| {
        if !e.cached {
            sink.lock().unwrap().push(std::thread::current().id());
        }
    });
    engine.measure_profiles(&campaign, &profiles, &machines);

    let simulated_on = simulated_on.lock().unwrap();
    assert_eq!(simulated_on.len(), profiles.len() * machines.len());
    let caller = std::thread::current().id();
    assert!(
        simulated_on.iter().all(|&id| id == caller),
        "a one-worker campaign must not spawn a simulation thread"
    );
}

/// Two campaigns released together on one engine share nothing but the
/// memo: either may simulate a job the other also needs, but both return
/// the reference grid, and the memo ends with one entry per unique job.
#[test]
fn concurrent_identical_campaigns_return_the_reference_grid() {
    use std::sync::{Arc, Barrier};

    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let unique = (profiles.len() * machines.len()) as u64;

    let engine = Arc::new(Engine::new().with_jobs(2));
    let barrier = Arc::new(Barrier::new(2));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let (campaign, profiles, machines) = (&campaign, &profiles, &machines);
                scope.spawn(move || {
                    barrier.wait();
                    engine.measure_profiles(campaign, profiles, machines)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    for result in &results {
        assert_eq!(result, &reference);
    }
    assert_eq!(engine.memo_entries() as u64, unique);
    // Each job simulates at least once, and at most once per campaign.
    let simulated = engine.stats().simulated_jobs;
    assert!(
        (unique..=2 * unique).contains(&simulated),
        "simulated {simulated} jobs for {unique} unique ones"
    );
}

/// A call that unwinds part-way memoizes nothing: results reach the memo
/// and the disk cache only after every batch of the call has finished.
#[test]
fn panicking_campaign_memoizes_nothing() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    let campaign = campaign();
    let profiles = profiles();
    let machines = machines();
    let dir = scratch_dir("panic");

    let fault = AtomicBool::new(true);
    let engine = Engine::new()
        .with_jobs(1)
        .with_cache_dir(&dir)
        .unwrap()
        .with_progress(move |e| {
            if !e.cached && fault.swap(false, Ordering::Relaxed) {
                panic!("injected fault on the first simulated job");
            }
        });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.measure_profiles(&campaign, &profiles, &machines)
    }));
    assert!(outcome.is_err(), "the injected fault unwinds the call");
    assert_eq!(engine.memo_entries(), 0, "no memo entry from a failed call");
    let stored: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    assert!(
        stored.is_empty(),
        "no disk entry from a failed call: {stored:?}"
    );

    let reference = Engine::new()
        .with_jobs(1)
        .measure_profiles(&campaign, &profiles, &machines);
    let retried = engine.measure_profiles(&campaign, &profiles, &machines);
    assert_eq!(retried, reference);

    std::fs::remove_dir_all(&dir).unwrap();
}
