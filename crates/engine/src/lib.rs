//! Memoizing, work-stealing campaign execution engine.
//!
//! The builtin backend in `horizon-core` simulates every (workload,
//! machine) grid cell of every campaign, even when experiments overlap —
//! `repro all` re-simulates the full Table IV grid many times. This crate
//! replaces that with a three-layer engine:
//!
//! 1. **Expansion + deduplication** — a campaign expands into jobs keyed
//!    by a content [`Fingerprint`] of `(workload profile, microarchitecture,
//!    window, warmup, seed)`, computed from digests of each profile and
//!    machine taken once per call. Cells whose machines differ only
//!    outside the simulated part
//!    ([`MachineConfig::microarchitecture`]) collapse to one job, and each
//!    cell derives its own clock, CPI stack and power from the job's
//!    counters ([`Measurement::for_machine`]).
//! 2. **Work stealing** — pending jobs land in a flat vector, sorted
//!    largest-estimated-cost-first ([`estimated_cost`], classic LPT
//!    scheduling), and workers claim them through an atomic cursor, so a
//!    slow job (e.g. a 43rd workload on the largest machine) never idles
//!    the other threads the way per-call static chunking did. Worker count
//!    comes from an explicit override ([`Engine::with_jobs`]), else the
//!    machine's available parallelism.
//! 3. **Memoization** — results are kept in an in-memory memo table and,
//!    optionally, an on-disk JSON cache ([`DiskCache`]), so each unique
//!    job simulates once per process as long as the campaigns that need
//!    it do not overlap in time (and at most once per cache lifetime
//!    across processes). A call writes its new results to both only after
//!    all of its simulation has finished, so a call that unwinds memoizes
//!    nothing. Campaigns that do overlap on one engine may each simulate a
//!    job they share; that costs time and never changes a result (see
//!    *Determinism*). Identical concurrent requests share one run one layer
//!    up, in `repro serve`'s table of in-flight runs.
//!
//! # Determinism
//!
//! Campaign results are **bit-identical regardless of thread count, job
//! ordering, cache state, or campaigns running alongside on the same
//! engine**. This holds because each job's structural
//! counters are a pure function of its fingerprinted inputs: simulation is
//! deterministic given `(profile, microarchitecture, window, warmup,
//! seed)`, and a cell's remaining fields are a pure function of those
//! counters and the cell's machine; workers share nothing but the job
//! queue; the JSON cache round-trips every counter and float losslessly
//! (text-preserved integers, shortest-round-trip floats); and grids are
//! assembled by cell index, not completion order. Scheduling and caching
//! decide only *when and whether* a job is simulated, never *what it
//! computes*.
//!
//! # Telemetry
//!
//! Every engine owns a [`horizon_telemetry::Recorder`]. Each campaign call
//! opens an `engine.campaign` span with child stage spans
//! (`engine.expand`, `engine.probe`, `engine.simulate`, `engine.integrate`,
//! `engine.assemble`) and one `engine.job` span per unique job carrying
//! `workload` / `machine` / `outcome` (`"memo"`, `"disk"` or
//! `"simulated"`) fields; worker-side job spans are explicitly parented
//! to the campaign span. Counters (`engine.campaigns`, `engine.cells`,
//! `engine.unique_jobs`, `engine.simulated_jobs`, `engine.memo_hits`,
//! `engine.disk_hits`, `engine.simulated_instructions`,
//! `engine.simulation_wall_nanos`, `engine.elapsed_nanos`) and histograms
//! (`engine.queue_wait_ns`, `engine.job_wall_ns`) accumulate alongside.
//! [`EngineStats`] is *derived* from this recorder's counters — see
//! [`EngineStats::from_snapshot`] — so the metrics and the stats can never
//! disagree. Pass a shared recorder with [`Engine::with_recorder`] (the
//! `repro` binary shares the globally installed one, merging engine spans
//! with simulator and analysis-pipeline spans into one trace).
//!
//! Install an engine process-wide with [`Engine::install`] to route every
//! `Campaign::measure` / `measure_profiles` call through it, or call
//! [`Engine::measure_profiles`] directly.

#![forbid(unsafe_code)]

mod cache;
mod cost;
mod fingerprint;
mod stats;

pub use cache::{DiskCache, GcReport};
pub use cost::estimated_cost;
pub use fingerprint::{Fingerprint, SCHEMA_VERSION};
pub use stats::EngineStats;

use horizon_core::campaign::{Campaign, CampaignExecutor, CampaignResult, Measurement};
use horizon_telemetry::{JobOutcome, Recorder};
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Progress report for one resolved job.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Jobs resolved so far in this campaign (including this one).
    pub completed: usize,
    /// Unique jobs in this campaign.
    pub total: usize,
    /// Workload name of the job.
    pub workload: String,
    /// Machine name of the job.
    pub machine: String,
    /// True when served from memo or disk cache rather than simulated.
    pub cached: bool,
}

type ProgressCallback = Box<dyn Fn(&ProgressEvent) + Send + Sync>;

/// The execution engine. Cheap to construct; hold one for the process
/// lifetime to maximize memoization.
pub struct Engine {
    /// Pinned worker count; `None` means the available parallelism.
    /// Determinism guarantees the setting only affects wall clock, never
    /// results.
    jobs: Option<usize>,
    disk: Option<DiskCache>,
    memo: Mutex<HashMap<Fingerprint, Measurement>>,
    recorder: Arc<Recorder>,
    progress: Option<ProgressCallback>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with in-memory memoization only, automatic worker count,
    /// and a private telemetry recorder.
    pub fn new() -> Self {
        Engine {
            jobs: None,
            disk: None,
            memo: Mutex::new(HashMap::new()),
            recorder: Arc::new(Recorder::new()),
            progress: None,
        }
    }

    /// Pins the worker count (overrides auto-detection).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs > 0, "worker count must be positive");
        self.jobs = Some(jobs);
        self
    }

    /// Attaches an on-disk cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(self)
    }

    /// Does nothing: the packed trace store is gone, because expanding a
    /// trace costs less than storing and replaying it. Kept only because
    /// the benchmark ladder (`examples/ladder/src/layers.rs`) still calls
    /// it; delete it together with that call in the next change to the
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Never; the `Result` keeps the old signature.
    #[doc(hidden)]
    pub fn with_trace_store(self, _dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(self)
    }

    /// Replaces the engine's telemetry recorder — typically with one that
    /// is also installed globally via [`horizon_telemetry::install`], so
    /// engine spans, simulator spans and analysis spans land in one trace.
    /// Pass [`Recorder::disabled`] to run the engine dark.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The engine's telemetry recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The attached on-disk cache, if [`Engine::with_cache_dir`] configured
    /// one. Long-lived holders (the `repro serve` daemon) use this to run
    /// GC passes against the same cache the executor reads and writes.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Number of measurements currently memoized in memory. A long-lived
    /// engine (one per daemon process rather than one per invocation)
    /// accumulates entries across requests; this is the warm-cache size a
    /// health endpoint reports.
    pub fn memo_entries(&self) -> usize {
        self.memo.lock().expect("memo lock").len()
    }

    /// Registers a progress callback, invoked once per unique job as it
    /// resolves (possibly from worker threads).
    #[must_use]
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressEvent) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Installs this engine as the process-wide campaign executor.
    pub fn install(self: Arc<Self>) {
        horizon_core::campaign::install_executor(self);
    }

    /// A snapshot of cumulative statistics, derived from the recorder.
    pub fn stats(&self) -> EngineStats {
        EngineStats::from_snapshot(&self.recorder.snapshot())
    }

    /// Clears accumulated telemetry and statistics (the memo table is
    /// kept).
    pub fn reset_stats(&self) {
        self.recorder.reset();
    }

    /// The worker count the engine would use for `pending` runnable jobs.
    pub fn worker_count(&self, pending: usize) -> usize {
        let configured = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        configured.min(pending.max(1))
    }

    /// Measures the full grid, deduplicating, memoizing and running misses
    /// on the work-stealing pool. Bit-identical to the builtin backend of
    /// `Campaign::measure_profiles`.
    pub fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        let call_start = Instant::now();
        let rec = &self.recorder;
        let mut campaign_span = rec.phase_span("engine.campaign");
        let campaign_id = campaign_span.id();
        // Run attribution for the live bus: workers re-enter this scope on
        // their own threads (the id is thread-local, not inherited).
        let run = horizon_telemetry::current_run_id();

        // Phase 1: expand the grid into de-duplicated jobs. Each profile
        // and each machine is digested once per call; a cell's key is one
        // short hash over the two digests, and cells whose machines share
        // a microarchitecture share a job.
        let expand_span = rec.phase_span("engine.expand");
        let profile_digests: Vec<Fingerprint> =
            profiles.iter().map(fingerprint::profile_digest).collect();
        let uarch_digests: Vec<Fingerprint> =
            machines.iter().map(fingerprint::uarch_digest).collect();
        let mut job_index: HashMap<Fingerprint, usize> = HashMap::new();
        // job id -> (profile index, machine index) of its first occurrence.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut fingerprints: Vec<Fingerprint> = Vec::new();
        let mut cell_jobs: Vec<Vec<usize>> = Vec::with_capacity(profiles.len());
        for (w, profile_digest) in profile_digests.iter().enumerate() {
            let mut row = Vec::with_capacity(machines.len());
            for (m, uarch_digest) in uarch_digests.iter().enumerate() {
                let fp = fingerprint::compose(campaign, profile_digest, Some(uarch_digest));
                let id = *job_index.entry(fp.clone()).or_insert_with(|| {
                    jobs.push((w, m));
                    fingerprints.push(fp);
                    jobs.len() - 1
                });
                row.push(id);
            }
            cell_jobs.push(row);
        }
        drop(expand_span);

        // Phase 2: serve jobs from the memo table, then the disk cache.
        // Cached jobs get their span here, implicitly nested under
        // engine.probe (itself under engine.campaign). The memo lock is
        // held only for the lookups, never across disk I/O or a progress
        // callback.
        let probe_span = rec.phase_span("engine.probe");
        let mut resolved: Vec<Option<Measurement>> = {
            let memo = self.memo.lock().expect("memo lock");
            fingerprints
                .iter()
                .map(|fp| memo.get(fp).cloned())
                .collect()
        };
        let memoized: Vec<bool> = resolved.iter().map(Option::is_some).collect();
        // Counts one resolved job of this call and reports it, with its
        // outcome and the call's start, on the live bus and to the
        // progress callback.
        let completed = AtomicUsize::new(0);
        let total = jobs.len();
        let progress = |profile: &WorkloadProfile, machine: &MachineConfig, outcome| {
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            rec.publish_progress(done as u64, total as u64, outcome, call_start);
            if let Some(callback) = &self.progress {
                callback(&ProgressEvent {
                    completed: done,
                    total,
                    workload: profile.name().to_string(),
                    machine: machine.name.clone(),
                    cached: outcome != JobOutcome::Simulated,
                });
            }
        };
        let (mut memo_hits, mut disk_hits) = (0u64, 0u64);
        for (id, fp) in fingerprints.iter().enumerate() {
            let outcome = if memoized[id] {
                memo_hits += 1;
                JobOutcome::Memo
            } else if let Some(m) = self.disk.as_ref().and_then(|disk| disk.load(fp)) {
                resolved[id] = Some(m);
                disk_hits += 1;
                JobOutcome::Disk
            } else {
                continue;
            };
            let (w, mach) = jobs[id];
            let mut span = rec.span("engine.job");
            span.record("workload", profiles[w].name());
            span.record("machine", machines[mach].name.as_str());
            span.record("outcome", outcome.label());
            drop(span);
            progress(&profiles[w], &machines[mach], outcome);
        }
        drop(probe_span);

        // Phase 3: simulate the misses on the work-stealing pool, grouped
        // into fleet batches. Jobs whose trace-defining inputs match —
        // one call has one window, warmup and seed, so jobs with equal
        // profile digests share [`Fingerprint::of_profile`] — replay the
        // identical instruction stream, so one `Campaign::measure_fleet`
        // call simulates all their machines in a single streaming pass,
        // bit-identical to per-job simulation. Workers claim whole batches
        // through an atomic cursor; per-job results land in per-job slots,
        // so ordering never matters for the output. Batches are sorted
        // largest-estimated-cost-first (LPT) so the longest batch starts
        // earliest and cannot become a lone tail; ties break by first job
        // id to keep the order deterministic. Each batch is priced once,
        // when it is formed, from its first job's profile (its jobs share
        // one profile digest), so a call prices only what it simulates.
        // Batch composition depends only on the miss set, never on the
        // worker count, so traces stay structurally identical across
        // `--jobs` settings.
        let mut batch_index: HashMap<&Fingerprint, usize> = HashMap::new();
        // Per batch: (estimated cost, workload index of the first job,
        // member job ids).
        let mut batches: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for id in (0..jobs.len()).filter(|&id| resolved[id].is_none()) {
            let w = jobs[id].0;
            match batch_index.entry(&profile_digests[w]) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    batches[*e.get()].2.push(id);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(batches.len());
                    batches.push((estimated_cost(campaign, &profiles[w]), w, vec![id]));
                }
            }
        }
        batches.sort_by(|a, b| b.0.cmp(&a.0).then(a.2[0].cmp(&b.2[0])));
        let simulated = batches.iter().map(|(_, _, ids)| ids.len()).sum::<usize>();
        let workers = if batches.is_empty() {
            0
        } else {
            self.worker_count(batches.len())
        };
        // Per job id: the simulated measurement and its wall-clock share.
        let slots: Vec<OnceLock<(Measurement, u64)>> =
            jobs.iter().map(|_| OnceLock::new()).collect();
        if !batches.is_empty() {
            let simulate_span = rec.phase_span("engine.simulate");
            let cursor = AtomicUsize::new(0);
            let pool_start = Instant::now();
            // The calling thread is one of the workers: it runs the same
            // claim loop as the `workers - 1` spawned threads, so a single
            // worker spawns nothing and every worker count runs one path.
            let work = || {
                let _run_scope = horizon_telemetry::RunScope::enter(run);
                loop {
                    let b = cursor.fetch_add(1, Ordering::Relaxed);
                    if b >= batches.len() {
                        break;
                    }
                    let queue_wait = pool_start.elapsed().as_nanos() as u64;
                    let (cost, w, ids) = &batches[b];
                    let batch_machines: Vec<MachineConfig> =
                        ids.iter().map(|&id| machines[jobs[id].1].clone()).collect();
                    let job_start = Instant::now();
                    let measurements = campaign.measure_fleet(&profiles[*w], &batch_machines);
                    let wall = job_start.elapsed().as_nanos() as u64;
                    // Attribute the batch's wall clock across its jobs
                    // so per-job accounting sums exactly to the batch.
                    let n = ids.len() as u64;
                    let (share, extra) = (wall / n, wall % n);
                    for (k, (&id, measurement)) in ids.iter().zip(measurements).enumerate() {
                        let (jw, jm) = jobs[id];
                        let wall_nanos = share + u64::from((k as u64) < extra);
                        rec.histogram_record("engine.queue_wait_ns", queue_wait);
                        let mut job_span = rec.span("engine.job");
                        job_span.set_parent(campaign_id);
                        job_span.record("workload", profiles[jw].name());
                        job_span.record("machine", machines[jm].name.as_str());
                        job_span.record("outcome", JobOutcome::Simulated.label());
                        job_span.record("instructions", campaign.instructions + campaign.warmup);
                        job_span.record("est_cost", *cost);
                        job_span.record("fleet", ids.len());
                        job_span.record("wall_ns", wall_nanos);
                        drop(job_span);
                        rec.histogram_record("engine.job_wall_ns", wall_nanos);
                        slots[id]
                            .set((measurement, wall_nanos))
                            .expect("each job is simulated once");
                        progress(&profiles[jw], &machines[jm], JobOutcome::Simulated);
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(work);
                }
                work();
            });
            drop(simulate_span);
        }

        // Phase 4: integrate. Only now, with every batch finished, do the
        // call's new results reach the disk cache and the memo, so a call
        // that unwinds (a panicking simulation or progress callback)
        // leaves neither holding anything from it.
        let integrate_span = rec.phase_span("engine.integrate");
        let mut simulation_wall_nanos = 0u64;
        for (id, slot) in slots.into_iter().enumerate() {
            if let Some((measurement, wall_nanos)) = slot.into_inner() {
                if let Some(disk) = &self.disk {
                    disk.store(&fingerprints[id], &measurement);
                }
                simulation_wall_nanos += wall_nanos;
                resolved[id] = Some(measurement);
            }
        }
        {
            let mut memo = self.memo.lock().expect("memo lock");
            for (id, fp) in fingerprints.iter().enumerate() {
                if !memoized[id] {
                    let measurement = resolved[id].clone().expect("job resolved");
                    memo.insert(fp.clone(), measurement);
                }
            }
        }
        let window = campaign.instructions + campaign.warmup;
        rec.counter_add("engine.campaigns", 1);
        rec.counter_add("engine.cells", (profiles.len() * machines.len()) as u64);
        rec.counter_add("engine.unique_jobs", jobs.len() as u64);
        rec.counter_add("engine.simulated_jobs", simulated as u64);
        rec.counter_add("engine.fleet_batches", batches.len() as u64);
        rec.counter_add("engine.memo_hits", memo_hits);
        rec.counter_add("engine.disk_hits", disk_hits);
        rec.counter_add("engine.simulated_instructions", simulated as u64 * window);
        rec.counter_add("engine.simulation_wall_nanos", simulation_wall_nanos);
        drop(integrate_span);

        // Phase 5: assemble the grid by cell index, deriving each cell's
        // clock, CPI stack and power for its own machine from the job's
        // counters — bit-identical to simulating that machine.
        let assemble_span = rec.phase_span("engine.assemble");
        let workload_names = profiles.iter().map(|p| p.name().to_string()).collect();
        let machine_names = machines.iter().map(|m| m.name.clone()).collect();
        let grid = cell_jobs
            .iter()
            .map(|row| {
                row.iter()
                    .zip(machines)
                    .map(|(&id, machine)| {
                        let job = resolved[id].as_ref().expect("job resolved");
                        Measurement::for_machine(job.counters.clone(), machine)
                    })
                    .collect()
            })
            .collect();
        drop(assemble_span);

        campaign_span.record("cells", profiles.len() * machines.len());
        campaign_span.record("unique_jobs", jobs.len());
        campaign_span.record("simulated", simulated);
        campaign_span.record("workers", workers);
        rec.counter_add(
            "engine.elapsed_nanos",
            call_start.elapsed().as_nanos() as u64,
        );
        CampaignResult::from_grid(workload_names, machine_names, grid)
    }
}

impl CampaignExecutor for Engine {
    fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        Engine::measure_profiles(self, campaign, profiles, machines)
    }
}
