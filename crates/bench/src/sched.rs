//! The table of in-flight runs for `repro serve`.
//!
//! A run executes on the thread that received its request: a framed
//! `POST /run` on its connection worker, a streamed one on a scoped
//! thread beside the connection thread that forwards its events. What the
//! runs share is [`InFlightRuns`], keyed by [`RunKey`]: the experiment
//! plus the campaign-shaping options `quick` and `seed`. The first
//! request for a key *leads*:
//! [`InFlightRuns::claim`] hands it a fresh [`RunSlot`], and it executes
//! the run with [`InFlightRuns::execute`]. Identical requests that arrive
//! while the run executes *follow*: they get the leader's slot and wait
//! on it for the same [`RunOutput`]. Engine results are deterministic, so
//! a shared answer is bit-identical to a private one.
//!
//! # Invariant
//!
//! A claimed run is always executed and published, whatever happens to
//! its client: a follower must never wait on a slot that nobody will
//! fill. So a leader starts its run right after the claim, before any
//! further write to its client, and [`InFlightRuns::execute`] publishes
//! even when the experiment fails or panics (every waiter then answers
//! `500`). A client that stops waiting only loses its own answer: the run
//! still finishes, its jobs land in the engine memo and the disk cache,
//! and a retry is cheap.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use horizon_core::report::Report;
use horizon_telemetry::Recorder;

use crate::{run_report, Experiment, ReproConfig};

/// Locks a mutex, recovering from poison: the table must stay usable
/// after a panic on any thread that held it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of a run for coalescing: everything that shapes the report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    /// Canonical experiment id.
    pub experiment: &'static str,
    /// Whether the quick-scale config was requested.
    pub quick: bool,
    /// Seed override.
    pub seed: Option<u64>,
}

/// What a finished run hands every waiter (leader and followers alike).
#[derive(Debug, Clone)]
pub(crate) struct RunOutput {
    /// The report, or a displayable error (experiment failures and caught
    /// run panics both land here).
    pub report: Result<Report, String>,
    /// Wall time of the execution.
    pub wall_ms: u128,
    /// Engine memo hits of this execution's own jobs.
    pub memo_hits_delta: u64,
    /// Engine disk-cache hits of this execution's own jobs.
    pub disk_hits_delta: u64,
    /// Jobs this execution simulated.
    pub simulated_jobs_delta: u64,
}

/// The rendezvous between one run and its waiters.
#[derive(Debug, Default)]
pub(crate) struct RunSlot {
    /// Telemetry run id the execution runs under. Followers share the
    /// leader's id, so an SSE stream can subscribe to exactly this run's
    /// events.
    run_id: u64,
    output: Mutex<Option<RunOutput>>,
    done: Condvar,
}

impl RunSlot {
    fn new(run_id: u64) -> Self {
        RunSlot {
            run_id,
            ..RunSlot::default()
        }
    }

    /// The telemetry run id this slot's execution is attributed to.
    pub(crate) fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Blocks until the run publishes, then returns a clone of its output.
    pub(crate) fn wait(&self) -> RunOutput {
        self.done
            .wait_while(lock(&self.output), |output| output.is_none())
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .expect("the wait ends only once the run has published")
    }

    /// The run's output if it has published, without blocking.
    pub(crate) fn published(&self) -> Option<RunOutput> {
        lock(&self.output).clone()
    }

    fn publish(&self, output: RunOutput) {
        *lock(&self.output) = Some(output);
        self.done.notify_all();
    }
}

/// The runs executing now, by coalescing key.
pub(crate) struct InFlightRuns {
    runs: Mutex<HashMap<RunKey, Arc<RunSlot>>>,
    recorder: Arc<Recorder>,
}

impl InFlightRuns {
    /// An empty table recording into `recorder`.
    pub(crate) fn new(recorder: Arc<Recorder>) -> InFlightRuns {
        // Touch the run metrics so they are exported (as zero) before the
        // first run: scrapers and the CI smoke can rely on their presence
        // instead of special-casing an idle daemon.
        recorder.counter_add("serve.coalesced_runs", 0);
        recorder.counter_add("serve.runs_executed", 0);
        recorder.gauge_add("serve.active_runs", 0);
        InFlightRuns {
            runs: Mutex::new(HashMap::new()),
            recorder,
        }
    }

    /// Claims the run of `key`: returns its slot and whether the claim
    /// follows an identical run that is already executing (counted in
    /// `serve.coalesced_runs`). A leader (`false`) must run
    /// [`InFlightRuns::execute`] on the slot; a follower only waits.
    pub(crate) fn claim(&self, key: &RunKey) -> (Arc<RunSlot>, bool) {
        let mut runs = lock(&self.runs);
        if let Some(slot) = runs.get(key) {
            let slot = Arc::clone(slot);
            drop(runs);
            self.recorder.counter_add("serve.coalesced_runs", 1);
            return (slot, true);
        }
        let slot = Arc::new(RunSlot::new(horizon_telemetry::next_run_id()));
        runs.insert(key.clone(), Arc::clone(&slot));
        (slot, false)
    }

    /// Distinct runs executing now.
    pub(crate) fn executing(&self) -> usize {
        lock(&self.runs).len()
    }

    /// Executes the claimed run of `key` on the calling thread and
    /// publishes the outcome to every waiter on `slot`. A panic inside the
    /// experiment is caught and published as an error, so a faulty run
    /// can neither hang its waiters nor unwind the calling thread.
    pub(crate) fn execute(
        &self,
        key: &RunKey,
        slot: &RunSlot,
        experiment: &Experiment,
        cfg: &ReproConfig,
    ) {
        let rec = &self.recorder;
        rec.gauge_add("serve.active_runs", 1);
        let started = Instant::now();
        // Attribute everything this run records or publishes on the live
        // bus to its run id (the engine re-enters the scope on its own
        // workers), and tally the engine counters it adds apart from
        // those of runs executing beside it.
        let (result, tally) = rec.tally_run(slot.run_id(), || {
            catch_unwind(AssertUnwindSafe(|| run_report(experiment, cfg)))
        });
        let own = |counter: &str| tally.get(counter).copied().unwrap_or(0);
        let report = match result {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("experiment '{}': {e}", experiment.id)),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                Err(format!(
                    "experiment '{}' panicked: {message}",
                    experiment.id
                ))
            }
        };
        let output = RunOutput {
            report,
            wall_ms: started.elapsed().as_millis(),
            memo_hits_delta: own("engine.memo_hits"),
            disk_hits_delta: own("engine.disk_hits"),
            simulated_jobs_delta: own("engine.simulated_jobs"),
        };
        // Retire the key and settle the books *before* publishing: a
        // waiter that wakes on the publish may immediately read the run
        // metrics and must see this run fully accounted for. A claim
        // landing between the removal and the publish leads a fresh run:
        // duplicated wall clock at worst (the engine memo absorbs the
        // cost), never a wrong or lost answer.
        lock(&self.runs).remove(key);
        rec.gauge_add("serve.active_runs", -1);
        rec.counter_add("serve.runs_executed", 1);
        slot.publish(output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_experiment;
    use horizon_core::CoreError;

    fn table() -> (InFlightRuns, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        (InFlightRuns::new(Arc::clone(&recorder)), recorder)
    }

    fn key_for(experiment: &'static Experiment) -> RunKey {
        RunKey {
            experiment: experiment.id,
            quick: false,
            seed: Some(42),
        }
    }

    #[test]
    fn identical_claims_share_one_execution() {
        let (runs, recorder) = table();
        let experiment = find_experiment("table1").expect("registry");
        let key = key_for(experiment);
        let (first, coalesced_first) = runs.claim(&key);
        let (second, coalesced_second) = runs.claim(&key);
        assert!(!coalesced_first, "the first claim leads");
        assert!(coalesced_second, "the identical second claim follows");
        assert!(Arc::ptr_eq(&first, &second), "both share one slot");
        assert_eq!(recorder.counter_value("serve.coalesced_runs"), 1);
        assert_eq!(runs.executing(), 1, "one distinct run");
        assert!(second.published().is_none(), "nothing published yet");

        runs.execute(&key, &first, experiment, &ReproConfig::smoke());
        let a = first.wait().report.expect("experiment succeeds");
        let b = second.wait().report.expect("follower's report");
        assert_eq!(a, b, "leader and follower read the same report");
        assert!(a.to_string().contains("Table I"), "{a}");
        assert_eq!(
            recorder.counter_value("serve.runs_executed"),
            1,
            "one execution served both"
        );
        assert_eq!(runs.executing(), 0, "the key retired");
        assert_eq!(recorder.gauge_value("serve.active_runs"), 0);
        assert!(!runs.claim(&key).1, "a later claim leads a new run");
    }

    fn boom(_: &ReproConfig) -> Result<Report, CoreError> {
        panic!("injected run fault");
    }

    static BOOM: Experiment = Experiment {
        id: "boom",
        aliases: &[],
        summary: "test-only run that always panics",
        weight: 1,
        run: boom,
    };

    #[test]
    fn panicking_run_answers_every_waiter_and_retires_its_key() {
        let (runs, recorder) = table();
        let key = key_for(&BOOM);
        let (leader, _) = runs.claim(&key);
        let (follower, coalesced) = runs.claim(&key);
        assert!(coalesced);
        // The panic is caught: the executing thread returns normally.
        runs.execute(&key, &leader, &BOOM, &ReproConfig::smoke());
        for slot in [&leader, &follower] {
            let error = slot
                .wait()
                .report
                .expect_err("a panicking run maps to an error");
            assert!(error.contains("panicked"), "{error}");
            assert!(error.contains("injected run fault"), "{error}");
        }
        assert_eq!(runs.executing(), 0, "the key retired");
        assert_eq!(recorder.gauge_value("serve.active_runs"), 0);
        assert_eq!(recorder.counter_value("serve.runs_executed"), 1);
        assert!(!runs.claim(&key).1, "a retry leads a new run");
    }
}
