//! Per-layer numbers, and the in-process traced run that produces them
//! for the batch workloads.
//!
//! The program already records spans and counters at its layer
//! boundaries (`engine.*`, `sim.*`, `stats.*`, `core.*`, `cluster.*`,
//! `tracestore.*`). The ladder adds no tracing inside the program: it
//! reads those records — from an in-process `Recorder::snapshot()` for
//! batch runs, from window deltas of the daemons' `/metrics` for served
//! runs — and times its own calls into the program's public functions.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use horizon_bench::{run_experiment, ReproConfig, REGISTRY};
use horizon_core::campaign::{
    clear_executor, install_executor, Campaign, CampaignExecutor, CampaignResult,
};
use horizon_engine::{Engine, Fingerprint};
use horizon_telemetry::{Recorder, TelemetrySnapshot};
use horizon_trace::{TraceGenerator, WorkloadProfile};
use horizon_uarch::MachineConfig;

use crate::client::Scrape;
use crate::golden::Golden;
use crate::spec::Metrics;

/// Accepted range of `layers.coverage` on a traced batch run.
pub const COVERAGE: std::ops::RangeInclusive<f64> = 0.90..=1.10;

/// Where layer totals come from: a recorder snapshot or a scrape delta.
pub trait Tally {
    /// A program counter's total (e.g. `engine.memo_hits`); 0 when the
    /// program never counted it.
    fn counter(&self, name: &str) -> f64;
    /// Total wall seconds of the spans named `name`.
    fn span_s(&self, name: &str) -> f64;
}

impl Tally for TelemetrySnapshot {
    fn counter(&self, name: &str) -> f64 {
        TelemetrySnapshot::counter(self, name) as f64
    }

    fn span_s(&self, name: &str) -> f64 {
        self.span_wall
            .get(name)
            .map_or(0.0, |h| h.sum() as f64 / 1e9)
    }
}

/// What the daemons did between two scrapes, summed over every node of
/// the scrape.
pub struct ScrapeDelta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Tally for ScrapeDelta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let metric = prometheus_name(name);
        self.after.sum(&metric, &[]) - self.before.sum(&metric, &[])
    }

    fn span_s(&self, name: &str) -> f64 {
        let filter = [("phase", name)];
        (self.after.sum("horizon_span_wall_nanos_sum", &filter)
            - self.before.sum("horizon_span_wall_nanos_sum", &filter))
            / 1e9
    }
}

/// `engine.memo_hits` → `horizon_engine_memo_hits`, the program's
/// exposition naming.
fn prometheus_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("horizon_{sanitized}")
}

/// Times the caller measured itself, which the program's records are
/// attributed against.
pub struct Attribution {
    /// Wall time inside campaign calls (the engine layer).
    pub campaign_s: f64,
    /// Wall time the layers must account for.
    pub wall_s: f64,
    /// Σ over fleet batches of lane groups × instructions streamed.
    pub lane_instructions: f64,
}

/// The engine, uarch, trace-store, analysis and bench-driver layer
/// metrics shared by batch and served runs.
pub fn layer_metrics(t: &dyn Tally, a: &Attribution, m: &mut Metrics) {
    m.insert("engine.campaign_s", a.campaign_s);
    m.insert("engine.expand_s", t.span_s("engine.expand"));
    m.insert("engine.probe_s", t.span_s("engine.probe"));
    m.insert("engine.integrate_s", t.span_s("engine.integrate"));
    m.insert("engine.cells", t.counter("engine.cells"));
    m.insert("engine.simulated_jobs", t.counter("engine.simulated_jobs"));
    m.insert("engine.memo_hits", t.counter("engine.memo_hits"));
    m.insert("engine.disk_hits", t.counter("engine.disk_hits"));
    m.insert("engine.fleet_batches", t.counter("engine.fleet_batches"));
    let unique = t.counter("engine.unique_jobs");
    let hits = t.counter("engine.memo_hits") + t.counter("engine.disk_hits");
    m.insert(
        "engine.hit_ratio",
        if unique > 0.0 { hits / unique } else { 0.0 },
    );

    let warmup_s = t.span_s("sim.warmup");
    let measure_s = t.span_s("sim.measure");
    m.insert("uarch.prewarm_s", t.span_s("sim.prewarm"));
    m.insert("uarch.warmup_s", warmup_s);
    m.insert("uarch.measure_s", measure_s);
    m.insert("uarch.lane_groups", t.counter("fleet.lane_groups"));
    m.insert("uarch.lane_instructions", a.lane_instructions);
    m.insert(
        "uarch.ns_per_lane_inst",
        if a.lane_instructions > 0.0 {
            (warmup_s + measure_s) * 1e9 / a.lane_instructions
        } else {
            0.0
        },
    );

    for name in [
        "tracestore.hits",
        "tracestore.misses",
        "tracestore.bytes_written",
        "tracestore.bytes_read",
    ] {
        m.insert(name, t.counter(name));
    }

    // `core.similarity` holds the PCA (`stats.*`) and the clustering
    // (`cluster.linkage`); it, `core.subset` and `core.validate` never
    // nest in one another or around a campaign, so their sum is the
    // analysis layer's time without double counting.
    let analysis_s =
        t.span_s("core.similarity") + t.span_s("core.subset") + t.span_s("core.validate");
    m.insert("analysis.similarity_s", t.span_s("core.similarity"));
    m.insert("analysis.eigen_s", t.span_s("stats.eigen"));
    m.insert("analysis.covariance_s", t.span_s("stats.covariance"));
    m.insert("analysis.linkage_s", t.span_s("cluster.linkage"));
    m.insert("analysis.total_s", analysis_s);

    let experiments_s = t.span_s("experiment");
    m.insert("bench.experiments_s", experiments_s);
    m.insert(
        "bench.unattributed_s",
        experiments_s - a.campaign_s - analysis_s,
    );
    m.insert(
        "layers.coverage",
        if a.wall_s > 0.0 {
            (a.campaign_s + analysis_s) / a.wall_s
        } else {
            0.0
        },
    );
}

/// The engine wrapped so the ladder can time each campaign call and see
/// which fleet batches it simulated.
struct TimedEngine {
    engine: Engine,
    campaign_nanos: AtomicU64,
    lane_instructions: AtomicU64,
    /// Workloads the progress callback reported simulated (not cached)
    /// since the last campaign call finished.
    simulated: Arc<Mutex<Vec<String>>>,
    /// Every simulated fleet batch, in campaign order.
    batches: Mutex<Vec<(Campaign, WorkloadProfile)>>,
}

impl CampaignExecutor for TimedEngine {
    fn measure_profiles(
        &self,
        campaign: &Campaign,
        profiles: &[WorkloadProfile],
        machines: &[MachineConfig],
    ) -> CampaignResult {
        let recorder = self.engine.recorder();
        let lanes_before = recorder.counter_value("fleet.lane_groups");
        let start = Instant::now();
        let result = self.engine.measure_profiles(campaign, profiles, machines);
        let nanos = start.elapsed().as_nanos() as u64;
        self.campaign_nanos.fetch_add(nanos, Ordering::Relaxed);
        let lanes = recorder.counter_value("fleet.lane_groups") - lanes_before;
        self.lane_instructions.fetch_add(
            lanes * (campaign.warmup + campaign.instructions),
            Ordering::Relaxed,
        );
        // Jobs of one call that share a trace ran as one fleet batch.
        let simulated = std::mem::take(&mut *self.simulated.lock().expect("progress sink"));
        let mut batches = BTreeMap::new();
        for name in simulated {
            if let Some(profile) = profiles.iter().find(|p| p.name() == name) {
                batches
                    .entry(Fingerprint::of_profile(campaign, profile))
                    .or_insert_with(|| (*campaign, profile.clone()));
            }
        }
        self.batches
            .lock()
            .expect("batch list")
            .extend(batches.into_values());
        result
    }
}

/// Uninstalls the ladder's executor and recorder however the traced run
/// ends.
struct Installed;

impl Drop for Installed {
    fn drop(&mut self) {
        clear_executor();
        horizon_telemetry::clear();
    }
}

/// One in-process traced `repro all`.
pub struct TracedRun {
    pub wall_s: f64,
    /// Whether the reassembled report is byte-identical to the golden.
    pub correct: bool,
    pub metrics: Metrics,
    /// The simulated fleet batches, for [`expand_traces`].
    pub batches: Vec<(Campaign, WorkloadProfile)>,
}

/// Runs every experiment in-process, as `repro all --jobs 1 --cache-dir
/// DIR` would, with the ladder's executor wrapper installed, and derives
/// the per-layer metrics from the recorder.
pub fn traced_run(cache_dir: &Path, golden: &Golden) -> Result<TracedRun, String> {
    let recorder = Arc::new(Recorder::new());
    let simulated = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&simulated);
    let engine = with_disk_cache(Engine::new(), cache_dir)?
        .with_recorder(Arc::clone(&recorder))
        .with_jobs(1)
        .with_progress(move |event| {
            if !event.cached {
                sink.lock()
                    .expect("progress sink")
                    .push(event.workload.clone());
            }
        });
    let timed = Arc::new(TimedEngine {
        engine,
        campaign_nanos: AtomicU64::new(0),
        lane_instructions: AtomicU64::new(0),
        simulated,
        batches: Mutex::new(Vec::new()),
    });

    let installed = Installed;
    horizon_telemetry::install(Arc::clone(&recorder));
    install_executor(Arc::clone(&timed) as Arc<dyn CampaignExecutor>);
    let cfg = ReproConfig::default();
    let start = Instant::now();
    let mut reports = Vec::with_capacity(REGISTRY.len());
    for experiment in REGISTRY {
        let report = run_experiment(experiment, &cfg)
            .map_err(|e| format!("traced {} failed: {e}", experiment.id))?;
        reports.push((experiment.id, report));
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(installed);

    let snapshot = recorder.snapshot();
    let mut metrics = Metrics::new();
    layer_metrics(
        &snapshot,
        &Attribution {
            campaign_s: timed.campaign_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            wall_s,
            lane_instructions: timed.lane_instructions.load(Ordering::Relaxed) as f64,
        },
        &mut metrics,
    );
    let batches = std::mem::take(&mut *timed.batches.lock().expect("batch list"));
    Ok(TracedRun {
        wall_s,
        correct: golden.matches(Golden::assemble(&reports).as_bytes()),
        metrics,
        batches,
    })
}

/// The disk cache and trace store `repro --cache-dir DIR` attaches.
fn with_disk_cache(engine: Engine, dir: &Path) -> Result<Engine, String> {
    engine
        .with_cache_dir(dir)
        .and_then(|engine| engine.with_trace_store(dir.join("traces")))
        .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))
}

/// Re-expands every simulated batch's instruction stream with the public
/// generator, timing it: the most a stored trace could save. Returns
/// `(seconds, instructions)`.
pub fn expand_traces(batches: &[(Campaign, WorkloadProfile)]) -> (f64, u64) {
    if batches.is_empty() {
        return (0.0, 0);
    }
    let start = Instant::now();
    let instructions = batches
        .iter()
        .map(|(campaign, profile)| {
            let window = (campaign.warmup + campaign.instructions) as usize;
            TraceGenerator::new(profile, campaign.seed)
                .take(window)
                .map(std::hint::black_box)
                .count() as u64
        })
        .sum();
    (start.elapsed().as_secs_f64(), instructions)
}
