//! Span tracing and run metrics for the horizon pipeline.
//!
//! The paper's methodology is a multi-stage pipeline (counter measurement →
//! standardization → PCA → clustering → subsetting/validation); this crate
//! makes where the wall clock goes *observable* without changing what any
//! stage computes. It is deliberately zero-dependency beyond the vendored
//! `serde`/`serde_json` (consistent with the workspace's offline policy —
//! no external `tracing` crate) and cheap enough to leave compiled into
//! every hot path:
//!
//! * **Spans** — hierarchical, named intervals with monotonic start/stop
//!   times, a thread id, and structured `key=value` fields. Parents come
//!   from a per-thread span stack, or explicitly (for work handed to a
//!   worker thread). A span is recorded when its guard drops.
//! * **Counters** — monotonically increasing named `u64`s (cache hits,
//!   simulated instructions, …).
//! * **Histograms** — power-of-two-bucketed distributions of `u64` samples
//!   (per-job simulation time, queue wait, …). Every span's wall time is
//!   additionally folded into a per-name histogram, so phase breakdowns
//!   stay exact whether or not span records are kept.
//!
//! Three sinks read a [`Recorder`]'s state after the fact:
//!
//! 1. [`Recorder::snapshot`] — an in-memory [`TelemetrySnapshot`],
//!    queryable in tests and used to render the `repro --stats` phase
//!    table.
//! 2. [`write_prometheus`] — a Prometheus-style text exposition of every
//!    aggregate (counters, gauges, histograms, per-span-name wall time)
//!    for `repro --metrics-out` and `repro serve`'s `/metrics`.
//! 3. [`write_otlp`] — an OTLP/JSON-shaped export of the span records for
//!    `repro --otlp-out`, loadable by Jaeger/Tempo-style tooling. It is
//!    the only reader of span records and their fields; a recorder built
//!    with [`Recorder::with_span_capacity`]`(0)` keeps none.
//!
//! And one reads it *live*: every recorder owns an [`EventBus`]
//! ([`Recorder::bus`]) publishing schema-versioned [`TelemetryEvent`]s
//! for a run's phase transitions ([`Recorder::phase_span`]) and its job
//! progress, each job named with its [`JobOutcome`], while the run
//! executes — the feed behind `repro --progress` and the `repro serve`
//! SSE run stream. Other spans and counters never reach the bus.
//! Publishing costs one atomic load when nobody subscribes, and a slow
//! subscriber only ever loses its own oldest events (bounded ring,
//! drop-oldest), never blocks the hot path. Each subscription follows
//! one run, told apart by a run id label ([`RunScope`], [`next_run_id`]).
//!
//! # Global recorder
//!
//! Library crates (uarch, stats, cluster, core) instrument through the
//! free functions [`span`], [`counter_add`] and [`histogram_record`],
//! which forward to the process-wide recorder installed with [`install`]
//! — and cost one `RwLock` read when none is installed. Components that
//! own their telemetry (the engine) hold an `Arc<Recorder>` directly.
//!
//! # Example
//!
//! ```
//! use horizon_telemetry::Recorder;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! {
//!     let mut outer = recorder.span("pipeline");
//!     outer.record("experiment", "table5");
//!     let _inner = recorder.span("pca"); // nested under "pipeline"
//! }
//! recorder.counter_add("jobs", 3);
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter("jobs"), 3);
//! let pca = &snap.spans_named("pca")[0];
//! let pipeline = &snap.spans_named("pipeline")[0];
//! assert_eq!(pca.parent, Some(pipeline.id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod histogram;
mod otlp;
mod prometheus;
mod recorder;
mod snapshot;

pub use bus::{
    current_run_id, next_run_id, EventBus, EventKind, JobOutcome, RunScope, Subscription,
    TelemetryEvent, DEFAULT_SUBSCRIBER_CAPACITY, EVENT_SCHEMA,
};
pub use histogram::Histogram;
pub use otlp::write_otlp;
pub use prometheus::write_prometheus;
pub use recorder::{FieldValue, Recorder, Span, EVENTS_DROPPED_COUNTER};
pub use snapshot::{PhaseStat, SpanRecord, TelemetrySnapshot};

use std::sync::{Arc, RwLock};

static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Installs a process-wide recorder; all [`span`]/[`counter_add`]/
/// [`histogram_record`] calls route to it until [`clear`] replaces it.
pub fn install(recorder: Arc<Recorder>) {
    *GLOBAL.write().expect("telemetry lock") = Some(recorder);
}

/// Removes the installed recorder; global instrumentation becomes a no-op.
pub fn clear() {
    *GLOBAL.write().expect("telemetry lock") = None;
}

/// The currently installed recorder, if any.
pub fn installed() -> Option<Arc<Recorder>> {
    GLOBAL.read().expect("telemetry lock").clone()
}

/// Opens a span on the installed recorder (no-op guard when none is
/// installed or the recorder is disabled).
pub fn span(name: &'static str) -> Span {
    match installed() {
        Some(r) => r.span(name),
        None => Span::noop(),
    }
}

/// Opens a *phase* span on the installed recorder — like [`span`], but
/// also publishing `phase_enter`/`phase_exit` events on the live bus (see
/// [`Recorder::phase_span`]).
pub fn phase_span(name: &'static str) -> Span {
    match installed() {
        Some(r) => r.phase_span(name),
        None => Span::noop(),
    }
}

/// Adds to a counter on the installed recorder (no-op when none).
pub fn counter_add(name: &'static str, delta: u64) {
    if let Some(r) = installed() {
        r.counter_add(name, delta);
    }
}

/// Records a histogram sample on the installed recorder (no-op when none).
pub fn histogram_record(name: &'static str, value: u64) {
    if let Some(r) = installed() {
        r.histogram_record(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global-install tests share one process-wide slot, so they run in
    // one test to avoid cross-test interference.
    #[test]
    fn global_install_routes_and_clear_disables() {
        let recorder = Arc::new(Recorder::new());
        install(Arc::clone(&recorder));
        {
            let _s = span("global.phase");
        }
        counter_add("global.count", 2);
        histogram_record("global.hist", 512);
        clear();
        // After clear, these must be silent no-ops.
        {
            let _s = span("global.phase");
        }
        counter_add("global.count", 40);

        let snap = recorder.snapshot();
        assert_eq!(snap.spans_named("global.phase").len(), 1);
        assert_eq!(snap.counter("global.count"), 2);
        assert_eq!(snap.histogram("global.hist").unwrap().count(), 1);
        assert!(installed().is_none());
    }
}
