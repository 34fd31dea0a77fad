//! The thread-safe recorder and its span guards.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::bus::{current_run_id, EventBus, EventKind, JobOutcome, RunScope};
use crate::histogram::Histogram;
use crate::snapshot::{SpanRecord, TelemetrySnapshot};

/// Counter name under which bus ring-overflow drops surface in snapshots,
/// [`Recorder::counter_value`] and `/metrics`. It is synthesized from the
/// bus's own atomic when read, so publishing never takes the state lock.
pub const EVENTS_DROPPED_COUNTER: &str = "telemetry.events_dropped";

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Default cap on retained span records (counters and histograms are never
/// capped). A full-scale `repro all` emits a few tens of thousands of
/// spans; the cap exists so pathological loops (e.g. a Criterion bench
/// iterating a recorded call millions of times) bound memory. Dropped
/// spans are counted, never silent.
pub const DEFAULT_SPAN_CAPACITY: usize = 262_144;

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Wall-time histogram per span name; fed on every span close, so
    /// phase totals stay exact even past the span cap.
    span_wall: BTreeMap<&'static str, Histogram>,
    /// Histograms keyed `(family, label key, label value)` — one labelled
    /// dimension (e.g. `serve.request_wall_ms{route="run"}`), enough for
    /// per-route latency without a full label-set model.
    labeled_histograms: BTreeMap<(&'static str, &'static str, &'static str), Histogram>,
    /// Counter deltas per run id being tallied by [`Recorder::tally_run`];
    /// empty unless a run is being tallied.
    runs: HashMap<u64, BTreeMap<&'static str, u64>>,
}

/// Collects spans, counters and histograms from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    /// Distinguishes recorders on the thread-local parent stack, so a span
    /// of one recorder never becomes the parent of another recorder's span.
    tag: u64,
    enabled: bool,
    span_capacity: usize,
    epoch: Instant,
    /// Wall-clock time of `epoch` (unix nanoseconds), captured once at
    /// construction so monotonic span offsets can be re-anchored to
    /// absolute timestamps (the OTLP exporter needs them).
    epoch_unix_nanos: u64,
    next_id: AtomicU64,
    state: Mutex<State>,
    bus: EventBus,
}

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Stack of `(recorder tag, span id)` for implicit parenting.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let mut id = cell.borrow_mut();
        *id.get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder with the default span cap.
    pub fn new() -> Self {
        Recorder {
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            enabled: true,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            epoch: Instant::now(),
            epoch_unix_nanos: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
            bus: EventBus::new(),
        }
    }

    /// A recorder that ignores everything — for measuring instrumentation
    /// overhead and for components that must run dark.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Overrides the retained-span cap (counters/histograms are unaffected).
    /// A cap of 0 turns span records off: nothing is retained,
    /// [`Span::record`] stores no fields, and nothing counts as dropped,
    /// while per-span-name wall histograms and the live bus stay exact.
    /// `repro` uses it unless `--otlp-out` will export the records, so
    /// neither a batch run nor a daemon keeps records nobody reads.
    #[must_use]
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = capacity;
        self
    }

    /// Opens a span. The guard records the span when dropped; its parent is
    /// the innermost open span *of this recorder* on the current thread
    /// (override with [`Span::set_parent`] for cross-thread work).
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        self.open_span(name, false)
    }

    /// Opens a *phase* span: identical to [`Recorder::span`], but its open
    /// and close also publish `phase_enter`/`phase_exit` events on the live
    /// bus. Other spans never reach the bus.
    pub fn phase_span(self: &Arc<Self>, name: &'static str) -> Span {
        self.open_span(name, true)
    }

    fn open_span(self: &Arc<Self>, name: &'static str, phase: bool) -> Span {
        if !self.enabled {
            return Span::noop();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|&&(tag, _)| tag == self.tag)
                .map(|&(_, id)| id);
            stack.push((self.tag, id));
            parent
        });
        let run = current_run_id();
        let start_nanos = self.epoch.elapsed().as_nanos() as u64;
        if phase && self.bus.has_subscribers() {
            self.bus
                .publish(run, start_nanos, EventKind::PhaseEnter { name });
        }
        Span {
            inner: Some(ActiveSpan {
                recorder: Arc::clone(self),
                id,
                parent,
                name,
                run,
                phase,
                start: Instant::now(),
                start_nanos,
                fields: Vec::new(),
            }),
        }
    }

    /// The live event bus this recorder publishes into. Subscribe to a run
    /// to watch its phases and job progress as they happen.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Publishes one job-progress event on the bus: `completed` of `total`
    /// jobs of a campaign that started at `campaign_start` have resolved,
    /// the last with `outcome`. A no-op when disabled or unobserved, which
    /// costs one atomic load on the engine's per-job path.
    pub fn publish_progress(
        &self,
        completed: u64,
        total: u64,
        outcome: JobOutcome,
        campaign_start: Instant,
    ) {
        if !self.enabled || !self.bus.has_subscribers() {
            return;
        }
        self.bus.publish(
            current_run_id(),
            self.epoch.elapsed().as_nanos() as u64,
            EventKind::Progress {
                completed,
                total,
                outcome,
                campaign_nanos: campaign_start.elapsed().as_nanos() as u64,
            },
        );
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        *state.counters.entry(name).or_insert(0) += delta;
        if !state.runs.is_empty() {
            if let Some(tally) = state.runs.get_mut(&current_run_id()) {
                *tally.entry(name).or_insert(0) += delta;
            }
        }
    }

    /// Adds `delta` (possibly negative) to a named gauge. Unlike counters,
    /// gauges track *current* levels — in-flight runs, queue depth — and
    /// move both ways.
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        *state.gauges.entry(name).or_insert(0) += delta;
    }

    /// Sets a named gauge to an absolute level.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state.gauges.insert(name, value);
    }

    /// Current level of one named gauge (0 when never touched); as cheap
    /// as [`Recorder::counter_value`].
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.state
            .lock()
            .expect("telemetry state")
            .gauges
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Records one sample into a named histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state.histograms.entry(name).or_default().record(value);
    }

    /// Records one sample into a histogram carrying a single static label
    /// dimension, e.g. `serve.request_wall_ms{route="run"}`. All three
    /// parts are `&'static str` so the hot path never allocates.
    pub fn histogram_record_labeled(
        &self,
        family: &'static str,
        label_key: &'static str,
        label_value: &'static str,
        value: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state
            .labeled_histograms
            .entry((family, label_key, label_value))
            .or_default()
            .record(value);
    }

    /// Runs `work` inside a [`RunScope`] of `run` and returns its value
    /// together with the counter deltas added meanwhile by threads in a
    /// scope of `run` (this one, and workers that re-enter it): the run's
    /// own share of counters that runs executing side by side all add to.
    /// Counters keep their process-wide totals as well.
    pub fn tally_run<R>(
        &self,
        run: u64,
        work: impl FnOnce() -> R,
    ) -> (R, BTreeMap<&'static str, u64>) {
        self.state
            .lock()
            .expect("telemetry state")
            .runs
            .insert(run, BTreeMap::new());
        let value = {
            let _scope = RunScope::enter(run);
            catch_unwind(AssertUnwindSafe(work))
        };
        let tally = self
            .state
            .lock()
            .expect("telemetry state")
            .runs
            .remove(&run)
            .unwrap_or_default();
        match value {
            Ok(value) => (value, tally),
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Current value of one named counter (0 when never touched) without
    /// paying for a full [`Recorder::snapshot`] clone — cheap enough to
    /// call per request on a serving path.
    pub fn counter_value(&self, name: &str) -> u64 {
        if name == EVENTS_DROPPED_COUNTER {
            return self.bus.dropped();
        }
        self.state
            .lock()
            .expect("telemetry state")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A consistent copy of everything recorded so far. Bus ring-overflow
    /// drops, if any, appear as the [`EVENTS_DROPPED_COUNTER`] counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.copy_state(true)
    }

    /// [`Recorder::snapshot`], with the span records left out unless
    /// `with_spans` (the aggregates alone are all a metrics scrape reads).
    fn copy_state(&self, with_spans: bool) -> TelemetrySnapshot {
        let state = self.state.lock().expect("telemetry state");
        let mut counters = state.counters.clone();
        let events_dropped = self.bus.dropped();
        if events_dropped > 0 {
            counters.insert(EVENTS_DROPPED_COUNTER, events_dropped);
        }
        TelemetrySnapshot {
            spans: if with_spans {
                state.spans.clone()
            } else {
                Vec::new()
            },
            dropped_spans: state.dropped_spans,
            counters,
            gauges: state.gauges.clone(),
            histograms: state.histograms.clone(),
            span_wall: state.span_wall.clone(),
            labeled_histograms: state.labeled_histograms.clone(),
            epoch_unix_nanos: self.epoch_unix_nanos,
        }
    }

    /// Clears all recorded data (spans, counters, histograms, and the
    /// events-dropped tally; live bus subscriptions stay attached).
    pub fn reset(&self) {
        *self.state.lock().expect("telemetry state") = State::default();
        self.bus.reset_dropped();
    }

    /// Renders the live state in Prometheus text exposition format — a
    /// snapshot taken and serialized in one call, for scrape-style readers
    /// such as the `repro serve` `/metrics` endpoint. The exposition reads
    /// only aggregates, so the span records are never copied.
    pub fn prometheus_text(&self) -> String {
        let mut buf = Vec::new();
        crate::write_prometheus(&self.copy_state(false), &mut buf).expect("writing to memory");
        String::from_utf8(buf).expect("exposition text is UTF-8")
    }

    fn close_span(&self, span: &mut ActiveSpan) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&entry| entry == (self.tag, span.id))
            {
                stack.remove(pos);
            }
        });
        let duration_nanos = span.start.elapsed().as_nanos() as u64;
        {
            let mut state = self.state.lock().expect("telemetry state");
            state
                .span_wall
                .entry(span.name)
                .or_default()
                .record(duration_nanos);
            if state.spans.len() < self.span_capacity {
                state.spans.push(SpanRecord {
                    id: span.id,
                    parent: span.parent,
                    name: span.name,
                    thread: current_thread_id(),
                    run: span.run,
                    start_nanos: span.start_nanos,
                    duration_nanos,
                    fields: std::mem::take(&mut span.fields),
                });
            } else if self.span_capacity > 0 {
                state.dropped_spans += 1;
            }
        }
        if span.phase && self.bus.has_subscribers() {
            self.bus.publish(
                span.run,
                self.epoch.elapsed().as_nanos() as u64,
                EventKind::PhaseExit {
                    name: span.name,
                    duration_nanos,
                },
            );
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    recorder: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    /// Run label captured at open ([`current_run_id`]).
    run: u64,
    /// Phase spans publish `phase_enter`/`phase_exit` bus events.
    phase: bool,
    start: Instant,
    start_nanos: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An open span; recorded into its [`Recorder`] on drop. A no-op guard
/// (from a disabled or missing recorder) costs nothing to hold.
#[derive(Debug)]
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// A guard that records nothing.
    pub fn noop() -> Span {
        Span { inner: None }
    }

    /// The span id, for explicit cross-thread parenting (`None` for no-op
    /// guards).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.id)
    }

    /// Attaches a structured field, recorded when the span closes. Does
    /// nothing (not even the conversion) when the recorder keeps no span
    /// records: fields are read only from records.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(span) = self.inner.as_mut() {
            if span.recorder.span_capacity > 0 {
                span.fields.push((key, value.into()));
            }
        }
    }

    /// Overrides the implicit (thread-local) parent — used when a span
    /// belongs under work that started on another thread.
    pub fn set_parent(&mut self, parent: Option<u64>) {
        if let Some(span) = self.inner.as_mut() {
            span.parent = parent;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut span) = self.inner.take() {
            let recorder = Arc::clone(&span.recorder);
            recorder.close_span(&mut span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let r = Arc::new(Recorder::new());
        {
            let outer = r.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let mut mid = r.span("mid");
                assert_eq!(
                    mid.inner.as_ref().unwrap().parent,
                    Some(outer_id),
                    "implicit parent is the innermost open span"
                );
                mid.record("k", 7u64);
                let _leaf = r.span("leaf");
            }
            let _sibling = r.span("sibling");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 4);
        let outer = &snap.spans_named("outer")[0];
        assert_eq!(outer.parent, None);
        let mid = &snap.spans_named("mid")[0];
        let leaf = &snap.spans_named("leaf")[0];
        let sibling = &snap.spans_named("sibling")[0];
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(leaf.parent, Some(mid.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(mid.fields, vec![("k", FieldValue::U64(7))]);
    }

    #[test]
    fn two_recorders_never_cross_parent() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        {
            let _on_a = a.span("a.outer");
            let on_b = b.span("b.span");
            assert_eq!(on_b.inner.as_ref().unwrap().parent, None);
        }
        assert_eq!(b.snapshot().spans_named("b.span")[0].parent, None);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let r = Arc::new(Recorder::new());
        let outer = r.span("campaign");
        let outer_id = outer.id().unwrap();
        let worker = Arc::clone(&r);
        std::thread::spawn(move || {
            let mut job = worker.span("job");
            job.set_parent(Some(outer_id));
        })
        .join()
        .unwrap();
        drop(outer);
        let snap = r.snapshot();
        let job = &snap.spans_named("job")[0];
        let campaign = &snap.spans_named("campaign")[0];
        assert_eq!(job.parent, Some(campaign.id));
        assert_ne!(job.thread, campaign.thread);
    }

    #[test]
    fn span_cap_counts_drops_and_keeps_wall_histograms() {
        let r = Arc::new(Recorder::new().with_span_capacity(2));
        for _ in 0..5 {
            let _s = r.span("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 3);
        assert_eq!(snap.span_wall.get("phase").unwrap().count(), 5);
    }

    #[test]
    fn zero_span_cap_turns_records_off_without_counting_drops() {
        let r = Arc::new(Recorder::new().with_span_capacity(0));
        for _ in 0..5 {
            let _s = r.span("phase");
        }
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.dropped_spans, 0);
        assert_eq!(snap.span_wall.get("phase").unwrap().count(), 5);
        assert!(r.prometheus_text().contains("horizon_dropped_spans 0\n"));
    }

    #[test]
    fn zero_span_cap_stores_no_fields_and_still_counts_the_span() {
        let r = Arc::new(Recorder::new().with_span_capacity(0));
        {
            let mut s = r.span("engine.job");
            s.record("workload", "605.mcf_s");
            s.record("wall_ns", 9_000u64);
            assert!(s.inner.as_ref().unwrap().fields.is_empty());
        }
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.span_wall.get("engine.job").unwrap().count(), 1);
    }

    #[test]
    fn tally_run_counts_only_its_own_runs_deltas() {
        let r = Arc::new(Recorder::new());
        r.counter_add("jobs", 100);
        let ((), tally) = r.tally_run(7, || {
            assert_eq!(current_run_id(), 7);
            r.counter_add("jobs", 3);
            let worker = Arc::clone(&r);
            std::thread::spawn(move || {
                let _own = RunScope::enter(7);
                worker.counter_add("jobs", 2);
                let _other = RunScope::enter(8);
                worker.counter_add("jobs", 40);
            })
            .join()
            .unwrap();
        });
        assert_eq!(tally.get("jobs"), Some(&5));
        assert_eq!(r.counter_value("jobs"), 145, "totals stay process-wide");

        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            r.tally_run(9, || panic!("injected"));
        }));
        assert!(unwound.is_err(), "the panic reaches the caller");
        assert!(
            r.state.lock().unwrap().runs.is_empty(),
            "no registration outlives its run"
        );
    }

    #[test]
    fn prometheus_text_matches_the_full_snapshot_exposition() {
        let r = Arc::new(Recorder::new());
        r.counter_add("c", 2);
        r.histogram_record("h", 40);
        for _ in 0..3 {
            let _s = r.span("phase");
        }
        let mut full = Vec::new();
        crate::write_prometheus(&r.snapshot(), &mut full).unwrap();
        assert_eq!(r.prometheus_text().into_bytes(), full);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Arc::new(Recorder::disabled());
        {
            let mut s = r.span("x");
            assert_eq!(s.id(), None);
            s.record("k", 1u64);
        }
        r.counter_add("c", 1);
        r.histogram_record("h", 1);
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn prometheus_text_renders_live_state() {
        let r = Arc::new(Recorder::new());
        r.counter_add("serve.requests", 3);
        let first = r.prometheus_text();
        assert!(first.contains("horizon_serve_requests 3"), "{first}");
        r.counter_add("serve.requests", 1);
        let second = r.prometheus_text();
        assert!(second.contains("horizon_serve_requests 4"), "{second}");
    }

    #[test]
    fn gauges_move_both_ways_and_reset_clears() {
        let r = Arc::new(Recorder::new());
        r.gauge_add("g", 3);
        r.gauge_add("g", -2);
        assert_eq!(r.gauge_value("g"), 1);
        r.gauge_set("g", 7);
        assert_eq!(r.gauge_value("g"), 7);
        assert_eq!(r.snapshot().gauge("g"), 7);
        assert_eq!(r.gauge_value("untouched"), 0);
        r.reset();
        assert_eq!(r.gauge_value("g"), 0);
    }

    #[test]
    fn disabled_recorder_ignores_gauges() {
        let r = Arc::new(Recorder::disabled());
        r.gauge_add("g", 5);
        r.gauge_set("g", 9);
        assert!(r.snapshot().gauges.is_empty());
    }

    #[test]
    fn bus_sees_phase_and_progress_events_with_run_labels() {
        use crate::bus::EventKind;
        let r = Arc::new(Recorder::new());
        let sub = r.bus().subscribe_run(64, 41);
        let _scope = RunScope::enter(41);
        let campaign_start = Instant::now();
        {
            let _phase = r.phase_span("engine.simulate");
            r.publish_progress(1, 8, JobOutcome::Memo, campaign_start);
            r.publish_progress(2, 8, JobOutcome::Simulated, campaign_start);
        }
        let events: Vec<_> = std::iter::from_fn(|| sub.try_recv()).collect();
        let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec!["phase_enter", "progress", "progress", "phase_exit"]
        );
        assert!(
            events.iter().all(|e| e.run == 41),
            "run label on all events"
        );
        let mut last = 0;
        for e in &events {
            assert!(e.seq > last, "monotonic seq");
            last = e.seq;
        }
        match events[2].kind {
            EventKind::Progress {
                completed,
                total,
                outcome,
                campaign_nanos,
            } => {
                assert_eq!((completed, total), (2, 8));
                assert_eq!(outcome, JobOutcome::Simulated);
                assert!(campaign_nanos <= campaign_start.elapsed().as_nanos() as u64);
            }
            ref other => panic!("expected a progress event, got {other:?}"),
        }
        // The span record itself is stamped with the run too.
        let snap = r.snapshot();
        assert_eq!(snap.spans_named("engine.simulate")[0].run, 41);
    }

    #[test]
    fn counters_and_plain_spans_publish_nothing() {
        let r = Arc::new(Recorder::new());
        let sub = r.bus().subscribe_run(64, 42);
        let _scope = RunScope::enter(42);
        {
            let _span = r.span("engine.job");
            r.counter_add("engine.memo_hits", 2);
        }
        assert!(sub.try_recv().is_none(), "nothing reached the bus");
        assert_eq!(r.counter_value("engine.memo_hits"), 2);
        assert_eq!(r.snapshot().spans_named("engine.job").len(), 1);
    }

    #[test]
    fn unobserved_recorder_publishes_nothing_and_disabled_stays_dark() {
        let r = Arc::new(Recorder::new());
        let campaign_start = Instant::now();
        {
            let _s = r.phase_span("p");
            r.publish_progress(1, 2, JobOutcome::Simulated, campaign_start);
        }
        // Subscribe only now: nothing from before may appear.
        let sub = r.bus().subscribe_run(8, 0);
        assert!(sub.try_recv().is_none());

        let dark = Arc::new(Recorder::disabled());
        let dark_sub = dark.bus().subscribe_run(8, 0);
        {
            let _s = dark.phase_span("p");
            dark.publish_progress(1, 2, JobOutcome::Simulated, campaign_start);
        }
        assert!(dark_sub.try_recv().is_none(), "disabled recorder runs dark");
    }

    #[test]
    fn ring_overflow_surfaces_as_events_dropped_counter() {
        let r = Arc::new(Recorder::new());
        let sub = r.bus().subscribe_run(2, 0);
        let campaign_start = Instant::now();
        for completed in 1..=10 {
            r.publish_progress(completed, 10, JobOutcome::Memo, campaign_start);
        }
        assert_eq!(sub.dropped(), 8);
        assert_eq!(r.counter_value(EVENTS_DROPPED_COUNTER), 8);
        assert_eq!(r.snapshot().counter(EVENTS_DROPPED_COUNTER), 8);
        r.reset();
        assert_eq!(r.counter_value(EVENTS_DROPPED_COUNTER), 0);
        assert_eq!(r.snapshot().counter(EVENTS_DROPPED_COUNTER), 0);
    }

    #[test]
    fn labeled_histograms_record_per_label_value() {
        let r = Arc::new(Recorder::new());
        r.histogram_record_labeled("serve.request_wall_ms", "route", "run", 100);
        r.histogram_record_labeled("serve.request_wall_ms", "route", "run", 200);
        r.histogram_record_labeled("serve.request_wall_ms", "route", "healthz", 1);
        let snap = r.snapshot();
        let run = snap
            .labeled_histograms
            .get(&("serve.request_wall_ms", "route", "run"))
            .expect("run route recorded");
        assert_eq!(run.count(), 2);
        let healthz = snap
            .labeled_histograms
            .get(&("serve.request_wall_ms", "route", "healthz"))
            .expect("healthz route recorded");
        assert_eq!(healthz.count(), 1);
        let dark = Arc::new(Recorder::disabled());
        dark.histogram_record_labeled("f", "k", "v", 1);
        assert!(dark.snapshot().labeled_histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset_clears() {
        let r = Arc::new(Recorder::new());
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        assert_eq!(r.snapshot().counter("c"), 5);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert!(snap.spans.is_empty());
    }
}
