//! Live event bus: bounded, per-run fan-out of phase and progress events.
//!
//! The recorder's snapshot/OTLP/Prometheus sinks are *after the fact*;
//! the bus makes a run's progress observable *while it executes*. A
//! [`crate::Recorder`] owns one [`EventBus`] and publishes schema-versioned
//! [`TelemetryEvent`]s for exactly what the two live renderers print —
//! `repro --progress` and the `repro serve` SSE run stream: the run's
//! phase transitions and one progress event per resolved job, naming
//! where its result came from. Spans and counters never reach the bus.
//! A consumer attaches to one run with [`EventBus::subscribe_run`] and
//! reads from a private bounded ring buffer.
//!
//! # Backpressure
//!
//! The hot path never blocks on a consumer. Each subscriber owns a
//! fixed-capacity ring; when it is full the *oldest* event is dropped to
//! make room and the drop is counted (per subscription via
//! [`Subscription::dropped`], process-wide as the
//! `telemetry.events_dropped` counter merged into every snapshot). A
//! subscriber that never reads costs the publisher one bounded push per
//! event — never a wait.
//!
//! # Zero overhead when unobserved
//!
//! Publishing begins with one relaxed atomic load
//! ([`EventBus::has_subscribers`]); with no subscriber attached no event
//! is even constructed, so the instrumented paths (phase spans, the
//! engine's per-job progress) pay nothing beyond that load.
//!
//! # Run attribution
//!
//! Every event carries a `run` label, and a subscription receives only
//! the events of its own run, so concurrent serve runs interleaved on one
//! recorder never see each other's events. Run ids come from
//! [`next_run_id`] and are installed per thread with [`RunScope`]; work
//! spawned onto other threads re-enters the scope there (the engine does
//! this for its workers). Events published outside any scope carry run
//! `0`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Value;

/// Event format version, bumped on any breaking change to
/// [`TelemetryEvent::to_json`].
pub const EVENT_SCHEMA: u32 = 1;

/// Default ring capacity for [`EventBus::subscribe_run`]: deep enough
/// that a full-scale run's phase and per-job progress events fit without
/// drops even if the consumer reads late.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 8192;

/// Where a resolved job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The engine's in-memory memo table.
    Memo,
    /// The on-disk cache.
    Disk,
    /// A fresh simulation.
    Simulated,
}

impl JobOutcome {
    /// The outcome's name: `memo`, `disk` or `simulated`.
    pub fn label(self) -> &'static str {
        match self {
            JobOutcome::Memo => "memo",
            JobOutcome::Disk => "disk",
            JobOutcome::Simulated => "simulated",
        }
    }
}

/// What happened; the payload of a [`TelemetryEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A pipeline phase began (phase spans only — see
    /// [`crate::Recorder::phase_span`]).
    PhaseEnter {
        /// Phase (span) name.
        name: &'static str,
    },
    /// A pipeline phase finished.
    PhaseExit {
        /// Phase (span) name.
        name: &'static str,
        /// Wall time in nanoseconds.
        duration_nanos: u64,
    },
    /// One campaign job resolved.
    Progress {
        /// Jobs of the campaign resolved so far, including this one.
        completed: u64,
        /// Unique jobs in the campaign.
        total: u64,
        /// Where this job's result came from.
        outcome: JobOutcome,
        /// Nanoseconds since the campaign started.
        campaign_nanos: u64,
    },
}

impl EventKind {
    /// The `event` discriminator used in the JSON form.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::PhaseEnter { .. } => "phase_enter",
            EventKind::PhaseExit { .. } => "phase_exit",
            EventKind::Progress { .. } => "progress",
        }
    }

    /// For a progress event, the nanoseconds its campaign still needs:
    /// the campaign's own elapsed time scaled by `(total − completed) /
    /// completed`. `None` for phase events and once no job is left. Both
    /// live renderers print this estimate, so earlier campaigns of a run
    /// never inflate a later campaign's ETA.
    pub fn eta_nanos(&self) -> Option<u64> {
        match *self {
            EventKind::Progress {
                completed,
                total,
                campaign_nanos,
                ..
            } if completed > 0 && total > completed => {
                Some(campaign_nanos.saturating_mul(total - completed) / completed)
            }
            _ => None,
        }
    }
}

/// One published event: a bus-monotonic sequence number, a timestamp on
/// the recorder's epoch clock, the run label, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Bus-wide publication order, starting at 1 and strictly increasing.
    pub seq: u64,
    /// Monotonic nanoseconds since the owning recorder's creation.
    pub at_nanos: u64,
    /// Run label ([`current_run_id`] at publish time; 0 = unattributed).
    pub run: u64,
    /// The payload.
    pub kind: EventKind,
}

fn num(v: impl ToString) -> Value {
    Value::Num(v.to_string())
}

impl TelemetryEvent {
    /// Renders the event as one deterministic JSON object:
    /// `{"schema":…,"seq":…,"at_ns":…,"run":…,"event":…,<payload fields>}`.
    /// This is the wire form of the `phase_enter`/`phase_exit` frames of
    /// the `repro serve` SSE run stream.
    pub fn to_json(&self) -> String {
        let mut map = vec![
            ("schema".into(), num(EVENT_SCHEMA)),
            ("seq".into(), num(self.seq)),
            ("at_ns".into(), num(self.at_nanos)),
            ("run".into(), num(self.run)),
            ("event".into(), Value::Str(self.kind.label().into())),
        ];
        match &self.kind {
            EventKind::PhaseEnter { name } => {
                map.push(("name".into(), Value::Str((*name).into())));
            }
            EventKind::PhaseExit {
                name,
                duration_nanos,
            } => {
                map.push(("name".into(), Value::Str((*name).into())));
                map.push(("dur_ns".into(), num(duration_nanos)));
            }
            EventKind::Progress {
                completed,
                total,
                outcome,
                campaign_nanos,
            } => {
                map.push(("completed".into(), num(completed)));
                map.push(("total".into(), num(total)));
                map.push(("outcome".into(), Value::Str(outcome.label().into())));
                map.push(("campaign_ns".into(), num(campaign_nanos)));
            }
        }
        serde_json::to_string(&Value::Map(map)).expect("event value tree serializes")
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Default)]
struct SubQueue {
    events: VecDeque<TelemetryEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct SubShared {
    queue: Mutex<SubQueue>,
    ready: Condvar,
    capacity: usize,
    /// Only events with this run label are delivered.
    run: u64,
    closed: AtomicBool,
}

#[derive(Debug, Default)]
struct BusInner {
    seq: AtomicU64,
    /// Live subscriber count — the publish fast path's only read.
    active: AtomicUsize,
    /// Events dropped (ring overflow) across all subscribers, ever.
    dropped: AtomicU64,
    subscribers: Mutex<Vec<Arc<SubShared>>>,
}

/// The fan-out hub one [`crate::Recorder`] publishes into. See the module
/// docs for semantics.
#[derive(Debug, Default)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// True when at least one subscription is live. One relaxed atomic
    /// load — callers gate event construction on it so unobserved hot
    /// paths stay free.
    #[inline]
    pub fn has_subscribers(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed) > 0
    }

    /// Live subscription count.
    pub fn subscriber_count(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Total events dropped to ring overflow across all subscribers, ever
    /// (surfaces as the `telemetry.events_dropped` counter in snapshots).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Zeroes the cumulative drop counter (used by `Recorder::reset` so a
    /// reset recorder reports no stale drops).
    pub(crate) fn reset_dropped(&self) {
        self.inner.dropped.store(0, Ordering::Relaxed);
    }

    /// Attaches a subscriber with a ring of `capacity` events (min 1),
    /// receiving every event of run `run` published from now on. The
    /// filter applies at publish time, so other runs cannot evict this
    /// run's events.
    pub fn subscribe_run(&self, capacity: usize, run: u64) -> Subscription {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(SubQueue::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            run,
            closed: AtomicBool::new(false),
        });
        let mut subs = lock(&self.inner.subscribers);
        subs.push(Arc::clone(&shared));
        self.inner.active.store(subs.len(), Ordering::Relaxed);
        drop(subs);
        Subscription {
            shared,
            bus: Arc::clone(&self.inner),
        }
    }

    /// Publishes one event to every live subscriber of `run`. Cheap no-op
    /// without subscribers; never blocks on a slow consumer (drop-oldest).
    pub fn publish(&self, run: u64, at_nanos: u64, kind: EventKind) {
        if !self.has_subscribers() {
            return;
        }
        let event = TelemetryEvent {
            seq: self.inner.seq.fetch_add(1, Ordering::SeqCst) + 1,
            at_nanos,
            run,
            kind,
        };
        let subs = lock(&self.inner.subscribers);
        for sub in subs.iter() {
            if sub.run != run {
                continue;
            }
            let mut queue = lock(&sub.queue);
            if queue.events.len() >= sub.capacity {
                queue.events.pop_front();
                queue.dropped += 1;
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            queue.events.push_back(event.clone());
            drop(queue);
            sub.ready.notify_one();
        }
    }
}

/// One subscriber's handle: a bounded ring the bus pushes into. Dropping
/// it detaches from the bus (restoring the zero-overhead fast path when it
/// was the last one).
#[derive(Debug)]
pub struct Subscription {
    shared: Arc<SubShared>,
    bus: Arc<BusInner>,
}

impl Subscription {
    /// Pops the oldest buffered event without waiting.
    pub fn try_recv(&self) -> Option<TelemetryEvent> {
        lock(&self.shared.queue).events.pop_front()
    }

    /// Pops the oldest buffered event, waiting up to `timeout` for one to
    /// arrive. `None` on timeout (or after [`Subscription::close`] with an
    /// empty ring).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TelemetryEvent> {
        let end = Instant::now() + timeout;
        let mut queue = lock(&self.shared.queue);
        loop {
            if let Some(event) = queue.events.pop_front() {
                return Some(event);
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                return None;
            }
            let now = Instant::now();
            if now >= end {
                return None;
            }
            queue = self
                .shared
                .ready
                .wait_timeout(queue, end - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Events this subscription lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        lock(&self.shared.queue).dropped
    }

    /// Marks the subscription closed and wakes any blocked
    /// [`Subscription::recv_timeout`] — lets an owner on another thread
    /// tell the consumer to wind down without waiting out its timeout.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.close();
        let mut subs = lock(&self.bus.subscribers);
        subs.retain(|s| !Arc::ptr_eq(s, &self.shared));
        self.bus.active.store(subs.len(), Ordering::Relaxed);
    }
}

static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_RUN: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh process-unique run id (never 0).
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// The run id installed on this thread by the innermost live
/// [`RunScope`], or 0 outside any scope.
pub fn current_run_id() -> u64 {
    CURRENT_RUN.with(Cell::get)
}

/// Thread-local run attribution guard: while alive, spans opened and
/// events published from this thread carry the given run id. Scopes nest;
/// dropping restores the previous id. Work handed to another thread must
/// re-enter the scope there.
#[derive(Debug)]
pub struct RunScope {
    prev: u64,
}

impl RunScope {
    /// Installs `run` as this thread's current run id until the guard
    /// drops.
    pub fn enter(run: u64) -> RunScope {
        let prev = CURRENT_RUN.with(|cell| cell.replace(run));
        RunScope { prev }
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        CURRENT_RUN.with(|cell| cell.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(completed: u64) -> EventKind {
        EventKind::Progress {
            completed,
            total: 100,
            outcome: JobOutcome::Simulated,
            campaign_nanos: 0,
        }
    }

    #[test]
    fn events_arrive_in_publication_order_with_monotonic_seq() {
        let bus = EventBus::new();
        let sub = bus.subscribe_run(16, 7);
        for i in 0..5 {
            bus.publish(7, i * 10, progress(i + 1));
        }
        let mut last_seq = 0;
        for i in 0..5u64 {
            let event = sub.try_recv().expect("event buffered");
            assert!(event.seq > last_seq, "seq must strictly increase");
            last_seq = event.seq;
            assert_eq!(event.run, 7);
            assert_eq!(event.at_nanos, i * 10);
            assert_eq!(event.kind, progress(i + 1));
        }
        assert!(sub.try_recv().is_none());
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let bus = EventBus::new();
        let sub = bus.subscribe_run(3, 1);
        for i in 1..=10u64 {
            bus.publish(1, i, progress(i));
        }
        assert_eq!(sub.dropped(), 7);
        assert_eq!(bus.dropped(), 7);
        // The survivors are the *newest* three, still in order.
        let kept: Vec<u64> = std::iter::from_fn(|| sub.try_recv())
            .map(|e| e.at_nanos)
            .collect();
        assert_eq!(kept, vec![8, 9, 10]);
    }

    #[test]
    fn no_subscriber_means_no_sequence_movement() {
        let bus = EventBus::new();
        assert!(!bus.has_subscribers());
        bus.publish(1, 0, progress(1));
        // The fast path bailed before allocating a sequence number.
        assert_eq!(bus.inner.seq.load(Ordering::SeqCst), 0);
        let sub = bus.subscribe_run(4, 1);
        assert!(bus.has_subscribers());
        bus.publish(1, 0, progress(2));
        assert_eq!(sub.try_recv().unwrap().seq, 1);
        drop(sub);
        assert!(!bus.has_subscribers(), "drop detaches");
    }

    #[test]
    fn run_filter_delivers_only_matching_events() {
        let bus = EventBus::new();
        let two = bus.subscribe_run(16, 2);
        let three = bus.subscribe_run(16, 3);
        bus.publish(1, 0, EventKind::PhaseEnter { name: "a" });
        bus.publish(2, 0, EventKind::PhaseEnter { name: "b" });
        bus.publish(3, 0, EventKind::PhaseEnter { name: "c" });
        bus.publish(2, 0, EventKind::PhaseEnter { name: "d" });
        let names = |sub: &Subscription| -> Vec<&str> {
            std::iter::from_fn(|| sub.try_recv())
                .map(|e| match e.kind {
                    EventKind::PhaseEnter { name } => name,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert_eq!(names(&two), vec!["b", "d"]);
        assert_eq!(names(&three), vec!["c"]);
    }

    #[test]
    fn recv_timeout_wakes_on_publish_and_on_close() {
        let bus = EventBus::new();
        let sub = Arc::new(bus.subscribe_run(4, 9));
        let waiter = Arc::clone(&sub);
        let handle = std::thread::spawn(move || waiter.recv_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        bus.publish(9, 1, progress(1));
        let got = handle.join().expect("waiter thread");
        assert_eq!(got.expect("event delivered").run, 9);

        let waiter = Arc::clone(&sub);
        let handle = std::thread::spawn(move || waiter.recv_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        sub.close();
        assert!(handle.join().expect("waiter thread").is_none());
    }

    #[test]
    fn run_scopes_nest_and_restore() {
        assert_eq!(current_run_id(), 0);
        let outer = RunScope::enter(5);
        assert_eq!(current_run_id(), 5);
        {
            let _inner = RunScope::enter(6);
            assert_eq!(current_run_id(), 6);
        }
        assert_eq!(current_run_id(), 5);
        drop(outer);
        assert_eq!(current_run_id(), 0);
    }

    #[test]
    fn run_ids_are_unique_and_nonzero() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn json_form_is_versioned_and_deterministic() {
        let event = TelemetryEvent {
            seq: 3,
            at_nanos: 42,
            run: 7,
            kind: EventKind::PhaseEnter {
                name: "engine.simulate",
            },
        };
        assert_eq!(
            event.to_json(),
            "{\"schema\":1,\"seq\":3,\"at_ns\":42,\"run\":7,\
             \"event\":\"phase_enter\",\"name\":\"engine.simulate\"}"
        );
        let end = TelemetryEvent {
            seq: 4,
            at_nanos: 99,
            run: 7,
            kind: EventKind::Progress {
                completed: 2,
                total: 8,
                outcome: JobOutcome::Disk,
                campaign_nanos: 500,
            },
        };
        let json = end.to_json();
        assert!(json.contains("\"event\":\"progress\""), "{json}");
        assert!(json.contains("\"completed\":2"), "{json}");
        assert!(json.contains("\"outcome\":\"disk\""), "{json}");
        assert!(json.contains("\"campaign_ns\":500"), "{json}");
    }

    #[test]
    fn eta_scales_the_campaigns_own_elapsed_time() {
        let at = |completed, total, campaign_nanos| EventKind::Progress {
            completed,
            total,
            outcome: JobOutcome::Memo,
            campaign_nanos,
        };
        // A quarter done in 100 ns: three quarters left at the same rate.
        assert_eq!(at(1, 4, 100).eta_nanos(), Some(300));
        assert_eq!(at(3, 4, 300).eta_nanos(), Some(100));
        assert_eq!(at(4, 4, 400).eta_nanos(), None, "nothing left");
        assert_eq!(at(0, 4, 0).eta_nanos(), None, "no rate yet");
        let phase = EventKind::PhaseEnter { name: "p" };
        assert_eq!(phase.eta_nanos(), None);
    }

    #[test]
    fn slow_subscriber_never_blocks_publisher() {
        // A subscriber that never reads: 10k publishes must complete
        // promptly (bounded ring, drop-oldest), not wedge the hot path.
        let bus = EventBus::new();
        let sub = bus.subscribe_run(8, 1);
        let start = Instant::now();
        for i in 0..10_000u64 {
            bus.publish(1, i, progress(i + 1));
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "publishing into a stuck subscriber must stay O(1) per event"
        );
        assert_eq!(sub.dropped(), 10_000 - 8);
    }
}
