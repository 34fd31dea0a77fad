//! `repro serve` — a persistent characterization daemon.
//!
//! Batch mode pays the full simulation bill on every invocation; the
//! daemon keeps one warm [`Engine`] (memo table + optional disk cache) and
//! one global [`Recorder`] alive across requests, so repeated
//! characterization queries are served from cache at interactive latency —
//! characterization-as-a-service over the experiment [`REGISTRY`].
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + warm-cache size |
//! | `GET /experiments` | the experiment registry as JSON |
//! | `POST /run/{experiment}[?format=json\|text]` | run one experiment; JSON body for window/jobs/quick options |
//! | `POST /run/{experiment}?stream=events` | same run, but streamed: live SSE progress events, terminated by the structured report |
//! | `GET /events[?limit=N]` | firehose: every live telemetry event on the daemon, as SSE |
//! | `GET /metrics` | live Prometheus text exposition of the shared recorder |
//! | `POST /cache/gc` | LRU-prune the on-disk cache and trace store ([`horizon_engine::GcReport`] JSON; `max_entries` / `max_trace_bytes` body options) |
//! | `GET /peer/health` | cluster liveness view: load, queue depth, memo/trace-store sizes (polled by a [`crate::cluster`] router) |
//! | `GET /peer/trace/{key}` | a packed trace's raw bytes by content address, for sibling cache peering |
//!
//! # Reports
//!
//! The default `POST /run` response carries a **schema-versioned
//! structured report** ([`horizon_core::report_v1::ReportV1`]) under
//! `report`: tables, subsets, error statistics and notes parsed from the
//! rendered text, plus engine cache-effectiveness deltas alongside.
//! `?format=text` instead returns `text/plain` **byte-identical** to the
//! experiment's batch `repro <experiment>` stdout (report text plus
//! trailing newline): both paths call [`crate::run_experiment`] with the same
//! [`ReproConfig`], engine results are bit-identical regardless of worker
//! count or cache state, and the structured view is *derived from* that
//! same text, so the two formats can never disagree.
//!
//! # Live streaming
//!
//! `?stream=events` upgrades a run request to a chunked
//! `text/event-stream`: a `start` event (run id, coalescing, an ETA hint
//! from [`Experiment::weight`](crate::Experiment) scaled by observed
//! cost), then live `phase_enter`/`phase_exit`, `progress` (jobs
//! done/total, memo + trace-store hit counts, elapsed-based ETA) and
//! `counter` events filtered to exactly this run off the recorder's
//! [`horizon_telemetry::EventBus`], and finally one `report` event whose
//! payload is **byte-equivalent** to the non-streaming JSON response
//! (modulo the measured `wall_ms`). Streaming is observation only — the
//! run itself and its report bytes are identical with or without it.
//! `GET /events` is the unfiltered counterpart: every event the daemon's
//! recorder publishes, for dashboards; `?limit=N` closes after N events.
//! Stream connections always close when done (`Connection: close`).
//!
//! # Run scheduling
//!
//! Connection workers never execute experiments; they submit to the
//! crate-private `sched` run scheduler and wait under the request's
//! deadline.
//! Identical in-flight requests (same experiment + campaign options)
//! coalesce onto a single execution whose result answers every waiter —
//! counted by `serve.coalesced_runs` — while distinct runs queue to a
//! dedicated run-worker pool in largest-estimated-cost-first order
//! (`serve.active_runs` gauges the executing ones).
//!
//! # Robustness
//!
//! * **Keep-alive, bounded** — connections are reused per HTTP/1.1
//!   semantics (`Connection: close` honored, HTTP/1.0 opt-in), but each
//!   is bounded by `max_requests_per_connection` and an `idle_timeout`
//!   between requests, so no client can pin a worker forever.
//! * **Bounded worker pool** — `workers` threads consume accepted
//!   connections from a queue capped at `queue_cap`; past the cap the
//!   accept loop answers `503` with `Retry-After` *inline*, so saturation
//!   never kills in-flight work and never blocks the accept thread on a
//!   slow handler.
//! * **Deadlines** — socket reads/writes carry an I/O timeout; each
//!   request waits for its run under a per-request deadline
//!   (`deadline_ms` in the body, else the server default). A waiter that
//!   overshoots answers `504` and detaches cleanly: the run finishes on
//!   the scheduler, co-waiters on the same run still get their results,
//!   and the shared engine cache stays warm so a retry is cheap.
//! * **Hardened parsing** — see [`crate::http`]: malformed requests map to
//!   4xx responses, never a panic; a panicking handler poisons nothing
//!   because workers catch unwinds and answer `500` (a panicking *run* is
//!   caught on the run worker and answered as a clean `500` to every
//!   waiter).
//! * **Graceful shutdown** — `SIGTERM`/`SIGINT` (or
//!   [`Server::shutdown_handle`]) stop the accept loop, drain queued and
//!   in-flight requests (connection pool first, so waiters can still be
//!   answered by live run workers), then drain the run scheduler up to
//!   the drain deadline, and return so the caller can flush telemetry
//!   sinks and exit 0.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use horizon_core::campaign::SamplingPolicy;
use horizon_core::report_v1::ReportV1;
use horizon_engine::Engine;
use horizon_simpoint::SimPointConfig;
use horizon_telemetry::{EventKind, Recorder, TelemetryEvent, DEFAULT_SUBSCRIBER_CAPACITY};

use serde::Value;

use crate::http::{read_request, ChunkedWriter, HttpError, Limits, Request, Response};
use crate::sched::{RunKey, RunOutput, RunScheduler};
use crate::{find_experiment, Experiment, ReproConfig, REGISTRY};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Maximum connections queued beyond the busy workers; excess gets an
    /// inline `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Default per-run deadline (a request body's `deadline_ms` overrides
    /// it); overshooting runs answer `504` and detach.
    pub request_timeout: Duration,
    /// Socket read/write timeout for request parsing and response writes.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (the last response says `Connection: close`); bounds how long a
    /// single client can monopolize a worker.
    pub max_requests_per_connection: usize,
    /// How long shutdown waits for detached (timed-out) runs to finish.
    pub drain_timeout: Duration,
    /// Request parsing limits.
    pub limits: Limits,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8),
            queue_cap: 64,
            request_timeout: Duration::from_secs(600),
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 100,
            drain_timeout: Duration::from_secs(30),
            limits: Limits::default(),
        }
    }
}

/// Unix signal plumbing: a handler that flips one atomic flag, the only
/// async-signal-safe thing worth doing. The watcher of
/// [`accept_until_shutdown`] polls the flag, so the cluster router shares
/// the same shutdown discipline.
#[cfg(unix)]
mod signal {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes `SIGTERM` and `SIGINT` into the shutdown flag.
    pub fn install() {
        // SAFETY: `signal` is installed with a handler that only performs
        // an atomic store, which is async-signal-safe; the handler pointer
        // outlives the process.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    /// Non-unix builds have no signal-driven shutdown; use
    /// [`super::Server::shutdown_handle`].
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// How often the shutdown watcher of [`accept_until_shutdown`] checks the
/// flags (and, once stopping, re-pokes the listener until it has exited).
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// The accept loop shared by the daemon and the cluster router: hands
/// each accepted connection, with `TCP_NODELAY` set, to `dispatch` until
/// `shutdown` is set or `SIGTERM`/`SIGINT` arrives, then returns.
///
/// The acceptor blocks in `accept`, so a connection is picked up the
/// moment it arrives rather than on the next tick of a poll. A watcher
/// thread checks the flags instead; once either is set it wakes the
/// acceptor by connecting to the listener's own address, and keeps doing
/// so until the acceptor has returned. Connections accepted after that
/// point (the wake-up itself included) are closed unserved.
pub(crate) fn accept_until_shutdown(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut dispatch: impl FnMut(TcpStream),
) {
    signal::install();
    let stopping = || shutdown.load(Ordering::SeqCst) || signal::requested();
    let wake = listener.local_addr().map(|mut addr| {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        addr
    });
    let returned = AtomicBool::new(false);
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("accept-watcher".into())
            .spawn_scoped(scope, || {
                while !returned.load(Ordering::SeqCst) {
                    if stopping() {
                        if let Ok(addr) = &wake {
                            let _ = TcpStream::connect_timeout(addr, SHUTDOWN_POLL);
                        }
                    }
                    std::thread::sleep(SHUTDOWN_POLL);
                }
            })
            .expect("spawn accept watcher");
        loop {
            let accepted = listener.accept();
            if stopping() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    dispatch(stream);
                }
                // Transient accept failures (e.g. EMFILE, aborted
                // handshakes) must not kill the daemon, nor spin it.
                Err(_) => std::thread::sleep(SHUTDOWN_POLL),
            }
        }
        returned.store(true, Ordering::SeqCst);
    });
}

/// Error returned by [`Pool::try_submit`] when the queue is at capacity;
/// carries the rejected item back so the caller can answer `503` on it.
pub(crate) struct Saturated<T>(pub(crate) T);

struct PoolShared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    cap: usize,
    stop: AtomicBool,
}

/// A fixed-size worker pool over a bounded FIFO queue of `T`, each item
/// handled by one shared handler function. Shutdown is draining: workers
/// finish every queued item before exiting. Crate-visible: the cluster
/// router reuses it for its own connection handling.
pub(crate) struct Pool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    pub(crate) fn new(
        workers: usize,
        cap: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> Pool<T> {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap: cap.max(1),
            stop: AtomicBool::new(false),
        });
        let handler = Arc::new(handler);
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        let item = {
                            let mut queue = shared.queue.lock().expect("pool queue");
                            loop {
                                if let Some(item) = queue.pop_front() {
                                    break Some(item);
                                }
                                if shared.stop.load(Ordering::SeqCst) {
                                    break None;
                                }
                                queue = shared.ready.wait(queue).expect("pool queue");
                            }
                        };
                        match item {
                            // A panicking handler must not take the worker
                            // (or the process) down with it.
                            Some(item) => {
                                let _ =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        handler(item)
                                    }));
                            }
                            None => break,
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Enqueues `item` unless the queue is at capacity.
    pub(crate) fn try_submit(&self, item: T) -> Result<(), Saturated<T>> {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            if queue.len() >= self.shared.cap {
                return Err(Saturated(item));
            }
            queue.push_back(item);
        }
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Queued (not yet claimed) items.
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.shared.queue.lock().expect("pool queue").len()
    }

    /// Drains the queue and joins every worker.
    pub(crate) fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// State shared between the accept loop, connection workers and the run
/// scheduler.
struct ServerState {
    engine: Arc<Engine>,
    recorder: Arc<Recorder>,
    opts: ServeOptions,
    started: Instant,
    /// Executes and coalesces `POST /run` requests; shutdown drains it
    /// after the connection pool.
    sched: RunScheduler,
    /// Connections accepted but not yet claimed by a worker — gauged in
    /// `/healthz` and `/metrics` so saturation is visible before 503s.
    queue_depth: AtomicUsize,
    /// Mirror of [`Server::shutdown_handle`] (and the signal flag), so
    /// long-lived event streams notice shutdown and terminate cleanly.
    shutdown: Arc<AtomicBool>,
    /// ETA cost model: observed execution nanoseconds per unit of
    /// estimated run cost (`Experiment::weight` × campaign window),
    /// fixed-point ×1000, EWMA-updated after each completed run. Zero
    /// until the first run completes — no ETA hint before that.
    nanos_per_cost_x1000: AtomicU64,
}

impl ServerState {
    /// Folds a completed run into the ETA cost model.
    fn observe_run_cost(&self, cost: u64, wall_ms: u128) {
        if cost == 0 {
            return;
        }
        let measured = (wall_ms as u64)
            .saturating_mul(1_000_000)
            .saturating_mul(1000)
            / cost;
        let old = self.nanos_per_cost_x1000.load(Ordering::Relaxed);
        let next = if old == 0 {
            measured
        } else {
            // Light EWMA: history dominates, one outlier can't swing it.
            (old.saturating_mul(3).saturating_add(measured)) / 4
        };
        self.nanos_per_cost_x1000.store(next, Ordering::Relaxed);
    }

    /// ETA hint in milliseconds for a run of estimated `cost`, or `None`
    /// before the model has seen any run.
    fn eta_hint_ms(&self, cost: u64) -> Option<u64> {
        let rate = self.nanos_per_cost_x1000.load(Ordering::Relaxed);
        (rate != 0).then(|| cost.saturating_mul(rate) / 1000 / 1_000_000)
    }
}

/// The daemon: a bound listener plus its worker pool. Construct with
/// [`Server::bind`], then [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    pool: Pool<TcpStream>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. `engine` and
    /// `recorder` are the long-lived shared instances — the same engine
    /// memo serves every request, which is the point of daemon mode.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, bad syntax).
    pub fn bind(
        opts: ServeOptions,
        engine: Arc<Engine>,
        recorder: Arc<Recorder>,
        default_jobs: Option<usize>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let sched = RunScheduler::new(
            opts.workers,
            Arc::clone(&engine),
            Arc::clone(&recorder),
            default_jobs,
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(ServerState {
            engine,
            recorder,
            opts,
            started: Instant::now(),
            sched,
            queue_depth: AtomicUsize::new(0),
            shutdown: Arc::clone(&shutdown),
            nanos_per_cost_x1000: AtomicU64::new(0),
        });
        let handler_state = Arc::clone(&state);
        let pool = Pool::new(
            state.opts.workers,
            state.opts.queue_cap,
            move |stream: TcpStream| {
                // Claimed: the connection leaves the accept queue now.
                handler_state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                handle_connection(&handler_state, stream)
            },
        );
        Ok(Server {
            listener,
            local_addr,
            state,
            pool,
            shutdown,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A flag that stops the accept loop when set — the programmatic
    /// equivalent of `SIGTERM`, used by tests and embedders.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Installs `SIGTERM`/`SIGINT` handlers and serves until one fires (or
    /// the [`Server::shutdown_handle`] flag is set), then drains: queued
    /// and in-flight requests complete, the run scheduler gets up to the
    /// drain timeout, and the method returns `Ok(())` for a clean exit.
    ///
    /// # Errors
    ///
    /// Returns an I/O error only for unrecoverable listener failures;
    /// per-connection errors are answered with 4xx/5xx responses instead.
    pub fn run(self) -> std::io::Result<()> {
        accept_until_shutdown(&self.listener, &self.shutdown, |stream| {
            self.dispatch(stream)
        });
        drop(self.listener); // stop accepting before draining
                             // Connection pool first: its workers may be waiting on run slots,
                             // and the run workers (still alive here) are what answer them.
        self.pool.shutdown();
        self.state.sched.shutdown(self.state.opts.drain_timeout);
        Ok(())
    }

    /// Hands an accepted connection to the pool, or answers `503` inline
    /// when saturated (cheap enough for the accept thread: one small
    /// write under a write timeout).
    fn dispatch(&self, stream: TcpStream) {
        // Count before the push: a worker can claim (and decrement) the
        // instant the item lands, so incrementing afterwards could strand
        // the gauge above zero forever.
        self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
        if let Err(Saturated(stream)) = self.pool.try_submit(stream) {
            self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            reject_saturated(&self.state, stream);
        }
    }
}

/// Serves one connection: parse, route, respond — repeatedly, while the
/// client keeps the connection alive — recording telemetry per request.
/// The loop ends when the client asks to close (or is HTTP/1.0), the
/// per-connection request cap is reached, an error is answered, the idle
/// timeout expires between requests, or a response write fails.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let rec = &state.recorder;
    let _ = stream.set_write_timeout(Some(state.opts.io_timeout));
    let mut reader = BufReader::new(stream);
    let cap = state.opts.max_requests_per_connection.max(1);
    let mut served = 0usize;

    while served < cap {
        // The first request gets the normal I/O timeout; once kept alive,
        // the connection may wait only the idle timeout for the next one.
        let wait = if served == 0 {
            state.opts.io_timeout
        } else {
            state.opts.idle_timeout
        };
        let _ = reader.get_ref().set_read_timeout(Some(wait));
        let started = Instant::now();
        let parsed = read_request(&mut reader, &state.opts.limits);
        if let Err(e) = &parsed {
            if served > 0 && e.is_idle_disconnect() {
                // The client finished with the connection; nothing to
                // answer and nothing abnormal to count.
                break;
            }
        }
        rec.counter_add("serve.requests", 1);
        if served > 0 {
            rec.counter_add("serve.keepalive_reuses", 1);
        }
        let mut span = rec.span("serve.request");
        let mut label: &'static str = "unparsed";
        let (response, keep) = match parsed {
            Ok(request) => {
                span.record("method", request.method.as_str());
                span.record("path", request.path.as_str());
                label = route_label(&request);
                let keep = request.keep_alive && served + 1 < cap;
                match stream_kind(&request) {
                    // Streaming handlers own the socket from here: they
                    // write a chunked response themselves and the
                    // connection always closes afterwards (the stream has
                    // no framed length to resynchronize keep-alive on).
                    Some(kind) => match serve_stream(state, kind, &request, reader.get_mut()) {
                        StreamOutcome::Streamed(status) => {
                            span.record("status", u64::from(status));
                            span.record("streamed", true);
                            match status / 100 {
                                2 => rec.counter_add("serve.http_2xx", 1),
                                4 => rec.counter_add("serve.http_4xx", 1),
                                _ => rec.counter_add("serve.http_5xx", 1),
                            }
                            finish_request_telemetry(state, label, started);
                            return;
                        }
                        StreamOutcome::Plain(response) => (response, keep),
                    },
                    None => (route(state, &request), keep),
                }
            }
            Err(e) => {
                rec.counter_add("serve.bad_requests", 1);
                span.record("path", "<unparsed>");
                // A connection that produced garbage is not worth reusing.
                (Response::error(e.status, &e.message), false)
            }
        };
        span.record("status", u64::from(response.status));
        match response.status / 100 {
            2 => rec.counter_add("serve.http_2xx", 1),
            4 => rec.counter_add("serve.http_4xx", 1),
            _ => rec.counter_add("serve.http_5xx", 1),
        }
        finish_request_telemetry(state, label, started);
        if response.write_to(reader.get_mut(), keep).is_err() {
            rec.counter_add("serve.write_failures", 1);
            break;
        }
        if !keep {
            break;
        }
        served += 1;
    }
}

/// Writes the saturation response on the accept thread.
fn reject_saturated(state: &ServerState, mut stream: TcpStream) {
    state.recorder.counter_add("serve.saturated", 1);
    state.recorder.counter_add("serve.http_5xx", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = Response::error(503, "request queue is full")
        .with_header("Retry-After", "1")
        .write_to(&mut stream, false);
    // Drain whatever request bytes the client already sent before closing.
    // Closing with unread input makes the kernel answer with RST, which can
    // discard the 503 before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Per-request telemetry common to framed and streamed responses: the
/// overall wall histogram, the per-route labeled wall histogram, and a
/// sample of the accept-queue depth gauge.
fn finish_request_telemetry(state: &ServerState, label: &'static str, started: Instant) {
    let rec = &state.recorder;
    rec.histogram_record("serve.request_wall_ns", started.elapsed().as_nanos() as u64);
    rec.histogram_record_labeled(
        "serve.request_wall_ms",
        "route",
        label,
        started.elapsed().as_millis() as u64,
    );
    rec.gauge_set(
        "serve.queue_depth",
        state.queue_depth.load(Ordering::SeqCst) as i64,
    );
}

/// Static route label for the `serve.request_wall_ms{route=…}` histogram
/// family — one series per endpoint, never per path (unbounded label
/// cardinality is how metrics stores die).
fn route_label(request: &Request) -> &'static str {
    let path = request.path.split('?').next().unwrap_or("");
    match path {
        "/healthz" => "healthz",
        "/experiments" => "experiments",
        "/metrics" => "metrics",
        "/cache/gc" => "cache_gc",
        "/events" => "events",
        "/peer/health" => "peer_health",
        _ if path.starts_with("/peer/trace/") => "peer_trace",
        _ if path.starts_with("/run/") => "run",
        _ => "other",
    }
}

/// A request that must be answered as a live event stream rather than a
/// framed response.
enum StreamKind<'a> {
    /// `POST /run/{experiment}?stream=…` — one run's progress.
    Run(&'a str),
    /// `GET /events` — the unfiltered daemon-wide event firehose.
    Firehose,
}

/// Detects stream requests before normal routing. Returns `None` for
/// everything the framed [`route`] table should handle.
fn stream_kind(request: &Request) -> Option<StreamKind<'_>> {
    let path = request.path.split('?').next().unwrap_or("");
    if request.method == "GET" && path == "/events" {
        return Some(StreamKind::Firehose);
    }
    if request.method == "POST"
        && path.starts_with("/run/")
        && request.query_param("stream").is_some()
    {
        return Some(StreamKind::Run(&path["/run/".len()..]));
    }
    None
}

/// What a streaming handler did with the socket.
enum StreamOutcome {
    /// The handler wrote a chunked response head (status recorded here);
    /// the connection must close — there is no framed boundary to reuse.
    Streamed(u16),
    /// Pre-stream validation failed before any byte hit the wire; answer
    /// as a normal framed response (keep-alive still possible).
    Plain(Response),
}

/// Dispatches a detected stream request.
fn serve_stream(
    state: &Arc<ServerState>,
    kind: StreamKind<'_>,
    request: &Request,
    out: &mut TcpStream,
) -> StreamOutcome {
    match kind {
        StreamKind::Run(name) => run_stream(state, name, request, out),
        StreamKind::Firehose => firehose(state, request, out),
    }
}

/// One SSE frame: `event: <name>` + `data: <json>` + blank line.
pub(crate) fn sse_frame(event: &str, data: &str) -> String {
    format!("event: {event}\ndata: {data}\n\n")
}

/// Routes a parsed request to its endpoint handler.
fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/experiments") => experiments(),
        ("GET", "/metrics") => Response::text(200, state.recorder.prometheus_text()),
        ("GET", "/peer/health") => peer_health(state),
        ("GET", trace_path) if trace_path.starts_with("/peer/trace/") => {
            peer_trace(state, &trace_path["/peer/trace/".len()..])
        }
        ("POST", "/cache/gc") => cache_gc(state, request),
        ("POST", run_path) if run_path.starts_with("/run/") => {
            run(state, &run_path["/run/".len()..], request)
        }
        // `GET /events` never reaches this table — `stream_kind`
        // intercepts it — so any `/events` seen here is a bad method.
        (_, "/healthz" | "/experiments" | "/metrics" | "/events" | "/peer/health") => {
            Response::error(405, "method not allowed").with_header("Allow", "GET")
        }
        (_, trace_path) if trace_path.starts_with("/peer/trace/") => {
            Response::error(405, "method not allowed").with_header("Allow", "GET")
        }
        (_, "/cache/gc") => Response::error(405, "method not allowed").with_header("Allow", "POST"),
        (_, run_path) if run_path.starts_with("/run/") => {
            Response::error(405, "method not allowed").with_header("Allow", "POST")
        }
        _ => Response::error(404, &format!("no such endpoint '{path}'")),
    }
}

pub(crate) fn json_str(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub(crate) fn json_num(n: impl std::fmt::Display) -> Value {
    Value::Num(n.to_string())
}

pub(crate) fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("value tree serializes")
}

/// `GET /healthz`: liveness, uptime, and the warm-cache size that makes
/// daemon mode worth running.
fn healthz(state: &ServerState) -> Response {
    let body = Value::Map(vec![
        ("status".into(), json_str("ok")),
        (
            "uptime_ms".into(),
            json_num(state.started.elapsed().as_millis()),
        ),
        ("experiments".into(), json_num(REGISTRY.len())),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
        ("workers".into(), json_num(state.opts.workers)),
        ("queue_cap".into(), json_num(state.opts.queue_cap)),
        ("runs_pending".into(), json_num(state.sched.pending())),
        (
            "engine_inflight_waiting".into(),
            json_num(state.engine.inflight_waiting()),
        ),
        (
            "queue_depth".into(),
            json_num(state.queue_depth.load(Ordering::SeqCst)),
        ),
        (
            "event_subscribers".into(),
            json_num(state.recorder.bus().subscriber_count()),
        ),
    ]);
    Response::json(200, to_json(&body))
}

/// `GET /peer/health`: the compact liveness view a cluster router polls —
/// current load (queued + executing runs), accept-queue depth, and warm
/// cache sizes, so routing and failover decisions can weigh how hot this
/// node is for its keys.
fn peer_health(state: &ServerState) -> Response {
    let (trace_entries, trace_bytes) = state
        .engine
        .trace_store()
        .and_then(|store| store.index().ok())
        .map(|index| {
            let bytes: u64 = index.iter().map(|e| e.bytes).sum();
            (index.len() as u64, bytes)
        })
        .unwrap_or((0, 0));
    let body = Value::Map(vec![
        ("role".into(), json_str("worker")),
        ("load".into(), json_num(state.sched.pending())),
        (
            "queue_depth".into(),
            json_num(state.queue_depth.load(Ordering::SeqCst)),
        ),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
        ("trace_entries".into(), json_num(trace_entries)),
        ("trace_bytes".into(), json_num(trace_bytes)),
        (
            "uptime_ms".into(),
            json_num(state.started.elapsed().as_millis()),
        ),
    ]);
    Response::json(200, to_json(&body))
}

/// `GET /peer/trace/{key}`: a packed trace's raw, pre-validated bytes by
/// content address — the cache-peering read path a sibling worker hits on
/// a trace-store miss before regenerating. The key must be a well-formed
/// 32-hex-digit digest (anything else is 404, and never touches the
/// filesystem); a daemon without a trace store has nothing to share.
fn peer_trace(state: &ServerState, raw_key: &str) -> Response {
    let Some(key) = horizon_engine::TraceKey::from_digest(raw_key) else {
        return Response::error(404, "malformed trace key");
    };
    let Some(store) = state.engine.trace_store() else {
        return Response::error(404, "no trace store configured for this daemon");
    };
    match store.load_bytes(&key) {
        Some(bytes) => {
            state
                .recorder
                .counter_add("tracestore.peer_served_bytes", bytes.len() as u64);
            state.recorder.counter_add("tracestore.peer_served", 1);
            Response::bytes(200, bytes)
        }
        None => Response::error(404, &format!("no trace stored under '{raw_key}'")),
    }
}

/// `GET /experiments`: the registry as JSON. Crate-visible: the cluster
/// router serves the identical document without a proxy hop.
pub(crate) fn experiments() -> Response {
    let list: Vec<Value> = REGISTRY
        .iter()
        .map(|e| {
            Value::Map(vec![
                ("id".into(), json_str(e.id)),
                (
                    "aliases".into(),
                    Value::Seq(e.aliases.iter().map(|a| json_str(a)).collect()),
                ),
                ("summary".into(), json_str(e.summary)),
            ])
        })
        .collect();
    Response::json(200, to_json(&Value::Seq(list)))
}

/// `POST /cache/gc`: LRU-prune the daemon's disk cache and trace store.
fn cache_gc(state: &ServerState, request: &Request) -> Response {
    let (cache, traces) = (state.engine.cache(), state.engine.trace_store());
    if cache.is_none() && traces.is_none() {
        return Response::error(409, "no --cache-dir configured for this daemon");
    }
    let opts = match parse_gc_options(request) {
        Ok(opts) => opts,
        Err(e) => return Response::error(e.status, &e.message),
    };
    let mut report = horizon_engine::GcReport::default();
    if let Some(cache) = cache {
        report = match cache.gc(opts.max_entries) {
            Ok(report) => report,
            Err(e) => return Response::error(500, &format!("cache gc failed: {e}")),
        };
    }
    if let Some(store) = traces {
        match store.gc(opts.max_trace_bytes) {
            Ok(trace) => report.absorb_trace(&trace),
            Err(e) => return Response::error(500, &format!("trace gc failed: {e}")),
        }
    }
    match serde_json::to_string(&report) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("cannot serialize gc report: {e}")),
    }
}

struct GcOptions {
    max_entries: usize,
    max_trace_bytes: u64,
}

impl Default for GcOptions {
    fn default() -> Self {
        GcOptions {
            max_entries: 1024,
            // Mirrors the CLI's `cache-gc --max-trace-bytes` default.
            max_trace_bytes: 256 << 20,
        }
    }
}

fn parse_gc_options(request: &Request) -> Result<GcOptions, HttpError> {
    let mut opts = GcOptions::default();
    if request.body.is_empty() {
        return Ok(opts);
    }
    let value: Value = serde_json::from_str(request.body_str()?)
        .map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))?;
    let Value::Map(entries) = value else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    for (key, value) in &entries {
        match key.as_str() {
            "max_entries" => {
                opts.max_entries = parse_u64(value, "max_entries")? as usize;
            }
            "max_trace_bytes" => {
                opts.max_trace_bytes = parse_u64(value, "max_trace_bytes")?;
            }
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
        }
    }
    Ok(opts)
}

/// Per-request run options, mirroring the batch CLI flags.
pub(crate) struct RunOptions {
    pub(crate) quick: bool,
    pub(crate) instructions: Option<u64>,
    pub(crate) warmup: Option<u64>,
    pub(crate) seed: Option<u64>,
    pub(crate) jobs: Option<usize>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) sampling: Option<SamplingPolicy>,
}

fn parse_u64(value: &Value, key: &str) -> Result<u64, HttpError> {
    use serde::Deserialize;
    u64::from_value(value).map_err(|e| HttpError::new(400, format!("option '{key}': {e}")))
}

/// Parses the `POST /run/...` JSON body; unknown keys are rejected so
/// typos fail loudly instead of silently running the wrong config.
fn parse_run_options(request: &Request) -> Result<RunOptions, HttpError> {
    use serde::Deserialize;
    let mut opts = RunOptions {
        quick: false,
        instructions: None,
        warmup: None,
        seed: None,
        jobs: None,
        deadline: None,
        sampling: None,
    };
    if request.body.is_empty() {
        return Ok(opts);
    }
    let mut sampling_mode: Option<String> = None;
    let mut sampling_interval: Option<u64> = None;
    let mut sampling_max_phases: Option<u64> = None;
    let value: Value = serde_json::from_str(request.body_str()?)
        .map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))?;
    let Value::Map(entries) = value else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    for (key, value) in &entries {
        match key.as_str() {
            "quick" => {
                opts.quick = bool::from_value(value)
                    .map_err(|e| HttpError::new(400, format!("option 'quick': {e}")))?;
            }
            "instructions" => {
                let n = parse_u64(value, "instructions")?;
                if n == 0 {
                    return Err(HttpError::new(
                        400,
                        "option 'instructions' must be positive",
                    ));
                }
                opts.instructions = Some(n);
            }
            "warmup" => opts.warmup = Some(parse_u64(value, "warmup")?),
            "seed" => opts.seed = Some(parse_u64(value, "seed")?),
            "jobs" => {
                let n = parse_u64(value, "jobs")?;
                if n == 0 {
                    return Err(HttpError::new(400, "option 'jobs' must be positive"));
                }
                opts.jobs = Some(n as usize);
            }
            "deadline_ms" => {
                let ms = parse_u64(value, "deadline_ms")?;
                if ms == 0 {
                    return Err(HttpError::new(400, "option 'deadline_ms' must be positive"));
                }
                opts.deadline = Some(Duration::from_millis(ms));
            }
            "sampling" => {
                let mode = String::from_value(value)
                    .map_err(|e| HttpError::new(400, format!("option 'sampling': {e}")))?;
                if mode != "exact" && mode != "simpoint" {
                    return Err(HttpError::new(
                        400,
                        "option 'sampling' must be 'exact' or 'simpoint'",
                    ));
                }
                sampling_mode = Some(mode);
            }
            "sampling_interval" => {
                let n = parse_u64(value, "sampling_interval")?;
                if n == 0 {
                    return Err(HttpError::new(
                        400,
                        "option 'sampling_interval' must be positive",
                    ));
                }
                sampling_interval = Some(n);
            }
            "sampling_max_phases" => {
                let n = parse_u64(value, "sampling_max_phases")?;
                if n == 0 {
                    return Err(HttpError::new(
                        400,
                        "option 'sampling_max_phases' must be positive",
                    ));
                }
                sampling_max_phases = Some(n);
            }
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
        }
    }
    if sampling_mode.as_deref() == Some("simpoint") {
        opts.sampling = Some(SamplingPolicy::SimPoint {
            interval: sampling_interval.unwrap_or(SimPointConfig::DEFAULT_INTERVAL),
            max_phases: sampling_max_phases.unwrap_or(SimPointConfig::DEFAULT_MAX_PHASES),
        });
    } else {
        if sampling_interval.is_some() || sampling_max_phases.is_some() {
            return Err(HttpError::new(
                400,
                "options 'sampling_interval' and 'sampling_max_phases' require \
                 \"sampling\": \"simpoint\"",
            ));
        }
        if sampling_mode.is_some() {
            opts.sampling = Some(SamplingPolicy::Exact);
        }
    }
    Ok(opts)
}

/// The response format a `?format=` query selects.
enum RunFormat {
    /// Structured `report_v1` JSON (the default).
    Json,
    /// The batch report text, byte-identical to `repro <experiment>`.
    Text,
}

/// Everything `POST /run` needs before touching the scheduler — shared
/// by the framed handler, the SSE stream and the cluster router so all
/// three validate (and fail) identically.
pub(crate) struct PreparedRun {
    pub(crate) experiment: &'static Experiment,
    pub(crate) opts: RunOptions,
    pub(crate) cfg: ReproConfig,
    pub(crate) key: RunKey,
    /// The scheduler's cost estimate (`weight` × campaign window), also
    /// the unit of the ETA cost model.
    pub(crate) cost: u64,
}

pub(crate) fn prepare_run(name: &str, request: &Request) -> Result<PreparedRun, Response> {
    let Some(experiment) = find_experiment(name) else {
        let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        return Err(Response::error(
            404,
            &format!("unknown experiment '{name}' (known: {})", known.join(", ")),
        ));
    };
    let opts = match parse_run_options(request) {
        Ok(opts) => opts,
        Err(e) => return Err(Response::error(e.status, &e.message)),
    };

    let mut cfg = if opts.quick {
        ReproConfig::quick()
    } else {
        ReproConfig::default()
    };
    if let Some(instructions) = opts.instructions {
        cfg.campaign.instructions = instructions;
    }
    if let Some(warmup) = opts.warmup {
        cfg.campaign.warmup = warmup;
    }
    if let Some(seed) = opts.seed {
        cfg.campaign.seed = seed;
    }
    if let Some(sampling) = opts.sampling {
        cfg.campaign.sampling = sampling;
    }

    let key = RunKey {
        experiment: experiment.id,
        quick: opts.quick,
        instructions: opts.instructions,
        warmup: opts.warmup,
        seed: opts.seed,
        sampling: cfg.campaign.sampling,
    };
    let cost = crate::sched::estimated_cost(experiment, &cfg);
    Ok(PreparedRun {
        experiment,
        opts,
        cfg,
        key,
        cost,
    })
}

/// The structured JSON body for a successful run — shared verbatim by
/// the framed `?format=json` response and the SSE terminal `report`
/// event, so a streaming client receives a byte-equivalent payload.
fn run_json_body(
    state: &ServerState,
    experiment: &Experiment,
    quick: bool,
    coalesced: bool,
    output: &RunOutput,
    report: &str,
) -> Result<String, String> {
    let structured = ReportV1::from_text(experiment.id, report);
    let report_value = serde_json::to_string(&structured)
        .and_then(|json| serde_json::from_str::<Value>(&json))
        .map_err(|e| format!("cannot serialize report_v1: {e}"))?;
    let engine_stats = Value::Map(vec![
        ("memo_hits_delta".into(), json_num(output.memo_hits_delta)),
        ("disk_hits_delta".into(), json_num(output.disk_hits_delta)),
        (
            "simulated_jobs_delta".into(),
            json_num(output.simulated_jobs_delta),
        ),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
    ]);
    let body = Value::Map(vec![
        ("experiment".into(), json_str(experiment.id)),
        ("quick".into(), Value::Bool(quick)),
        ("coalesced".into(), Value::Bool(coalesced)),
        ("wall_ms".into(), json_num(output.wall_ms)),
        ("engine".into(), engine_stats),
        ("report".into(), report_value),
    ]);
    Ok(to_json(&body))
}

/// `POST /run/{experiment}`: schedule one registry experiment on the warm
/// engine (coalescing with identical in-flight runs) and return either the
/// structured `report_v1` JSON or, with `?format=text`, the batch-stdout
/// report text.
fn run(state: &Arc<ServerState>, name: &str, request: &Request) -> Response {
    let format = match request.query_param("format") {
        None | Some("json") => RunFormat::Json,
        Some("text") => RunFormat::Text,
        Some(other) => {
            return Response::error(
                400,
                &format!("unknown format '{other}' (known: json, text)"),
            )
        }
    };
    let prepared = match prepare_run(name, request) {
        Ok(prepared) => prepared,
        Err(response) => return response,
    };
    let PreparedRun {
        experiment,
        opts,
        cfg,
        key,
        cost,
    } = prepared;
    let (slot, coalesced) = state.sched.submit(experiment, key, cfg, opts.jobs, cost);
    let deadline = opts.deadline.unwrap_or(state.opts.request_timeout);

    let rec = &state.recorder;
    let Some(output) = slot.wait(deadline) else {
        rec.counter_add("serve.deadline_exceeded", 1);
        return Response::error(
            504,
            &format!(
                "experiment '{}' exceeded its {} ms deadline (this waiter detached; the run \
                 continues on the scheduler, co-waiters are unaffected, and the warm cache \
                 makes a retry cheap)",
                experiment.id,
                deadline.as_millis()
            ),
        );
    };
    state.observe_run_cost(cost, output.wall_ms);
    let report = match &output.report {
        Ok(report) => report.clone(),
        Err(message) => return Response::error(500, message),
    };
    match format {
        // Byte-identical to batch mode's `println!("{report}")`.
        RunFormat::Text => Response::text(200, format!("{report}\n")),
        RunFormat::Json => {
            match run_json_body(state, experiment, opts.quick, coalesced, &output, &report) {
                Ok(body) => Response::json(200, body),
                Err(message) => Response::error(500, &message),
            }
        }
    }
}

/// How long a run stream blocks for the next bus event before polling
/// the run slot and the clock again.
const STREAM_POLL: Duration = Duration::from_millis(50);

/// `POST /run/{experiment}?stream=events`: the streaming run handler.
///
/// Subscribes to the recorder's event bus *before* submitting to the
/// scheduler (the run cannot start earlier, so no event is missed), then
/// forwards this run's phase/progress/counter events as SSE frames while
/// waiting on the slot. Ends with a `report` event carrying the same
/// JSON body as the non-streaming response, or `error` / `timeout`.
fn run_stream(
    state: &Arc<ServerState>,
    name: &str,
    request: &Request,
    out: &mut TcpStream,
) -> StreamOutcome {
    match request.query_param("stream") {
        Some("events") => {}
        Some(other) => {
            return StreamOutcome::Plain(Response::error(
                400,
                &format!("unknown stream mode '{other}' (known: events)"),
            ));
        }
        None => unreachable!("stream_kind only matches with a stream param"),
    }
    if request.query_param("format").is_some() {
        return StreamOutcome::Plain(Response::error(
            400,
            "'format' cannot combine with stream=events (the terminal 'report' event carries \
             the structured JSON body)",
        ));
    }
    let prepared = match prepare_run(name, request) {
        Ok(prepared) => prepared,
        Err(response) => return StreamOutcome::Plain(response),
    };
    let PreparedRun {
        experiment,
        opts,
        cfg,
        key,
        cost,
    } = prepared;

    // Subscribe before submit: publish-before-slot-publish ordering then
    // guarantees every event of the run is in (or through) our ring by
    // the time the slot reports completion.
    let sub = state.recorder.bus().subscribe(DEFAULT_SUBSCRIBER_CAPACITY);
    let (slot, coalesced) = state.sched.submit(experiment, key, cfg, opts.jobs, cost);
    let run_id = slot.run_id();
    let deadline = opts.deadline.unwrap_or(state.opts.request_timeout);
    let rec = &state.recorder;

    let mut writer = match ChunkedWriter::begin(out, 200, "text/event-stream", &[]) {
        Ok(writer) => writer,
        Err(_) => {
            rec.counter_add("serve.write_failures", 1);
            return StreamOutcome::Streamed(200);
        }
    };
    let started = Instant::now();
    let mut progress = StreamProgress::new(run_id, started);
    let start_data = {
        let mut map = vec![
            ("schema".into(), json_num(horizon_telemetry::EVENT_SCHEMA)),
            ("experiment".into(), json_str(experiment.id)),
            ("run".into(), json_num(run_id)),
            ("coalesced".into(), Value::Bool(coalesced)),
            ("weight".into(), json_num(experiment.weight)),
        ];
        if let Some(eta) = state.eta_hint_ms(cost) {
            map.push(("eta_hint_ms".into(), json_num(eta)));
        }
        to_json(&Value::Map(map))
    };
    if writer
        .write_chunk(sse_frame("start", &start_data).as_bytes())
        .is_err()
    {
        rec.counter_add("serve.write_failures", 1);
        return StreamOutcome::Streamed(200);
    }

    let end = started + deadline;
    loop {
        // Forward everything buffered, then check completion *after* the
        // drain so run events always precede the terminal event.
        while let Some(event) = sub.try_recv() {
            if let Some(frame) = progress.frame_for(&event) {
                if writer.write_chunk(frame.as_bytes()).is_err() {
                    rec.counter_add("serve.write_failures", 1);
                    return StreamOutcome::Streamed(200);
                }
            }
        }
        if let Some(output) = slot.wait(Duration::ZERO) {
            // Completion observed: drain what was published before the
            // slot, then terminate.
            while let Some(event) = sub.try_recv() {
                if let Some(frame) = progress.frame_for(&event) {
                    if writer.write_chunk(frame.as_bytes()).is_err() {
                        rec.counter_add("serve.write_failures", 1);
                        return StreamOutcome::Streamed(200);
                    }
                }
            }
            state.observe_run_cost(cost, output.wall_ms);
            let terminal = match &output.report {
                Ok(report) => {
                    match run_json_body(state, experiment, opts.quick, coalesced, &output, report) {
                        Ok(body) => sse_frame("report", &body),
                        Err(message) => sse_frame(
                            "error",
                            &to_json(&Value::Map(vec![("error".into(), json_str(&message))])),
                        ),
                    }
                }
                Err(message) => sse_frame(
                    "error",
                    &to_json(&Value::Map(vec![("error".into(), json_str(message))])),
                ),
            };
            if writer.write_chunk(terminal.as_bytes()).is_err() || writer.finish().is_err() {
                rec.counter_add("serve.write_failures", 1);
            }
            return StreamOutcome::Streamed(200);
        }
        if Instant::now() >= end {
            rec.counter_add("serve.deadline_exceeded", 1);
            let data = to_json(&Value::Map(vec![
                ("experiment".into(), json_str(experiment.id)),
                ("deadline_ms".into(), json_num(deadline.as_millis())),
                (
                    "detail".into(),
                    json_str(
                        "this waiter detached; the run continues on the scheduler and the warm \
                         cache makes a retry cheap",
                    ),
                ),
            ]));
            if writer
                .write_chunk(sse_frame("timeout", &data).as_bytes())
                .is_err()
                || writer.finish().is_err()
            {
                rec.counter_add("serve.write_failures", 1);
            }
            return StreamOutcome::Streamed(200);
        }
        // Block until the next event, the poll interval, or bus close.
        if let Some(event) = sub.recv_timeout(STREAM_POLL) {
            if let Some(frame) = progress.frame_for(&event) {
                if writer.write_chunk(frame.as_bytes()).is_err() {
                    rec.counter_add("serve.write_failures", 1);
                    return StreamOutcome::Streamed(200);
                }
            }
        }
    }
}

/// Per-stream accumulator turning bus events into enriched SSE frames.
struct StreamProgress {
    run_id: u64,
    started: Instant,
    memo_hits: u64,
    disk_hits: u64,
    trace_hits: u64,
}

impl StreamProgress {
    fn new(run_id: u64, started: Instant) -> StreamProgress {
        StreamProgress {
            run_id,
            started,
            memo_hits: 0,
            disk_hits: 0,
            trace_hits: 0,
        }
    }

    /// The SSE frame for one bus event, or `None` for events this stream
    /// suppresses (other runs; span noise — the `/events` firehose has
    /// those).
    fn frame_for(&mut self, event: &TelemetryEvent) -> Option<String> {
        if event.run != self.run_id {
            return None;
        }
        match &event.kind {
            EventKind::PhaseEnter { .. } | EventKind::PhaseExit { .. } => {
                Some(sse_frame(event.kind.label(), &event.to_json()))
            }
            EventKind::CounterDelta { name, delta, .. } => {
                match *name {
                    "engine.memo_hits" => self.memo_hits += delta,
                    "engine.disk_hits" => self.disk_hits += delta,
                    "tracestore.hits" => self.trace_hits += delta,
                    _ => {}
                }
                Some(sse_frame("counter", &event.to_json()))
            }
            EventKind::Progress {
                completed,
                total,
                cached,
            } => {
                let elapsed_ms = self.started.elapsed().as_millis() as u64;
                let mut map = vec![
                    ("schema".into(), json_num(horizon_telemetry::EVENT_SCHEMA)),
                    ("seq".into(), json_num(event.seq)),
                    ("run".into(), json_num(event.run)),
                    ("completed".into(), json_num(*completed)),
                    ("total".into(), json_num(*total)),
                    ("cached".into(), Value::Bool(*cached)),
                    ("memo_hits".into(), json_num(self.memo_hits)),
                    ("disk_hits".into(), json_num(self.disk_hits)),
                    ("tracestore_hits".into(), json_num(self.trace_hits)),
                    ("elapsed_ms".into(), json_num(elapsed_ms)),
                ];
                if *completed > 0 && total > completed {
                    let eta = elapsed_ms.saturating_mul(total - completed) / completed;
                    map.push(("eta_ms".into(), json_num(eta)));
                }
                Some(sse_frame("progress", &to_json(&Value::Map(map))))
            }
            EventKind::SpanStart { .. } | EventKind::SpanEnd { .. } => None,
        }
    }
}

/// `GET /events`: stream every live telemetry event on the daemon as SSE
/// until the client hangs up, shutdown begins, or `?limit=N` is reached.
/// Idle periods emit SSE keep-alive comments so a dead client is noticed
/// even when no runs are active.
fn firehose(state: &Arc<ServerState>, request: &Request, out: &mut TcpStream) -> StreamOutcome {
    let limit = match request.query_param("limit") {
        None => u64::MAX,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                return StreamOutcome::Plain(Response::error(
                    400,
                    "'limit' must be a positive integer",
                ));
            }
        },
    };
    let rec = &state.recorder;
    let sub = rec.bus().subscribe(DEFAULT_SUBSCRIBER_CAPACITY);
    let mut writer = match ChunkedWriter::begin(out, 200, "text/event-stream", &[]) {
        Ok(writer) => writer,
        Err(_) => {
            rec.counter_add("serve.write_failures", 1);
            return StreamOutcome::Streamed(200);
        }
    };
    let mut sent = 0u64;
    let mut last_activity = Instant::now();
    while sent < limit {
        if state.shutdown.load(Ordering::SeqCst) || signal::requested() {
            break;
        }
        match sub.recv_timeout(Duration::from_millis(250)) {
            Some(event) => {
                let frame = sse_frame(event.kind.label(), &event.to_json());
                if writer.write_chunk(frame.as_bytes()).is_err() {
                    rec.counter_add("serve.write_failures", 1);
                    return StreamOutcome::Streamed(200);
                }
                sent += 1;
                last_activity = Instant::now();
            }
            None => {
                // Quiet bus: send an SSE comment every ~2 s so a
                // hung-up client surfaces as a write error instead of a
                // subscription leak.
                if last_activity.elapsed() >= Duration::from_secs(2) {
                    if writer.write_chunk(b": keep-alive\n\n").is_err() {
                        rec.counter_add("serve.write_failures", 1);
                        return StreamOutcome::Streamed(200);
                    }
                    last_activity = Instant::now();
                }
            }
        }
    }
    let _ = writer.finish();
    StreamOutcome::Streamed(200)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;

    type Job = Box<dyn FnOnce() + Send + 'static>;

    fn job_pool(workers: usize, cap: usize) -> Pool<Job> {
        Pool::new(workers, cap, |job: Job| job())
    }

    fn test_opts(workers: usize, queue_cap: usize) -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_cap,
            request_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_millis(500),
            max_requests_per_connection: 16,
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }

    fn bind_server(opts: ServeOptions) -> Server {
        Server::bind(
            opts,
            Arc::new(Engine::new()),
            Arc::new(Recorder::new()),
            None,
        )
        .expect("bind ephemeral")
    }

    fn test_server(workers: usize, queue_cap: usize) -> Server {
        bind_server(test_opts(workers, queue_cap))
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        // Half-close: the server sees EOF when it looks for a follow-up
        // request, so read_to_string below terminates without waiting out
        // the keep-alive idle timeout.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    /// Reads exactly one `Content-Length`-framed response, leaving the
    /// connection open for the next one.
    fn read_one_response(stream: &mut TcpStream) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response header byte");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).expect("utf8 response head");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length header")
            .trim()
            .parse()
            .expect("content-length value");
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).expect("response body");
        head + &String::from_utf8(body).expect("utf8 response body")
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        let pool = job_pool(2, 16);
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("pool saturated unexpectedly"));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 10, "shutdown drains the queue");
    }

    #[test]
    fn accept_loop_dispatches_without_delay_and_stops_on_the_flag() {
        // The unspecified address also exercises the wake-up's mapping to
        // loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).expect("bind ephemeral");
            let port = listener.local_addr().unwrap().port();
            let shutdown = Arc::new(AtomicBool::new(false));
            let (tx, rx) = mpsc::channel();
            let flag = Arc::clone(&shutdown);
            let acceptor = std::thread::spawn(move || {
                accept_until_shutdown(&listener, &flag, |stream| {
                    tx.send(stream.nodelay().expect("read nodelay")).unwrap();
                });
            });
            for _ in 0..2 {
                let _client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
                let nodelay = rx.recv_timeout(Duration::from_secs(5)).expect("dispatched");
                assert!(nodelay, "accepted sockets carry TCP_NODELAY");
            }
            // The acceptor is parked in a blocking accept: only the
            // watcher's wake-up can end the loop.
            shutdown.store(true, Ordering::SeqCst);
            let started = Instant::now();
            acceptor.join().expect("acceptor returns");
            assert!(started.elapsed() < Duration::from_secs(5), "{bind}");
            assert!(rx.try_recv().is_err(), "the wake-up is not dispatched");
        }
    }

    #[test]
    fn pool_rejects_past_queue_cap_and_recovers() {
        let pool = job_pool(1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap_or_else(|_| panic!("first job rejected"));
        // Wait until the worker owns the blocking job (queue is empty).
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picked up the job");

        let ran = Arc::new(AtomicU32::new(0));
        let queued = Arc::clone(&ran);
        pool.try_submit(Box::new(move || {
            queued.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("queue slot rejected"));
        assert_eq!(pool.queued(), 1);
        assert!(
            pool.try_submit(Box::new(|| {})).is_err(),
            "queue past cap must saturate"
        );

        release_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "queued job still ran");
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = job_pool(1, 4);
        pool.try_submit(Box::new(|| panic!("handler bug")))
            .unwrap_or_else(|_| panic!("rejected"));
        let ran = Arc::new(AtomicU32::new(0));
        let after = Arc::clone(&ran);
        pool.try_submit(Box::new(move || {
            after.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap_or_else(|_| panic!("rejected"));
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "worker outlived the panic");
    }

    #[test]
    fn saturated_server_answers_503_without_killing_in_flight_work() {
        let server = test_server(1, 1);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        // Occupy the single worker and the single queue slot with
        // connections that send nothing (the worker blocks reading).
        let hold_worker = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(400));
        let hold_queue = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(400));

        let response = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "expected saturation 503, got: {response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");

        // Releasing the held connections lets the daemon serve again: the
        // saturation rejection killed nothing in flight.
        drop(hold_worker);
        drop(hold_queue);
        std::thread::sleep(Duration::from_millis(400));
        let response = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 200 "),
            "daemon should recover after saturation, got: {response}"
        );
        assert!(recorder.counter_value("serve.saturated") >= 1);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send first");
        let first = read_one_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
        assert!(first.contains("Connection: keep-alive\r\n"), "{first}");

        // Second request over the SAME connection; `Connection: close`
        // must be honored with a close header and then EOF.
        stream
            .write_all(b"GET /experiments HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send second");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert!(rest.starts_with("HTTP/1.1 200 "), "{rest}");
        assert!(rest.contains("Connection: close\r\n"), "{rest}");
        assert!(rest.contains("\"id\":\"table1\""), "{rest}");
        assert_eq!(recorder.counter_value("serve.keepalive_reuses"), 1);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let mut opts = test_opts(2, 8);
        opts.max_requests_per_connection = 2;
        let server = bind_server(opts);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        let probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        stream.write_all(probe).expect("send first");
        let first = read_one_response(&mut stream);
        assert!(first.contains("Connection: keep-alive\r\n"), "{first}");

        // The second request hits the cap: the server answers it but
        // announces (and performs) the close.
        stream.write_all(probe).expect("send second");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert!(rest.starts_with("HTTP/1.1 200 "), "{rest}");
        assert!(rest.contains("Connection: close\r\n"), "{rest}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn idle_keep_alive_connection_is_closed_quietly() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let recorder = Arc::clone(&server.state.recorder);
        let serving = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let first = read_one_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200 "), "{first}");

        // Send nothing more: past the idle timeout the server closes
        // without emitting a response or counting a bad request.
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to close");
        assert_eq!(rest, "", "idle close must not write anything");
        assert_eq!(recorder.counter_value("serve.bad_requests"), 0);

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn router_covers_errors_and_health() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let serving = std::thread::spawn(move || server.run());

        let health = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let list = request(addr, "GET /experiments HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(list.contains("\"id\":\"table1\""), "{list}");
        let metrics = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.contains("horizon_serve_requests"), "{metrics}");

        let missing = request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
        let bad_method = request(addr, "DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(bad_method.starts_with("HTTP/1.1 405 "), "{bad_method}");
        assert!(bad_method.contains("Allow: GET"), "{bad_method}");
        let get_run = request(addr, "GET /run/table1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(get_run.starts_with("HTTP/1.1 405 "), "{get_run}");
        let garbage = request(addr, "THIS IS NOT HTTP\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400 "), "{garbage}");
        let no_cache = request(
            addr,
            "POST /cache/gc HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(no_cache.starts_with("HTTP/1.1 409 "), "{no_cache}");
        let unknown_exp = request(
            addr,
            "POST /run/nope HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(unknown_exp.starts_with("HTTP/1.1 404 "), "{unknown_exp}");
        let bad_body = "POST /run/table1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nnot json!";
        let bad = request(addr, bad_body);
        assert!(bad.starts_with("HTTP/1.1 400 "), "{bad}");
        let unknown_opt =
            "POST /run/table1 HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"typo\":true}";
        let unknown = request(addr, unknown_opt);
        assert!(unknown.starts_with("HTTP/1.1 400 "), "{unknown}");
        let bad_format = request(
            addr,
            "POST /run/table1?format=xml HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(bad_format.starts_with("HTTP/1.1 400 "), "{bad_format}");
        assert!(bad_format.contains("unknown format 'xml'"), "{bad_format}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }
}
