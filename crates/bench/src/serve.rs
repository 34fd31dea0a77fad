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
//! | `POST /run/{experiment}[?format=json\|text]` | run one experiment; JSON body for the `quick` and `seed` options |
//! | `POST /run/{experiment}?stream=events` | same run, but streamed: live SSE progress events, terminated by the structured report |
//! | `GET /metrics` | live Prometheus text exposition of the shared recorder |
//! | `POST /cache/gc` | LRU-prune the on-disk cache ([`horizon_engine::GcReport`] JSON; `max_entries` body option) |
//! | `GET /peer/health` | cluster liveness view: load, queue depth, memo size (polled by a [`crate::cluster`] router) |
//!
//! # Reports
//!
//! A run produces one typed [`Report`]. The default `POST /run` response
//! carries its **schema-versioned structured view**
//! ([`horizon_core::report_v1::ReportV1`]) under `report`: tables,
//! subsets, error statistics and notes projected from the report's
//! blocks, plus engine cache-effectiveness deltas alongside.
//! `?format=text` instead returns the report rendered as `text/plain`,
//! **byte-identical** to the experiment's batch `repro <experiment>`
//! stdout (report text plus trailing newline): both paths run
//! [`crate::run_report`] with the same [`ReproConfig`], and engine
//! results are bit-identical regardless of worker count or cache state.
//! Text and JSON come from the same `Report`, so the two formats cannot
//! disagree.
//!
//! # Live streaming
//!
//! `?stream=events` upgrades a run request to a chunked
//! `text/event-stream`: a `start` event (run id, coalescing,
//! [`Experiment::weight`](crate::Experiment)), then this run's live
//! `phase_enter`/`phase_exit` and `progress` events off the recorder's
//! [`horizon_telemetry::EventBus`] (a `progress` frame counts the
//! campaign's jobs done/total, the run's memo and disk hits so far from
//! the jobs' own outcomes, and the campaign's ETA), and finally one
//! `report` event whose payload is **byte-equivalent** to the
//! non-streaming JSON response (modulo the measured `wall_ms`).
//! Streaming is observation only — the run itself and its report bytes
//! are identical with or without it. Stream connections always close
//! when done (`Connection: close`).
//!
//! # Runs
//!
//! A run executes on the thread that received it: a framed `POST /run`
//! on its connection worker, a streamed one on a scoped thread while the
//! connection thread forwards its events. Identical in-flight requests
//! (same experiment + campaign options) coalesce onto a single execution
//! whose result answers every waiter, through the crate-private `sched`
//! table of in-flight runs (counted by `serve.coalesced_runs`;
//! `serve.active_runs` gauges the executing runs). So one pool of
//! `workers` threads serves connections and executes their runs.
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
//! * **I/O timeouts** — socket reads/writes carry an I/O timeout. A run
//!   has no deadline: a client that stops waiting (a read timeout of its
//!   own, or a hang-up) loses only its answer; the run finishes, other
//!   waiters on it still get their results, and the shared engine cache
//!   stays warm so a retry is cheap.
//! * **Hardened parsing** — see [`crate::http`]: malformed requests map to
//!   4xx responses, never a panic; a panicking handler poisons nothing
//!   because workers catch unwinds and answer `500` (a panicking *run* is
//!   caught where it executes and answered as a clean `500` to every
//!   waiter).
//! * **Graceful shutdown** — `SIGTERM`/`SIGINT` (or
//!   [`Server::shutdown_handle`]) stop the accept loop, drain queued and
//!   in-flight requests (every run executes on a connection worker or on
//!   a thread one joins, so this drain covers every run), and return so
//!   the caller can flush telemetry sinks and exit 0.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use horizon_core::report::Report;
use horizon_core::report_v1::ReportV1;
use horizon_engine::Engine;
use horizon_telemetry::{
    EventKind, JobOutcome, Recorder, Subscription, TelemetryEvent, DEFAULT_SUBSCRIBER_CAPACITY,
};

use serde::{Serialize, Value};

use crate::http::{read_request, ChunkedWriter, HttpError, Limits, Request, Response};
use crate::sched::{InFlightRuns, RunKey, RunOutput, RunSlot};
use crate::{find_experiment, Experiment, ReproConfig, REGISTRY};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections; each executes the runs its
    /// requests ask for.
    pub workers: usize,
    /// Maximum connections queued beyond the busy workers; excess gets an
    /// inline `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Socket read/write timeout for request parsing and response writes.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (the last response says `Connection: close`); bounds how long a
    /// single client can monopolize a worker.
    pub max_requests_per_connection: usize,
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
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 100,
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

/// State shared between the accept loop and the connection workers.
struct ServerState {
    engine: Arc<Engine>,
    recorder: Arc<Recorder>,
    opts: ServeOptions,
    started: Instant,
    /// The runs executing now, which identical `POST /run` requests share.
    runs: InFlightRuns,
    /// Connections accepted but not yet claimed by a worker — gauged in
    /// `/healthz` and `/metrics` so saturation is visible before 503s.
    queue_depth: AtomicUsize,
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
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine,
            runs: InFlightRuns::new(Arc::clone(&recorder)),
            recorder,
            opts,
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
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
            shutdown: Arc::new(AtomicBool::new(false)),
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
    /// and in-flight requests complete, their runs with them, and the
    /// method returns `Ok(())` for a clean exit.
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
        self.pool.shutdown();
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
            self.state.recorder.counter_add("serve.saturated", 1);
            self.state.recorder.counter_add("serve.http_5xx", 1);
            reject_saturated(stream, "request queue is full");
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
                match streamed_run(&request) {
                    // A streamed run owns the socket from here: it writes
                    // a chunked response itself and the connection always
                    // closes afterwards (the stream has no framed length
                    // to resynchronize keep-alive on).
                    Some(name) => match run_stream(state, name, &request, reader.get_mut()) {
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

/// Writes the saturation `503` on the accept thread. Shared by the daemon
/// and the cluster router; each counts its own rejections.
pub(crate) fn reject_saturated(mut stream: TcpStream, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = Response::error(503, message)
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
        "/peer/health" => "peer_health",
        _ if path.starts_with("/run/") => "run",
        _ => "other",
    }
}

/// The experiment of a streamed run request (`POST
/// /run/{experiment}?stream=…`), which is answered as a live event stream
/// rather than a framed response; `None` for everything the framed
/// [`route`] table handles. Crate-visible: the cluster router tunnels
/// exactly these requests.
pub(crate) fn streamed_run(request: &Request) -> Option<&str> {
    let path = request.path.split('?').next().unwrap_or("");
    let name = path.strip_prefix("/run/")?;
    (request.method == "POST" && request.query_param("stream").is_some()).then_some(name)
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
        ("POST", "/cache/gc") => cache_gc(state, request),
        ("POST", run_path) if run_path.starts_with("/run/") => {
            run(state, &run_path["/run/".len()..], request)
        }
        (_, "/healthz" | "/experiments" | "/metrics" | "/peer/health") => {
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
        ("runs_pending".into(), json_num(state.runs.executing())),
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
/// current load (distinct runs executing), accept-queue depth, and the
/// warm memo size, so routing and failover decisions can weigh how hot
/// this node is for its keys.
fn peer_health(state: &ServerState) -> Response {
    let body = Value::Map(vec![
        ("role".into(), json_str("worker")),
        ("load".into(), json_num(state.runs.executing())),
        (
            "queue_depth".into(),
            json_num(state.queue_depth.load(Ordering::SeqCst)),
        ),
        ("memo_entries".into(), json_num(state.engine.memo_entries())),
        (
            "uptime_ms".into(),
            json_num(state.started.elapsed().as_millis()),
        ),
    ]);
    Response::json(200, to_json(&body))
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

/// `POST /cache/gc`: LRU-prune the daemon's disk cache.
fn cache_gc(state: &ServerState, request: &Request) -> Response {
    let Some(cache) = state.engine.cache() else {
        return Response::error(409, "no --cache-dir configured for this daemon");
    };
    let max_entries = match parse_gc_max_entries(request) {
        Ok(max_entries) => max_entries,
        Err(e) => return Response::error(e.status, &e.message),
    };
    let report = match cache.gc(max_entries) {
        Ok(report) => report,
        Err(e) => return Response::error(500, &format!("cache gc failed: {e}")),
    };
    match serde_json::to_string(&report) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("cannot serialize gc report: {e}")),
    }
}

/// The `max_entries` option of a `POST /cache/gc` body (default 1024, as
/// the CLI's `cache-gc`); any other key is rejected.
fn parse_gc_max_entries(request: &Request) -> Result<usize, HttpError> {
    let mut max_entries = 1024;
    if request.body.is_empty() {
        return Ok(max_entries);
    }
    let value: Value = serde_json::from_str(request.body_str()?)
        .map_err(|e| HttpError::new(400, format!("invalid JSON body: {e}")))?;
    let Value::Map(entries) = value else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    for (key, value) in &entries {
        match key.as_str() {
            "max_entries" => max_entries = parse_u64(value, "max_entries")? as usize,
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
        }
    }
    Ok(max_entries)
}

/// Per-request run options, mirroring the batch CLI flags.
pub(crate) struct RunOptions {
    pub(crate) quick: bool,
    pub(crate) seed: Option<u64>,
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
        seed: None,
    };
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
            "quick" => {
                opts.quick = bool::from_value(value)
                    .map_err(|e| HttpError::new(400, format!("option 'quick': {e}")))?;
            }
            "seed" => opts.seed = Some(parse_u64(value, "seed")?),
            other => {
                return Err(HttpError::new(400, format!("unknown option '{other}'")));
            }
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

/// Everything `POST /run` needs before claiming its run — shared by the
/// framed handler, the SSE stream and the cluster router so all three
/// validate (and fail) identically.
pub(crate) struct PreparedRun {
    pub(crate) experiment: &'static Experiment,
    pub(crate) opts: RunOptions,
    pub(crate) cfg: ReproConfig,
    pub(crate) key: RunKey,
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
    if let Some(seed) = opts.seed {
        cfg.campaign.seed = seed;
    }

    let key = RunKey {
        experiment: experiment.id,
        quick: opts.quick,
        seed: opts.seed,
    };
    Ok(PreparedRun {
        experiment,
        opts,
        cfg,
        key,
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
    report: &Report,
) -> String {
    let structured = ReportV1::from_report(experiment.id, report).to_value();
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
        ("report".into(), structured),
    ]);
    to_json(&body)
}

/// `POST /run/{experiment}`: run one registry experiment on the warm
/// engine, on this thread unless an identical run is already executing
/// (then wait for its output), and return either the structured
/// `report_v1` JSON or, with `?format=text`, the batch-stdout report text.
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
    } = prepared;
    let (slot, coalesced) = state.runs.claim(&key);
    if !coalesced {
        state.runs.execute(&key, &slot, experiment, &cfg);
    }
    let output = slot.wait();
    let report = match &output.report {
        Ok(report) => report,
        Err(message) => return Response::error(500, message),
    };
    match format {
        // Byte-identical to batch mode's `println!("{report}")`.
        RunFormat::Text => Response::text(200, format!("{report}\n")),
        RunFormat::Json => Response::json(
            200,
            run_json_body(state, experiment, opts.quick, coalesced, &output, report),
        ),
    }
}

/// How long a run stream blocks for the next bus event before looking at
/// the run slot again.
const STREAM_POLL: Duration = Duration::from_millis(50);

/// `POST /run/{experiment}?stream=events`: the streaming run handler.
///
/// Opens the chunked response, claims the run and subscribes to its
/// events, and only then starts a leader's run on a scoped thread, so no
/// event of the run is missed. This thread forwards the run's
/// phase and progress events as SSE frames and ends with a `report`
/// event carrying the same JSON body as the non-streaming response, or an
/// `error` event. A client that goes away ends the forwarding, not the
/// run: its subscription drops at once and the scope joins the run.
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
    let run = match prepare_run(name, request) {
        Ok(prepared) => prepared,
        Err(response) => return StreamOutcome::Plain(response),
    };
    let rec = &state.recorder;
    let Ok(writer) = ChunkedWriter::begin(out, 200, "text/event-stream", &[]) else {
        rec.counter_add("serve.write_failures", 1);
        return StreamOutcome::Streamed(200);
    };
    let (slot, coalesced) = state.runs.claim(&run.key);
    let sub = rec
        .bus()
        .subscribe_run(DEFAULT_SUBSCRIBER_CAPACITY, slot.run_id());
    std::thread::scope(|scope| {
        if !coalesced {
            let execute = || {
                state
                    .runs
                    .execute(&run.key, &slot, run.experiment, &run.cfg)
            };
            // Spawning fails only when the process is out of threads; the
            // claimed run must execute all the same (see `sched`).
            if std::thread::Builder::new()
                .spawn_scoped(scope, execute)
                .is_err()
            {
                execute();
            }
        }
        if write_run_stream(state, writer, sub, &slot, &run, coalesced).is_err() {
            rec.counter_add("serve.write_failures", 1);
        }
    });
    StreamOutcome::Streamed(200)
}

/// Writes a run stream after its response head: the `start` frame, the
/// events `sub` receives until `slot` holds the run's output, and the
/// terminal frame. Fails on the first write error, when the client has
/// gone away; `sub` drops with the return.
fn write_run_stream(
    state: &ServerState,
    mut writer: ChunkedWriter<'_, TcpStream>,
    sub: Subscription,
    slot: &RunSlot,
    run: &PreparedRun,
    coalesced: bool,
) -> std::io::Result<()> {
    let start = Value::Map(vec![
        ("schema".into(), json_num(horizon_telemetry::EVENT_SCHEMA)),
        ("experiment".into(), json_str(run.experiment.id)),
        ("run".into(), json_num(slot.run_id())),
        ("coalesced".into(), Value::Bool(coalesced)),
        ("weight".into(), json_num(run.experiment.weight)),
    ]);
    writer.write_chunk(sse_frame("start", &to_json(&start)).as_bytes())?;

    let mut progress = StreamProgress::new();
    let mut forward =
        |event: TelemetryEvent| writer.write_chunk(progress.frame_for(&event).as_bytes());
    let output = loop {
        // Look at the slot *before* draining: the run published all its
        // events before its output, so the drain after seeing the output
        // forwards every one of them ahead of the terminal event.
        let output = slot.published();
        while let Some(event) = sub.try_recv() {
            forward(event)?;
        }
        if let Some(output) = output {
            break output;
        }
        // Block until the next event, the poll interval, or bus close.
        if let Some(event) = sub.recv_timeout(STREAM_POLL) {
            forward(event)?;
        }
    };
    let terminal = match &output.report {
        Ok(report) => sse_frame(
            "report",
            &run_json_body(
                state,
                run.experiment,
                run.opts.quick,
                coalesced,
                &output,
                report,
            ),
        ),
        Err(message) => sse_frame(
            "error",
            &to_json(&Value::Map(vec![("error".into(), json_str(message))])),
        ),
    };
    writer.write_chunk(terminal.as_bytes())?;
    writer.finish()
}

/// Per-stream accumulator turning one run's bus events into SSE frames.
struct StreamProgress {
    started: Instant,
    memo_hits: u64,
    disk_hits: u64,
}

impl StreamProgress {
    fn new() -> StreamProgress {
        StreamProgress {
            started: Instant::now(),
            memo_hits: 0,
            disk_hits: 0,
        }
    }

    /// The SSE frame for one bus event. A `progress` frame adds the hits
    /// among the run's jobs so far, the time since the stream opened and
    /// the campaign's ETA.
    fn frame_for(&mut self, event: &TelemetryEvent) -> String {
        let EventKind::Progress {
            completed,
            total,
            outcome,
            ..
        } = event.kind
        else {
            return sse_frame(event.kind.label(), &event.to_json());
        };
        match outcome {
            JobOutcome::Memo => self.memo_hits += 1,
            JobOutcome::Disk => self.disk_hits += 1,
            JobOutcome::Simulated => {}
        }
        let mut map = vec![
            ("schema".into(), json_num(horizon_telemetry::EVENT_SCHEMA)),
            ("seq".into(), json_num(event.seq)),
            ("run".into(), json_num(event.run)),
            ("completed".into(), json_num(completed)),
            ("total".into(), json_num(total)),
            (
                "cached".into(),
                Value::Bool(outcome != JobOutcome::Simulated),
            ),
            ("memo_hits".into(), json_num(self.memo_hits)),
            ("disk_hits".into(), json_num(self.disk_hits)),
            (
                "elapsed_ms".into(),
                json_num(self.started.elapsed().as_millis()),
            ),
        ];
        if let Some(eta) = event.kind.eta_nanos() {
            map.push(("eta_ms".into(), json_num(eta / 1_000_000)));
        }
        sse_frame("progress", &to_json(&Value::Map(map)))
    }
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
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_millis(500),
            max_requests_per_connection: 16,
            limits: Limits::default(),
        }
    }

    fn bind_server(opts: ServeOptions) -> Server {
        Server::bind(opts, Arc::new(Engine::new()), Arc::new(Recorder::new()))
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
        let events = request(addr, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(events.starts_with("HTTP/1.1 404 "), "{events}");
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
        for (option, key) in [
            ("{\"typo\":true}", "typo"),
            ("{\"sampling\":\"simpoint\"}", "sampling"),
            ("{\"sampling_interval\":5000}", "sampling_interval"),
            ("{\"deadline_ms\":1}", "deadline_ms"),
            // `--jobs` is the one way to set the worker count.
            ("{\"jobs\":2}", "jobs"),
            // A run's scale is `quick` or the default, as in batch mode.
            ("{\"instructions\":1000}", "instructions"),
            ("{\"warmup\":10}", "warmup"),
        ] {
            let unknown = request(
                addr,
                &format!(
                    "POST /run/table1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{option}",
                    option.len()
                ),
            );
            assert!(unknown.starts_with("HTTP/1.1 400 "), "{unknown}");
            assert!(
                unknown.contains(&format!("unknown option '{key}'")),
                "{unknown}"
            );
        }
        let bad_format = request(
            addr,
            "POST /run/table1?format=xml HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(bad_format.starts_with("HTTP/1.1 400 "), "{bad_format}");
        assert!(bad_format.contains("unknown format 'xml'"), "{bad_format}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("clean exit");
    }

    #[test]
    fn gc_options_accept_only_max_entries() {
        let gc = |body: &str| Request {
            method: "POST".into(),
            path: "/cache/gc".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: false,
        };
        assert_eq!(parse_gc_max_entries(&gc("")).unwrap(), 1024);
        assert_eq!(parse_gc_max_entries(&gc("{\"max_entries\":5}")).unwrap(), 5);
        let err = parse_gc_max_entries(&gc("{\"max_trace_bytes\":1}")).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown option"), "{}", err.message);
    }
}
