//! Sharded serve fleet: a fingerprint-routed router in front of a pool
//! of `repro serve` workers.
//!
//! ```text
//!            POST /run/{exp}            POST /run/{exp}
//!   client ────────────────▶ router ───────────────────▶ worker A
//!                             │  ▲                        worker B
//!                             │  └── GET /peer/health ──  worker C
//!                             └───── (rendezvous-hashed failover)
//! ```
//!
//! The router ([`Router`]) owns no engine: it validates each
//! `POST /run/{experiment}` exactly like a worker would (shared
//! [`crate::serve`] validation), admission-controls it with a per-client
//! token bucket, picks a worker by rendezvous (highest-random-weight)
//! hashing of the run's canonical fingerprint, and relays the worker's
//! response byte-for-byte. Identical runs therefore always land on the
//! same worker while it is alive — its memo table and disk cache stay
//! hot — and fail over deterministically to the next hash choice when it
//! dies, failing back automatically when it returns (rendezvous hashing
//! moves no other key in either direction).
//!
//! | method | path | behaviour on the router |
//! |---|---|---|
//! | GET  | `/healthz` | router role + per-peer liveness view |
//! | GET  | `/experiments` | served locally from the registry |
//! | GET  | `/metrics` | aggregated scrape, samples labeled `node="…"` |
//! | POST | `/run/{exp}` | admission → rendezvous route → buffered relay |
//! | POST | `/run/{exp}?stream=events` | admission → route → SSE byte-tunnel |
//!
//! Failure injection for tests rides on the `HZN_FAULT` environment
//! variable (see `FaultPlan`): `proxy=drop`, `proxy=truncate` or
//! `proxy=delay:250`. A fault fires once per request on the first
//! attempt, so the degradation path (failover) is what gets exercised.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use horizon_engine::Fingerprint;
use horizon_telemetry::Recorder;

use serde::Value;

use crate::http::{read_request, Limits, Request, Response};
use crate::sched::RunKey;
use crate::serve::{
    accept_until_shutdown, json_num, json_str, prepare_run, reject_saturated, streamed_run,
    to_json, Pool, Saturated,
};

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over `bytes` — the cheap, dependency-free hash the whole
/// cache layer is built on (the engine keys its memo with the 128-bit
/// variant).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Final avalanche (splitmix64 finalizer): FNV-1a alone mixes low bits
/// poorly for short inputs, and rendezvous ranking needs every bit of the
/// score to be key- and node-sensitive.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The highest-random-weight score of `node` for `key`. The node with
/// the highest score owns the key; the runner-up is its failover target.
pub(crate) fn hrw_score(key: &str, node: &str) -> u64 {
    let mut hash = fnv1a64(key.as_bytes());
    // A non-UTF-8 separator byte keeps ("ab","c") and ("a","bc") apart.
    hash ^= mix64(fnv1a64(node.as_bytes()).rotate_left(17) ^ 0xff);
    mix64(hash)
}

/// Ranks `nodes` for `key`: indices into `nodes`, best owner first.
/// Deterministic — ties (astronomically unlikely) break on the node
/// string so every router ranks identically.
pub(crate) fn rendezvous_order(key: &str, nodes: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by(|&a, &b| {
        hrw_score(key, &nodes[b])
            .cmp(&hrw_score(key, &nodes[a]))
            .then_with(|| nodes[a].cmp(&nodes[b]))
    });
    order
}

/// The routing key for a prepared run: a canonical rendering of every
/// field that shapes the work, digested with the engine's fingerprint
/// scheme. Two requests that would coalesce on a worker always produce
/// the same routing key, so they always reach the same worker.
pub(crate) fn route_key(key: &RunKey) -> String {
    // The constant `instructions`, `warmup` and `sampling` parts name
    // options that no longer exist; they stay so that no run's shard moves.
    let canonical = format!(
        "run;experiment={};quick={};instructions=None;warmup=None;seed={:?};sampling=exact",
        key.experiment, key.quick, key.seed,
    );
    Fingerprint::of_canonical(canonical.as_bytes())
        .as_str()
        .to_string()
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// A per-client token bucket in milli-tokens. The refill rate is
/// `rate` tokens per second; the burst capacity is two seconds of refill.
/// Callers pass the clock explicitly so tests control time.
pub(crate) struct TokenBucket {
    capacity: u64,
    tokens: u64,
    /// Tokens per second — equivalently, milli-tokens per millisecond.
    rate: u64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(rate: u64, now: Instant) -> TokenBucket {
        let capacity = rate.saturating_mul(2_000).max(1_000);
        TokenBucket {
            capacity,
            tokens: capacity,
            rate,
            last: now,
        }
    }

    /// Takes `cost` tokens, or reports how many whole seconds the client
    /// should wait before retrying (the `Retry-After` value, at least 1).
    /// A cost above the burst capacity is clamped to it — one huge run
    /// charges at most a full burst rather than starving forever.
    pub(crate) fn try_take(&mut self, cost: u64, now: Instant) -> Result<(), u64> {
        let elapsed_ms = now.duration_since(self.last).as_millis() as u64;
        self.tokens = self
            .tokens
            .saturating_add(elapsed_ms.saturating_mul(self.rate))
            .min(self.capacity);
        self.last = now;
        let need = cost.saturating_mul(1_000).min(self.capacity);
        if self.tokens >= need {
            self.tokens -= need;
            return Ok(());
        }
        let deficit_ms = (need - self.tokens).div_ceil(self.rate.max(1));
        Err(deficit_ms.div_ceil(1_000).max(1))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injected failure mode at a cluster I/O point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The connection evaporates: the caller sees no bytes at all.
    Drop,
    /// The body arrives cut in half, as a mid-transfer disconnect would
    /// leave it.
    Truncate,
    /// The bytes arrive whole but late by this many milliseconds.
    Delay(u64),
}

/// The parsed `HZN_FAULT` plan. Syntax: comma-separated `point=kind`
/// terms where the one point is `proxy` (router-to-worker run relay)
/// and kind is `drop`, `truncate` or `delay:<ms>`. Unknown terms are
/// ignored — a fault plan must never break a production binary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultPlan {
    pub(crate) proxy: Option<FaultKind>,
}

impl FaultPlan {
    /// Parses a plan from `HZN_FAULT` (empty plan when unset).
    pub(crate) fn from_env() -> FaultPlan {
        std::env::var("HZN_FAULT")
            .map(|spec| FaultPlan::parse(&spec))
            .unwrap_or_default()
    }

    pub(crate) fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for term in spec.split(',') {
            let Some((point, kind)) = term.trim().split_once('=') else {
                continue;
            };
            let kind = match kind {
                "drop" => FaultKind::Drop,
                "truncate" => FaultKind::Truncate,
                delay if delay.starts_with("delay:") => {
                    match delay["delay:".len()..].parse::<u64>() {
                        Ok(ms) => FaultKind::Delay(ms),
                        Err(_) => continue,
                    }
                }
                _ => continue,
            };
            if point == "proxy" {
                plan.proxy = Some(kind);
            }
        }
        plan
    }
}

/// Applies one fault to a byte payload: `Drop` loses it, `Truncate`
/// halves it, `Delay` sleeps then passes it through. `None` is the
/// no-fault identity. Pure apart from the sleep, so unit tests can
/// drive every kind without touching the environment.
pub(crate) fn apply_fault(bytes: Vec<u8>, fault: Option<FaultKind>) -> Option<Vec<u8>> {
    match fault {
        None => Some(bytes),
        Some(FaultKind::Drop) => None,
        Some(FaultKind::Truncate) => {
            let half = bytes.len() / 2;
            Some(bytes[..half].to_vec())
        }
        Some(FaultKind::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Some(bytes)
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal HTTP client
// ---------------------------------------------------------------------------

/// A parsed upstream response. `complete` is the watchdog the proxy
/// fails over on: a `Content-Length` that disagrees with the body, or
/// does not parse, means the transfer cannot be trusted.
pub(crate) struct WireResponse {
    pub(crate) status: u16,
    pub(crate) body: Vec<u8>,
    pub(crate) complete: bool,
}

/// Parses a buffered HTTP/1.x response. Returns `None` for anything that
/// does not even have a well-formed head — indistinguishable, for the
/// caller's purposes, from a dropped connection.
pub(crate) fn parse_response(raw: &[u8]) -> Option<WireResponse> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next()?.starts_with("HTTP/") {
        return None;
    }
    let status: u16 = parts.next()?.parse().ok()?;
    let body = raw[head_end + 4..].to_vec();
    // Without a Content-Length the response is EOF-framed; with one (or
    // several), every value must parse and match the body.
    let complete = lines
        .filter_map(|line| line.split_once(':'))
        .filter(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .all(|(_, value)| value.trim().parse::<usize>().ok() == Some(body.len()));
    Some(WireResponse {
        status,
        body,
        complete,
    })
}

/// Resolves `host:port`, preferring the first address.
fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("'{addr}' resolves to no address"),
        )
    })
}

/// One buffered HTTP exchange: connect, send `request` verbatim,
/// half-close, read the whole response. The peer must answer with
/// `Connection: close` framing (every daemon endpoint does when asked).
fn http_exchange(
    addr: &str,
    request: &[u8],
    connect_timeout: Duration,
    io_timeout: Duration,
) -> std::io::Result<Vec<u8>> {
    let target = resolve(addr)?;
    let mut stream = TcpStream::connect_timeout(&target, connect_timeout)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    stream.write_all(request)?;
    stream.shutdown(Shutdown::Write)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Rebuilds a parsed client request as the bytes to send upstream. The
/// path (with its query string) and body pass through verbatim;
/// `Connection: close` makes the upstream response EOF-framed.
fn build_proxy_request(request: &Request) -> Vec<u8> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\nHost: cluster-peer\r\nConnection: close\r\n",
        request.method, request.path
    );
    if let Some(content_type) = request.header("content-type") {
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", request.body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&request.body);
    bytes
}

/// A GET with no body, for health polls and metric scrapes.
fn build_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: cluster-peer\r\nConnection: close\r\n\r\n").into_bytes()
}

// ---------------------------------------------------------------------------
// Metrics aggregation
// ---------------------------------------------------------------------------

/// Stamps every sample line of a Prometheus text exposition with a
/// `node="…"` label, so one aggregated router scrape keeps each worker's
/// series apart. Comment lines are dropped — the aggregate would repeat
/// them per node, which the exposition format forbids.
pub(crate) fn inject_node_label(text: &str, node: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(brace) = line.find('{') {
            out.push_str(&line[..=brace]);
            out.push_str(&format!("node=\"{node}\""));
            if line[brace + 1..].trim_start().starts_with('}') {
                out.push_str(&line[brace + 1..]);
            } else {
                out.push(',');
                out.push_str(&line[brace + 1..]);
            }
        } else if let Some(space) = line.find(' ') {
            out.push_str(&line[..space]);
            out.push_str(&format!("{{node=\"{node}\"}}"));
            out.push_str(&line[space..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

/// Tuning knobs for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker daemons to route to, as `HOST:PORT` strings. The strings
    /// themselves are the hash-ring identities: a worker that restarts
    /// on the same address gets its keys back.
    pub peers: Vec<String>,
    /// Threads relaying client connections.
    pub workers: usize,
    /// Connections queued beyond busy relay threads before inline 503s.
    pub queue_cap: usize,
    /// Token-bucket refill rate, in run-weight tokens per second, per
    /// client IP. `None` disables admission control.
    pub rate_limit: Option<u64>,
    /// Socket timeout for client-side parsing and response writes.
    pub io_timeout: Duration,
    /// Ceiling on one buffered run relay or SSE tunnel; past it the
    /// router gives up on the peer (the run itself finishes on the
    /// worker).
    pub proxy_timeout: Duration,
    /// Timeout for one health poll, metric scrape or upstream connect.
    pub peer_timeout: Duration,
    /// Liveness poll cadence.
    pub poll_interval: Duration,
    /// Request parsing limits.
    pub limits: Limits,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            addr: "127.0.0.1:7878".to_string(),
            peers: Vec::new(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8),
            queue_cap: 64,
            rate_limit: None,
            io_timeout: Duration::from_secs(10),
            proxy_timeout: Duration::from_secs(600),
            peer_timeout: Duration::from_millis(500),
            poll_interval: Duration::from_millis(300),
            limits: Limits::default(),
        }
    }
}

/// The router's live view of one worker.
#[derive(Debug, Clone)]
struct PeerView {
    alive: bool,
    /// Queued + executing runs, from the worker's `/peer/health`.
    load: u64,
}

struct RouterState {
    opts: RouterOptions,
    recorder: Arc<Recorder>,
    started: Instant,
    /// The router's own `node` label in the aggregated `/metrics` view.
    node: String,
    /// Indexed like `opts.peers`; updated by the liveness poller.
    views: Mutex<Vec<PeerView>>,
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
    queue_depth: AtomicUsize,
    shutdown: Arc<AtomicBool>,
}

impl RouterState {
    /// Peer addresses to try for `key`, best first: the alive peers in
    /// rendezvous order, then the dead ones (the liveness view may be
    /// stale in either direction — a "dead" peer that answers is still a
    /// correct route). With no key, plain peer-list order.
    fn peer_order(&self, key: Option<&str>) -> Vec<String> {
        let ranked = match key {
            Some(key) => rendezvous_order(key, &self.opts.peers),
            None => (0..self.opts.peers.len()).collect(),
        };
        let views = self.views.lock().expect("peer views");
        let (alive, dead): (Vec<usize>, Vec<usize>) =
            ranked.into_iter().partition(|&i| views[i].alive);
        alive
            .into_iter()
            .chain(dead)
            .map(|i| self.opts.peers[i].clone())
            .collect()
    }

    /// Token-bucket admission for one run request; `Err` carries the
    /// ready-to-send 429.
    fn admit(&self, client: Option<IpAddr>, weight: u64) -> Result<(), Response> {
        let Some(rate) = self.opts.rate_limit else {
            return Ok(());
        };
        let ip = client.unwrap_or(IpAddr::from([127, 0, 0, 1]));
        let now = Instant::now();
        let mut buckets = self.buckets.lock().expect("admission buckets");
        let bucket = buckets
            .entry(ip)
            .or_insert_with(|| TokenBucket::new(rate, now));
        match bucket.try_take(weight, now) {
            Ok(()) => {
                self.recorder.counter_add("cluster.admitted", 1);
                Ok(())
            }
            Err(retry_after) => {
                self.recorder.counter_add("cluster.admission_drops", 1);
                Err(Response::error(
                    429,
                    &format!(
                        "rate limit: client exceeded {rate} weight-tokens/s; retry in \
                         {retry_after}s"
                    ),
                )
                .with_header("Retry-After", retry_after.to_string()))
            }
        }
    }
}

/// The cluster front door: a bound listener, a relay pool, and a
/// liveness poller. Construct with [`Router::bind`], then [`Router::run`]
/// until shutdown. Mirrors [`crate::serve::Server`]'s lifecycle so the
/// CLI treats both roles identically.
pub struct Router {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<RouterState>,
    pool: Pool<TcpStream>,
    shutdown: Arc<AtomicBool>,
}

impl Router {
    /// Binds the listener and spawns the relay pool.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an empty peer list, otherwise the bind
    /// error (address in use, permission, bad syntax).
    pub fn bind(opts: RouterOptions, recorder: Arc<Recorder>) -> std::io::Result<Router> {
        if opts.peers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one peer (--peers host:port,...)",
            ));
        }
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Peers start optimistically alive: workers commonly come up
        // moments after the router, and the relay path double-checks by
        // actually connecting. The poller corrects the view within one
        // interval either way.
        let views = opts
            .peers
            .iter()
            .map(|_| PeerView {
                alive: true,
                load: 0,
            })
            .collect();
        let state = Arc::new(RouterState {
            opts,
            recorder,
            started: Instant::now(),
            node: local_addr.to_string(),
            views: Mutex::new(views),
            buckets: Mutex::new(HashMap::new()),
            queue_depth: AtomicUsize::new(0),
            shutdown: Arc::clone(&shutdown),
        });
        let handler_state = Arc::clone(&state);
        let pool = Pool::new(
            state.opts.workers,
            state.opts.queue_cap,
            move |stream: TcpStream| {
                handler_state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                handle_connection(&handler_state, stream);
            },
        );
        Ok(Router {
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

    /// Installs signal handlers, starts the liveness poller, and relays
    /// until `SIGTERM`/`SIGINT` (or the [`Router::shutdown_handle`]
    /// flag), then drains the relay pool and joins the poller.
    ///
    /// # Errors
    ///
    /// Returns an I/O error only for unrecoverable listener failures;
    /// per-connection errors are answered with 4xx/5xx responses instead.
    pub fn run(self) -> std::io::Result<()> {
        let poller = spawn_poller(Arc::clone(&self.state));
        accept_until_shutdown(&self.listener, &self.shutdown, |stream| {
            self.dispatch(stream)
        });
        self.shutdown.store(true, Ordering::SeqCst); // signal path: tell the poller too
        drop(self.listener);
        self.pool.shutdown();
        let _ = poller.join();
        Ok(())
    }

    /// Hands an accepted connection to the pool, or answers `503` inline
    /// when saturated.
    fn dispatch(&self, stream: TcpStream) {
        self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
        if let Err(Saturated(stream)) = self.pool.try_submit(stream) {
            self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.state.recorder.counter_add("cluster.saturated", 1);
            reject_saturated(stream, "router queue is full");
        }
    }
}

/// The liveness poller: one thread sweeping `GET /peer/health` across
/// the fleet every poll interval, flipping [`PeerView`]s and counting
/// the up/down transitions.
fn spawn_poller(state: Arc<RouterState>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("router-poller".into())
        .spawn(move || {
            while !state.shutdown.load(Ordering::SeqCst) {
                let mut alive_now = 0i64;
                for (i, peer) in state.opts.peers.iter().enumerate() {
                    state.recorder.counter_add("cluster.health_polls", 1);
                    let load = poll_peer(peer, state.opts.peer_timeout);
                    let mut views = state.views.lock().expect("peer views");
                    let view = &mut views[i];
                    match load {
                        Some(load) => {
                            if !view.alive {
                                state.recorder.counter_add("cluster.peer_up", 1);
                            }
                            view.alive = true;
                            view.load = load;
                            alive_now += 1;
                        }
                        None => {
                            if view.alive {
                                state.recorder.counter_add("cluster.peer_down", 1);
                            }
                            view.alive = false;
                        }
                    }
                }
                state.recorder.gauge_set("cluster.peers_alive", alive_now);
                std::thread::sleep(state.opts.poll_interval);
            }
        })
        .expect("spawn router poller")
}

/// One health poll: alive means a complete 200 with a parseable body;
/// returns the worker's reported load.
fn poll_peer(peer: &str, timeout: Duration) -> Option<u64> {
    let raw = http_exchange(peer, &build_get("/peer/health"), timeout, timeout).ok()?;
    let response = parse_response(&raw)?;
    if response.status != 200 || !response.complete {
        return None;
    }
    let body: Value = serde_json::from_str(std::str::from_utf8(&response.body).ok()?).ok()?;
    let Value::Map(entries) = body else {
        return None;
    };
    let load = entries.iter().find_map(|(key, value)| match value {
        Value::Num(n) if key == "load" => n.parse::<u64>().ok(),
        _ => None,
    });
    Some(load.unwrap_or(0))
}

/// What the router did with a routed request.
enum Routed {
    /// A locally produced framed response (errors, local endpoints).
    Framed(Response),
    /// A complete upstream response to relay byte-for-byte.
    Raw(Vec<u8>),
}

/// Serves one router connection: parse once, route, respond, close.
/// Proxied responses are relayed verbatim (the upstream already framed
/// them `Connection: close`), so the router never reframes a worker's
/// bytes.
fn handle_connection(state: &Arc<RouterState>, stream: TcpStream) {
    let rec = &state.recorder;
    let started = Instant::now();
    let client_ip = stream.peer_addr().map(|addr| addr.ip()).ok();
    let _ = stream.set_read_timeout(Some(state.opts.io_timeout));
    let _ = stream.set_write_timeout(Some(state.opts.io_timeout));
    let mut reader = BufReader::new(stream);
    rec.counter_add("cluster.requests", 1);
    let request = match read_request(&mut reader, &state.opts.limits) {
        Ok(request) => request,
        Err(e) => {
            rec.counter_add("cluster.bad_requests", 1);
            let _ = Response::error(e.status, &e.message).write_to(reader.get_mut(), false);
            return;
        }
    };
    let label = route_label(&request);

    // A streamed run owns the socket: the router tunnels upstream bytes
    // until EOF and never frames a response of its own on success.
    if let Some(name) = streamed_run(&request) {
        if let Some(response) = tunnel_stream(state, name, &request, client_ip, reader.get_mut()) {
            count_status(rec, response.status);
            let _ = response.write_to(reader.get_mut(), false);
        }
        finish_telemetry(state, label, started);
        return;
    }

    match route(state, &request, client_ip) {
        Routed::Framed(response) => {
            count_status(rec, response.status);
            let _ = response.write_to(reader.get_mut(), false);
        }
        Routed::Raw(bytes) => {
            if let Some(parsed) = parse_response(&bytes) {
                count_status(rec, parsed.status);
            }
            if reader.get_mut().write_all(&bytes).is_err() {
                rec.counter_add("cluster.client_write_failures", 1);
            }
        }
    }
    finish_telemetry(state, label, started);
}

fn count_status(rec: &Recorder, status: u16) {
    match status / 100 {
        2 => rec.counter_add("cluster.http_2xx", 1),
        4 => rec.counter_add("cluster.http_4xx", 1),
        _ => rec.counter_add("cluster.http_5xx", 1),
    }
}

fn finish_telemetry(state: &RouterState, label: &'static str, started: Instant) {
    let rec = &state.recorder;
    rec.histogram_record_labeled(
        "cluster.request_wall_ms",
        "route",
        label,
        started.elapsed().as_millis() as u64,
    );
    rec.gauge_set(
        "cluster.queue_depth",
        state.queue_depth.load(Ordering::SeqCst) as i64,
    );
}

/// Static route label, mirroring the worker's cardinality discipline.
fn route_label(request: &Request) -> &'static str {
    let path = request.path.split('?').next().unwrap_or("");
    match path {
        "/healthz" => "healthz",
        "/experiments" => "experiments",
        "/metrics" => "metrics",
        _ if path.starts_with("/run/") => "run",
        _ => "other",
    }
}

/// Routes a framed (non-SSE) request.
fn route(state: &Arc<RouterState>, request: &Request, client_ip: Option<IpAddr>) -> Routed {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Routed::Framed(router_healthz(state)),
        ("GET", "/experiments") => Routed::Framed(crate::serve::experiments()),
        ("GET", "/metrics") => Routed::Framed(metrics_aggregate(state)),
        ("POST", run_path) if run_path.starts_with("/run/") => {
            proxy_run(state, request, client_ip, &run_path["/run/".len()..])
        }
        (_, "/healthz" | "/experiments" | "/metrics") => {
            Routed::Framed(Response::error(405, "method not allowed").with_header("Allow", "GET"))
        }
        (_, run_path) if run_path.starts_with("/run/") => {
            Routed::Framed(Response::error(405, "method not allowed").with_header("Allow", "POST"))
        }
        _ => Routed::Framed(Response::error(404, &format!("no such endpoint '{path}'"))),
    }
}

/// `GET /healthz` on the router: role, uptime, and the live peer view.
fn router_healthz(state: &RouterState) -> Response {
    let views = state.views.lock().expect("peer views").clone();
    let alive = views.iter().filter(|view| view.alive).count();
    let peers: Vec<Value> = state
        .opts
        .peers
        .iter()
        .zip(&views)
        .map(|(addr, view)| {
            Value::Map(vec![
                ("addr".into(), json_str(addr)),
                ("alive".into(), Value::Bool(view.alive)),
                ("load".into(), json_num(view.load)),
            ])
        })
        .collect();
    let mut body = vec![
        ("status".into(), json_str("ok")),
        ("role".into(), json_str("router")),
        (
            "uptime_ms".into(),
            json_num(state.started.elapsed().as_millis()),
        ),
        ("peers_alive".into(), json_num(alive)),
        ("peers".into(), Value::Seq(peers)),
    ];
    if let Some(rate) = state.opts.rate_limit {
        body.push(("rate_limit".into(), json_num(rate)));
    }
    Response::json(200, to_json(&Value::Map(body)))
}

/// `GET /metrics` on the router: its own samples plus every alive
/// worker's scrape, all stamped with `node="…"` labels.
fn metrics_aggregate(state: &RouterState) -> Response {
    let mut out = inject_node_label(&state.recorder.prometheus_text(), &state.node);
    for peer in state.peer_order(None) {
        state.recorder.counter_add("cluster.metrics_scrapes", 1);
        let Ok(raw) = http_exchange(
            &peer,
            &build_get("/metrics"),
            state.opts.peer_timeout,
            state.opts.peer_timeout,
        ) else {
            continue;
        };
        let Some(response) = parse_response(&raw) else {
            continue;
        };
        if response.status != 200 || !response.complete {
            continue;
        }
        if let Ok(text) = std::str::from_utf8(&response.body) {
            out.push_str(&inject_node_label(text, &peer));
        }
    }
    Response::text(200, out)
}

/// `POST /run/{experiment}` on the router: validate exactly like a
/// worker, admission-control, then relay to the rendezvous-ranked peers
/// in order until one returns a complete response. Incomplete or
/// unreachable peers cost a failover, never a client-visible error, as
/// long as any peer can answer (runs are idempotent and coalesce on the
/// workers, so a retried run is cheap).
fn proxy_run(
    state: &Arc<RouterState>,
    request: &Request,
    client_ip: Option<IpAddr>,
    name: &str,
) -> Routed {
    let prepared = match prepare_run(name, request) {
        Ok(prepared) => prepared,
        Err(response) => return Routed::Framed(response),
    };
    if let Err(denied) = state.admit(client_ip, prepared.experiment.weight) {
        return Routed::Framed(denied);
    }
    let key = route_key(&prepared.key);
    let order = state.peer_order(Some(&key));
    let raw_request = build_proxy_request(request);
    let mut fault = FaultPlan::from_env().proxy;
    let mut attempts = 0u64;
    for peer in order {
        attempts += 1;
        if attempts > 1 {
            state.recorder.counter_add("cluster.failovers", 1);
        }
        let raw = match http_exchange(
            &peer,
            &raw_request,
            state.opts.peer_timeout,
            state.opts.proxy_timeout,
        ) {
            Ok(raw) => raw,
            Err(_) => {
                state.recorder.counter_add("cluster.peer_unreachable", 1);
                continue;
            }
        };
        // The injected fault (if any) burns on the first upstream that
        // actually answered; the retry demonstrates clean degradation.
        let Some(raw) = apply_fault(raw, fault.take()) else {
            state.recorder.counter_add("cluster.proxy_faulted", 1);
            continue;
        };
        match parse_response(&raw) {
            Some(response) if response.complete => {
                state.recorder.counter_add("cluster.routed_runs", 1);
                return Routed::Raw(raw);
            }
            _ => {
                state.recorder.counter_add("cluster.proxy_truncated", 1);
                continue;
            }
        }
    }
    state.recorder.counter_add("cluster.no_peer_available", 1);
    Routed::Framed(Response::error(
        502,
        &format!("no peer could complete the run ({attempts} attempted)"),
    ))
}

/// Tunnels a streamed run of experiment `name`: validate and admit it as
/// [`proxy_run`] does, pick the upstream by rendezvous, send the rebuilt
/// request, and relay upstream bytes to the client until EOF. Failover
/// happens only while zero bytes have been relayed — once the stream has
/// started, a dying worker simply truncates it (the client sees EOF and
/// retries; the retried run fails over by the normal route).
///
/// Returns `Some(response)` when nothing was relayed and the client
/// should get a framed error instead.
fn tunnel_stream(
    state: &Arc<RouterState>,
    name: &str,
    request: &Request,
    client_ip: Option<IpAddr>,
    client: &mut TcpStream,
) -> Option<Response> {
    let prepared = match prepare_run(name, request) {
        Ok(prepared) => prepared,
        Err(response) => return Some(response),
    };
    if let Err(denied) = state.admit(client_ip, prepared.experiment.weight) {
        return Some(denied);
    }
    let order = state.peer_order(Some(&route_key(&prepared.key)));
    state.recorder.counter_add("cluster.sse_tunnels", 1);
    let raw_request = build_proxy_request(request);
    for peer in order {
        match tunnel_relay(state, &peer, &raw_request, client) {
            TunnelOutcome::Relayed => return None,
            TunnelOutcome::Truncated => {
                state.recorder.counter_add("cluster.tunnel_truncated", 1);
                return None;
            }
            TunnelOutcome::NothingSent => {
                state.recorder.counter_add("cluster.peer_unreachable", 1);
            }
        }
    }
    state.recorder.counter_add("cluster.no_peer_available", 1);
    Some(Response::error(503, "no alive peer to stream from"))
}

enum TunnelOutcome {
    /// The upstream stream completed (EOF after at least one byte).
    Relayed,
    /// Bytes were relayed but the upstream (or client) died mid-stream;
    /// the client connection is no longer reusable.
    Truncated,
    /// The peer never produced a byte — safe to try the next one.
    NothingSent,
}

/// The byte pump for one tunnel attempt. Short read timeouts keep the
/// loop responsive to router shutdown; the proxy timeout bounds the
/// total stream lifetime.
fn tunnel_relay(
    state: &RouterState,
    peer: &str,
    raw_request: &[u8],
    client: &mut TcpStream,
) -> TunnelOutcome {
    let Ok(target) = resolve(peer) else {
        return TunnelOutcome::NothingSent;
    };
    let Ok(mut upstream) = TcpStream::connect_timeout(&target, state.opts.peer_timeout) else {
        return TunnelOutcome::NothingSent;
    };
    let _ = upstream.set_write_timeout(Some(state.opts.peer_timeout));
    if upstream.write_all(raw_request).is_err() || upstream.shutdown(Shutdown::Write).is_err() {
        return TunnelOutcome::NothingSent;
    }
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(500)));
    let deadline = Instant::now() + state.opts.proxy_timeout;
    let mut relayed = 0u64;
    let mut buf = [0u8; 8192];
    loop {
        if state.shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
            break;
        }
        match upstream.read(&mut buf) {
            Ok(0) => {
                return if relayed > 0 {
                    TunnelOutcome::Relayed
                } else {
                    TunnelOutcome::NothingSent
                };
            }
            Ok(n) => {
                if client.write_all(&buf[..n]).is_err() {
                    state
                        .recorder
                        .counter_add("cluster.client_write_failures", 1);
                    return TunnelOutcome::Truncated;
                }
                relayed += n as u64;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    if relayed > 0 {
        TunnelOutcome::Truncated
    } else {
        TunnelOutcome::NothingSent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    #[test]
    fn hrw_scores_are_deterministic_and_sensitive() {
        assert_eq!(hrw_score("key-1", "node-a"), hrw_score("key-1", "node-a"));
        assert_ne!(hrw_score("key-1", "node-a"), hrw_score("key-2", "node-a"));
        assert_ne!(hrw_score("key-1", "node-a"), hrw_score("key-1", "node-b"));
    }

    #[test]
    fn rendezvous_order_is_a_permutation() {
        let nodes = nodes(5);
        let order = rendezvous_order("job-42", &nodes);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>());
        assert_eq!(order, rendezvous_order("job-42", &nodes));
    }

    #[test]
    fn route_key_tracks_every_run_dimension() {
        let base = RunKey {
            experiment: "table3",
            quick: true,
            seed: None,
        };
        let same = route_key(&base);
        assert_eq!(same, route_key(&base.clone()));
        let variants = [
            RunKey {
                experiment: "table4",
                ..base.clone()
            },
            RunKey {
                quick: false,
                ..base.clone()
            },
            RunKey {
                seed: Some(7),
                ..base.clone()
            },
        ];
        for variant in variants {
            assert_ne!(same, route_key(&variant), "{variant:?} collided");
        }
    }

    /// A fleet's shard assignment follows from these digests; a drift in
    /// the canonical string would re-shard every fleet.
    #[test]
    fn route_key_is_pinned() {
        let warm = RunKey {
            experiment: "table1",
            quick: false,
            seed: None,
        };
        assert_eq!(route_key(&warm), "c94cc08d31e3fcce758ab6fb0e346bbe");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ownership spreads evenly: across 3–16 nodes, every node owns
        /// its fair share of a fixed key corpus within ±15%.
        #[test]
        fn rendezvous_distribution_is_uniform(n in 3usize..=16) {
            let nodes = nodes(n);
            let keys_per_node = 600usize;
            let total = keys_per_node * n;
            let mut owned = vec![0usize; n];
            for i in 0..total {
                let key = format!("job-{i}");
                owned[rendezvous_order(&key, &nodes)[0]] += 1;
            }
            let expected = keys_per_node as f64;
            for (i, &count) in owned.iter().enumerate() {
                let deviation = (count as f64 - expected).abs() / expected;
                prop_assert!(
                    deviation <= 0.15,
                    "node {i} owns {count} of an expected {expected} (deviation {:.1}%)",
                    deviation * 100.0
                );
            }
        }

        /// A node joining moves keys only *to* the new node, and not many
        /// of them: roughly 1/(n+1) of the corpus.
        #[test]
        fn single_join_moves_minimal_keys(n in 3usize..=15) {
            let before = nodes(n);
            let after = nodes(n + 1);
            let total = 2_000usize;
            let mut moved = 0usize;
            for i in 0..total {
                let key = format!("job-{i}");
                let old = rendezvous_order(&key, &before)[0];
                let new = rendezvous_order(&key, &after)[0];
                if old != new {
                    // The only legal destination is the newcomer.
                    prop_assert_eq!(new, n, "key {} moved between old nodes", key);
                    moved += 1;
                }
            }
            let expected = total / (n + 1);
            prop_assert!(
                moved <= expected * 2,
                "{moved} keys moved on join; expected about {expected}"
            );
        }

        /// A node leaving relocates only the keys it owned; every other
        /// key keeps its owner — the failover/failback invariant.
        #[test]
        fn single_leave_only_moves_the_lost_nodes_keys(n in 4usize..=16, gone in 0usize..4) {
            let before = nodes(n);
            let gone = gone % n;
            let mut after = before.clone();
            after.remove(gone);
            for i in 0..2_000usize {
                let key = format!("job-{i}");
                let old_owner = &before[rendezvous_order(&key, &before)[0]];
                let new_owner = &after[rendezvous_order(&key, &after)[0]];
                if old_owner != &before[gone] {
                    prop_assert_eq!(old_owner, new_owner, "unaffected key {} moved", key);
                } else {
                    // The displaced key lands on its old runner-up.
                    let runner_up = &before[rendezvous_order(&key, &before)[1]];
                    prop_assert_eq!(new_owner, runner_up, "key {} skipped its failover", key);
                }
            }
        }
    }

    #[test]
    fn token_bucket_admits_until_empty_and_refills() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1, t0); // 1 token/s, 2 s burst
        assert!(bucket.try_take(1, t0).is_ok());
        assert!(bucket.try_take(1, t0).is_ok());
        let retry = bucket.try_take(1, t0).expect_err("burst exhausted");
        assert_eq!(retry, 1);
        // After 1.5 s the refill covers one token again.
        let t1 = t0 + Duration::from_millis(1_500);
        assert!(bucket.try_take(1, t1).is_ok());
        assert!(bucket.try_take(1, t1).is_err());
    }

    #[test]
    fn token_bucket_clamps_oversized_costs_to_the_burst() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(2, t0); // burst = 4 tokens
                                                  // A 1000-weight run charges the full burst, not forever.
        assert!(bucket.try_take(1_000, t0).is_ok());
        let retry = bucket.try_take(1_000, t0).expect_err("bucket drained");
        assert_eq!(retry, 2);
        let t1 = t0 + Duration::from_secs(2);
        assert!(bucket.try_take(1_000, t1).is_ok());
    }

    #[test]
    fn fault_plan_parses_points_and_kinds() {
        assert_eq!(FaultPlan::parse(""), FaultPlan::default());
        assert_eq!(
            FaultPlan::parse("proxy=truncate"),
            FaultPlan {
                proxy: Some(FaultKind::Truncate)
            }
        );
        assert_eq!(
            FaultPlan::parse(" proxy=delay:250"),
            FaultPlan {
                proxy: Some(FaultKind::Delay(250))
            }
        );
        // Unknown points (such as `peer`) and garbage terms are ignored;
        // valid ones still land.
        assert_eq!(
            FaultPlan::parse("bogus,peer=drop,proxy=drop,proxy=delay:x"),
            FaultPlan {
                proxy: Some(FaultKind::Drop)
            }
        );
    }

    #[test]
    fn faults_degrade_never_escalate() {
        let payload = b"0123456789".to_vec();
        assert_eq!(apply_fault(payload.clone(), None), Some(payload.clone()));
        assert_eq!(apply_fault(payload.clone(), Some(FaultKind::Drop)), None);
        assert_eq!(
            apply_fault(payload.clone(), Some(FaultKind::Truncate)),
            Some(b"01234".to_vec())
        );
        assert_eq!(
            apply_fault(payload.clone(), Some(FaultKind::Delay(1))),
            Some(payload)
        );
    }

    /// The proxy's verdict on faulted upstream bytes is always
    /// "failover", never a relayed corpse: a dropped exchange parses to
    /// nothing and a truncated one fails the completeness check.
    #[test]
    fn faulted_proxy_responses_are_failover_not_5xx() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        for fault in [FaultKind::Drop, FaultKind::Truncate] {
            let relayable = apply_fault(wire.to_vec(), Some(fault))
                .and_then(|raw| parse_response(&raw))
                .is_some_and(|response| response.complete);
            assert!(!relayable, "{fault:?} must force a failover");
        }
        // Delay leaves the bytes whole: relayed, not failed over.
        let delayed = apply_fault(wire.to_vec(), Some(FaultKind::Delay(1)))
            .and_then(|raw| parse_response(&raw))
            .expect("delayed bytes still parse");
        assert!(delayed.complete);
        assert_eq!(delayed.status, 200);
        assert_eq!(delayed.body, b"hello");
    }

    /// Any byte.
    fn byte() -> impl Strategy<Value = u8> {
        (0u32..256).prop_map(|b| b as u8)
    }

    #[test]
    fn parse_response_flags_short_bodies() {
        let whole = b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nabc";
        let parsed = parse_response(whole).expect("parses");
        assert_eq!(parsed.status, 404);
        assert!(parsed.complete);
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(!parse_response(short).expect("parses").complete);
        assert!(parse_response(b"garbage").is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_some());
    }

    /// A response framed by `Content-Length: {declared}` around `body`.
    fn response_wire(status: u16, declared: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "HTTP/1.1 {status} Whatever\r\nContent-Length: {declared}\r\nConnection: close\r\n\r\n"
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the response parser.
        #[test]
        fn parse_response_never_panics(
            bytes in proptest::collection::vec(byte(), 0..=4096),
        ) {
            let _ = parse_response(&bytes);
        }

        /// A well-formed response parses whole and complete. None of its
        /// prefixes panics, and none passes as complete.
        #[test]
        fn response_prefixes_are_never_complete(
            status in 100u32..600,
            body in proptest::collection::vec(byte(), 0..=64),
        ) {
            let wire = response_wire(status as u16, &body.len().to_string(), &body);
            let whole = parse_response(&wire).expect("a well-formed response parses");
            prop_assert!(whole.complete);
            prop_assert_eq!(whole.status, status as u16);
            prop_assert_eq!(&whole.body, &body);
            for end in 0..wire.len() {
                if let Some(partial) = parse_response(&wire[..end]) {
                    prop_assert!(!partial.complete, "prefix of {} bytes is complete", end);
                }
            }
        }

        /// A body that disagrees with its Content-Length is never
        /// complete, including when the Content-Length does not parse.
        #[test]
        fn mismatched_content_lengths_are_never_complete(
            body in proptest::collection::vec(byte(), 0..=64),
            declared in prop_oneof![
                (0usize..128).prop_map(|n| n.to_string()),
                "[a-z]{1,8}",
                Just(String::new()),
                Just("-1".to_string()),
                Just("1e3".to_string()),
            ],
        ) {
            prop_assume!(declared.parse::<usize>().ok() != Some(body.len()));
            let parsed = parse_response(&response_wire(200, &declared, &body))
                .expect("the head is well-formed");
            prop_assert!(!parsed.complete, "Content-Length '{}' passed", declared);
        }
    }

    /// Router state for driving [`tunnel_relay`] directly: no listener and
    /// no poller.
    fn relay_state() -> RouterState {
        RouterState {
            opts: RouterOptions {
                peer_timeout: Duration::from_secs(2),
                proxy_timeout: Duration::from_secs(10),
                ..RouterOptions::default()
            },
            recorder: Arc::new(Recorder::new()),
            started: Instant::now(),
            node: "router".into(),
            views: Mutex::new(Vec::new()),
            buckets: Mutex::new(HashMap::new()),
            queue_depth: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// One relay attempt against an upstream that reads the request, sends
    /// `payload` and closes. Returns the outcome and every byte the
    /// client end received.
    fn relay_once(state: &RouterState, payload: Vec<u8>) -> (TunnelOutcome, Vec<u8>) {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let peer = upstream.local_addr().expect("upstream addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().expect("relay connects");
            // Read the request to its half-close, so closing afterwards
            // sends FIN, not a reset.
            conn.read_to_end(&mut Vec::new()).expect("read request");
            conn.write_all(&payload).expect("write payload");
        });
        let clients = TcpListener::bind("127.0.0.1:0").expect("bind client side");
        let mut client =
            TcpStream::connect(clients.local_addr().expect("client addr")).expect("connect client");
        let (mut relay_end, _) = clients.accept().expect("accept client");
        let outcome = tunnel_relay(
            state,
            &peer,
            b"POST /run/table1?stream=events HTTP/1.1\r\n\r\n",
            &mut relay_end,
        );
        server.join().expect("upstream thread");
        drop(relay_end);
        let mut received = Vec::new();
        client
            .read_to_end(&mut received)
            .expect("read relayed bytes");
        (outcome, received)
    }

    proptest! {
        // Each case opens three sockets.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The client receives exactly the bytes the upstream sent, and
        /// the outcome is `NothingSent` exactly when it sent none.
        #[test]
        fn tunnel_relay_forwards_every_byte(
            payload in prop_oneof![
                Just(Vec::new()),
                proptest::collection::vec(byte(), 1..=16),
                proptest::collection::vec(byte(), 1..=8192),
            ],
        ) {
            let (outcome, received) = relay_once(&relay_state(), payload.clone());
            prop_assert_eq!(&received, &payload);
            prop_assert_eq!(matches!(outcome, TunnelOutcome::NothingSent), payload.is_empty());
            prop_assert_eq!(matches!(outcome, TunnelOutcome::Relayed), !payload.is_empty());
        }
    }

    #[test]
    fn node_label_injection_covers_both_sample_shapes() {
        let text = "# HELP serve_requests count\n\
                    # TYPE serve_requests counter\n\
                    serve_requests 42\n\
                    wall_ms{route=\"run\",q=\"0.5\"} 7\n";
        let labeled = inject_node_label(text, "127.0.0.1:7001");
        assert_eq!(
            labeled,
            "serve_requests{node=\"127.0.0.1:7001\"} 42\n\
             wall_ms{node=\"127.0.0.1:7001\",route=\"run\",q=\"0.5\"} 7\n"
        );
    }

    #[test]
    fn proxy_request_preserves_path_query_and_body() {
        let wire = b"POST /run/table3?format=text HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"quick\": true}";
        let request = {
            let mut reader = BufReader::new(&wire[..]);
            read_request(&mut reader, &Limits::default()).expect("parses")
        };
        let rebuilt = build_proxy_request(&request);
        let text = String::from_utf8(rebuilt).expect("utf8");
        assert!(text.starts_with("POST /run/table3?format=text HTTP/1.1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.ends_with("Content-Length: 15\r\n\r\n{\"quick\": true}"));
    }
}
