//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [flags]
//! repro all [flags]
//! repro list
//! repro cache-gc --cache-dir DIR [--max-entries N] [--max-trace-bytes N]
//! repro serve [--addr HOST:PORT] [flags]
//!
//! flags:
//!   --quick             reduced-scale config (3 machines, short windows)
//!   --sampling <MODE>   exact (default) or simpoint: phase-sampled
//!                       simulation — clusters trace intervals and
//!                       simulates only representatives (approximate,
//!                       error-budgeted; see DESIGN.md §15)
//!   --sampling-interval <N>    simpoint: instructions per interval
//!   --sampling-max-phases <N>  simpoint: cluster/phase budget
//!   --jobs <N>          worker threads (overrides HORIZON_JOBS)
//!   --cache-dir <DIR>   persist measurements to an on-disk cache (also
//!                       enables a packed trace store at DIR/traces)
//!   --trace-store <DIR> persist packed instruction traces at DIR
//!                       (overrides the DIR/traces default)
//!   --no-trace-store    disable the trace store entirely
//!   --stats             print engine statistics and the per-phase
//!                       wall-clock table to stderr when done
//!   --progress          live progress lines on stderr while the run
//!                       executes (phases, jobs done/total, ETA); stdout
//!                       report bytes are unaffected
//!   --trace-out <FILE>  write the run's telemetry trace as JSONL
//!   --metrics-out <FILE> write counters/histograms in Prometheus text form
//!   --otlp-out <FILE>   write spans as an OTLP/JSON trace-export document
//!   --max-entries <N>   cache-gc: measurement entries to keep (default 1024)
//!   --max-trace-bytes <N>  cache-gc: trace-store byte budget
//!                       (default 268435456 = 256 MiB)
//!   --addr <HOST:PORT>  serve: bind address (default 127.0.0.1:7878)
//!   --workers <N>       serve: request worker threads
//!   --queue-cap <N>     serve: queued connections beyond busy workers
//!                       (past the cap requests get 503 + Retry-After)
//!   --request-timeout-ms <N>  serve: default per-run deadline
//!   --role <ROLE>       serve: cluster role, router or worker
//!   --peers <LIST>      serve: comma-separated HOST:PORT peers — the
//!                       fleet a router routes to, or the siblings a
//!                       worker pulls packed traces from on a miss
//!   --rate-limit <N>    serve (router): per-client token-bucket refill
//!                       rate in run-weight tokens per second
//! ```
//!
//! Unknown flags are rejected with exit code 2. Experiment reports go to
//! stdout and are bit-identical regardless of `--jobs`, `HORIZON_JOBS` or
//! cache state; statistics, traces and metrics go to stderr or files so
//! report output stays diffable.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use horizon_bench::cluster::{peer_fetch, Router, RouterOptions};
use horizon_bench::serve::{ServeOptions, Server};
use horizon_bench::{find_experiment, run_experiment, ReproConfig, REGISTRY};
use horizon_core::campaign::SamplingPolicy;
use horizon_engine::{DiskCache, Engine, EngineStats, TraceStore};
use horizon_simpoint::SimPointConfig;
use horizon_telemetry::{EventKind, Recorder};
use std::time::{Duration, Instant};

struct Options {
    target: Option<String>,
    quick: bool,
    sampling: Option<String>,
    sampling_interval: Option<u64>,
    sampling_max_phases: Option<u64>,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    trace_store: Option<String>,
    no_trace_store: bool,
    max_trace_bytes: Option<u64>,
    stats: bool,
    progress: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    otlp_out: Option<String>,
    max_entries: Option<usize>,
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    request_timeout_ms: Option<u64>,
    role: Option<String>,
    peers: Option<String>,
    rate_limit: Option<u64>,
}

impl Options {
    /// Whether the recorder keeps span records. Only `--stats`,
    /// `--trace-out` and `--otlp-out` read them, so a daemon keeps them
    /// only when one of those is given; otherwise its memory would grow
    /// with every request. Batch runs are short-lived and always keep
    /// them.
    fn retains_spans(&self) -> bool {
        self.target.as_deref() != Some("serve")
            || self.stats
            || self.trace_out.is_some()
            || self.otlp_out.is_some()
    }
}

enum ParseError {
    UnknownFlag(String),
    ExtraArgument(String),
    MissingValue(&'static str),
    BadValue(&'static str, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            ParseError::ExtraArgument(arg) => write!(f, "unexpected argument '{arg}'"),
            ParseError::MissingValue(flag) => write!(f, "flag '{flag}' expects a value"),
            ParseError::BadValue(flag, value) => {
                write!(f, "invalid value '{value}' for flag '{flag}'")
            }
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, ParseError> {
    let mut opts = Options {
        target: None,
        quick: false,
        sampling: None,
        sampling_interval: None,
        sampling_max_phases: None,
        jobs: None,
        cache_dir: None,
        trace_store: None,
        no_trace_store: false,
        max_trace_bytes: None,
        stats: false,
        progress: false,
        trace_out: None,
        metrics_out: None,
        otlp_out: None,
        max_entries: None,
        addr: None,
        workers: None,
        queue_cap: None,
        request_timeout_ms: None,
        role: None,
        peers: None,
        rate_limit: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &'static str| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(ParseError::MissingValue(name))
        };
        match flag {
            "--quick" => opts.quick = true,
            "--sampling" => {
                let v = value("--sampling")?;
                if v != "exact" && v != "simpoint" {
                    return Err(ParseError::BadValue("--sampling", v));
                }
                opts.sampling = Some(v);
            }
            "--sampling-interval" => {
                let v = value("--sampling-interval")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--sampling-interval", v))?;
                opts.sampling_interval = Some(n);
            }
            "--sampling-max-phases" => {
                let v = value("--sampling-max-phases")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--sampling-max-phases", v))?;
                opts.sampling_max_phases = Some(n);
            }
            "--stats" => opts.stats = true,
            "--progress" => opts.progress = true,
            "--jobs" => {
                let v = value("--jobs")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--jobs", v))?;
                opts.jobs = Some(n);
            }
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--trace-store" => opts.trace_store = Some(value("--trace-store")?),
            "--no-trace-store" => opts.no_trace_store = true,
            "--max-trace-bytes" => {
                let v = value("--max-trace-bytes")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .ok_or(ParseError::BadValue("--max-trace-bytes", v))?;
                opts.max_trace_bytes = Some(n);
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--otlp-out" => opts.otlp_out = Some(value("--otlp-out")?),
            "--max-entries" => {
                let v = value("--max-entries")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .ok_or(ParseError::BadValue("--max-entries", v))?;
                opts.max_entries = Some(n);
            }
            "--addr" => opts.addr = Some(value("--addr")?),
            "--workers" => {
                let v = value("--workers")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--workers", v))?;
                opts.workers = Some(n);
            }
            "--queue-cap" => {
                let v = value("--queue-cap")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--queue-cap", v))?;
                opts.queue_cap = Some(n);
            }
            "--request-timeout-ms" => {
                let v = value("--request-timeout-ms")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--request-timeout-ms", v))?;
                opts.request_timeout_ms = Some(n);
            }
            "--role" => {
                let v = value("--role")?;
                if v != "router" && v != "worker" {
                    return Err(ParseError::BadValue("--role", v));
                }
                opts.role = Some(v);
            }
            "--peers" => {
                let v = value("--peers")?;
                if v.is_empty() || v.split(',').any(|peer| peer.trim().is_empty()) {
                    return Err(ParseError::BadValue("--peers", v));
                }
                opts.peers = Some(v);
            }
            "--rate-limit" => {
                let v = value("--rate-limit")?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ParseError::BadValue("--rate-limit", v))?;
                opts.rate_limit = Some(n);
            }
            other if other.starts_with("--") => {
                return Err(ParseError::UnknownFlag(other.to_string()));
            }
            positional => {
                if opts.target.is_some() {
                    return Err(ParseError::ExtraArgument(positional.to_string()));
                }
                opts.target = Some(positional.to_string());
            }
        }
    }
    Ok(opts)
}

/// Known non-experiment subcommands, for usage and error messages.
const SUBCOMMANDS: &str = "all, list, serve, cache-gc, help";

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--sampling exact|simpoint] \
         [--sampling-interval N] [--sampling-max-phases N] [--jobs N] [--cache-dir DIR] \
         [--trace-store DIR] [--no-trace-store] [--stats] [--progress] [--trace-out FILE] \
         [--metrics-out FILE] [--otlp-out FILE]\n\
         \x20      repro cache-gc --cache-dir DIR [--max-entries N] [--max-trace-bytes N]\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--request-timeout-ms N] [--jobs N] [--cache-dir DIR] [--trace-store DIR] \
         [--role router|worker] [--peers HOST:PORT,...] [--rate-limit N]"
    );
    eprintln!("subcommands: {SUBCOMMANDS}");
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!("experiments: {}", ids.join(", "));
}

/// The trace-store byte budget `cache-gc` prunes to when
/// `--max-trace-bytes` is not given: 256 MiB.
const DEFAULT_MAX_TRACE_BYTES: u64 = 256 << 20;

/// Prunes the on-disk cache down to `max_entries` LRU entries, and the
/// trace store (if one is in play) down to `--max-trace-bytes`.
fn run_cache_gc(opts: &Options) -> u8 {
    let Some(dir) = &opts.cache_dir else {
        eprintln!("error: cache-gc requires --cache-dir");
        return 2;
    };
    let max_entries = opts.max_entries.unwrap_or(1024);
    let cache = match DiskCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("error: cannot open cache dir '{dir}': {e}");
            return 1;
        }
    };
    let mut report = match cache.gc(max_entries) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: cache gc failed for '{dir}': {e}");
            return 1;
        }
    };
    println!(
        "cache-gc: examined {} entries, removed {}, reclaimed {} bytes, retained {}",
        report.examined, report.removed, report.reclaimed_bytes, report.retained
    );

    // Prune the trace store too: an explicit --trace-store DIR always, the
    // implicit <cache-dir>/traces only when it exists (so a gc pass never
    // conjures an empty store directory).
    let trace_dir = match (&opts.trace_store, opts.no_trace_store) {
        (_, true) => None,
        (Some(dir), _) => Some(std::path::PathBuf::from(dir)),
        (None, _) => {
            let implicit = std::path::Path::new(dir).join("traces");
            implicit.is_dir().then_some(implicit)
        }
    };
    if let Some(trace_dir) = trace_dir {
        let store = match TraceStore::open(&trace_dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!(
                    "error: cannot open trace store '{}': {e}",
                    trace_dir.display()
                );
                return 1;
            }
        };
        match store.gc(opts.max_trace_bytes.unwrap_or(DEFAULT_MAX_TRACE_BYTES)) {
            Ok(trace) => {
                report.absorb_trace(&trace);
                println!(
                    "cache-gc: examined {} traces, removed {}, reclaimed {} bytes, \
                     retained {} ({} bytes)",
                    report.trace_examined,
                    report.trace_removed,
                    report.trace_reclaimed_bytes,
                    report.trace_retained,
                    report.trace_retained_bytes
                );
                if report.trace_tmp_removed > 0 {
                    println!(
                        "cache-gc: pruned {} orphaned temp file(s), reclaimed {} bytes",
                        report.trace_tmp_removed, report.trace_tmp_reclaimed_bytes
                    );
                }
            }
            Err(e) => {
                eprintln!("error: trace gc failed for '{}': {e}", trace_dir.display());
                return 1;
            }
        }
    }
    0
}

/// Runs the cluster router until SIGTERM/SIGINT: no engine of its own,
/// just rendezvous routing, admission control and relays over `--peers`.
fn run_router(opts: &Options, recorder: std::sync::Arc<Recorder>) -> u8 {
    let mut router_opts = RouterOptions::default();
    if let Some(addr) = &opts.addr {
        router_opts.addr = addr.clone();
    }
    if let Some(workers) = opts.workers {
        router_opts.workers = workers;
    }
    if let Some(cap) = opts.queue_cap {
        router_opts.queue_cap = cap;
    }
    if let Some(ms) = opts.request_timeout_ms {
        router_opts.proxy_timeout = Duration::from_millis(ms);
    }
    router_opts.rate_limit = opts.rate_limit;
    router_opts.peers = split_peers(opts.peers.as_deref().unwrap_or(""));
    let addr = router_opts.addr.clone();
    let router = match Router::bind(router_opts, recorder) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: cannot bind '{addr}': {e}");
            return 1;
        }
    };
    // Same ready line as a worker: smoke tests and scripts parse the
    // resolved (possibly ephemeral) port from it regardless of role.
    eprintln!("repro-serve listening on http://{}", router.local_addr());
    match router.run() {
        Ok(()) => {
            eprintln!("repro-serve: drained in-flight work, shutting down cleanly");
            0
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            1
        }
    }
}

/// `--peers` as a list: comma-separated, whitespace-tolerant.
fn split_peers(list: &str) -> Vec<String> {
    list.split(',')
        .map(|peer| peer.trim().to_string())
        .filter(|peer| !peer.is_empty())
        .collect()
}

/// Runs the persistent daemon until SIGTERM/SIGINT, then drains.
fn run_serve(
    opts: &Options,
    engine: std::sync::Arc<Engine>,
    recorder: std::sync::Arc<Recorder>,
) -> u8 {
    if opts.role.as_deref() == Some("router") {
        return run_router(opts, recorder);
    }
    let mut serve_opts = ServeOptions::default();
    if let Some(addr) = &opts.addr {
        serve_opts.addr = addr.clone();
    }
    if let Some(workers) = opts.workers {
        serve_opts.workers = workers;
    }
    if let Some(cap) = opts.queue_cap {
        serve_opts.queue_cap = cap;
    }
    if let Some(ms) = opts.request_timeout_ms {
        serve_opts.request_timeout = Duration::from_millis(ms);
    }
    let addr = serve_opts.addr.clone();
    let server = match Server::bind(serve_opts, engine, recorder, opts.jobs) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind '{addr}': {e}");
            return 1;
        }
    };
    // The ready line is load-bearing: smoke tests and scripts parse the
    // resolved (possibly ephemeral) port from it.
    eprintln!("repro-serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(()) => {
            eprintln!("repro-serve: drained in-flight work, shutting down cleanly");
            0
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            1
        }
    }
}

/// Writes a telemetry sink file, mapping failure to a stderr message.
fn write_sink(
    path: &str,
    label: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> bool {
    let result = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            write(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: cannot write {label} to '{path}': {e}");
            false
        }
    }
}

/// Minimum spacing between `--progress` job-count lines, so a fast run
/// doesn't flood stderr (phase transitions always print).
const PROGRESS_THROTTLE: Duration = Duration::from_millis(150);

/// The `--progress` stderr renderer: a thread subscribed to the live
/// event bus, filtered to the batch run, printing phase transitions and
/// throttled jobs-done/ETA lines. Strictly stderr — stdout report bytes
/// stay diffable.
struct ProgressView {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressView {
    fn start(recorder: &Recorder, run: u64) -> ProgressView {
        let sub = recorder
            .bus()
            .subscribe_run(horizon_telemetry::DEFAULT_SUBSCRIBER_CAPACITY, run);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("repro-progress".into())
            .spawn(move || {
                let started = Instant::now();
                let mut last_jobs_line: Option<Instant> = None;
                loop {
                    let Some(event) = sub.recv_timeout(Duration::from_millis(100)) else {
                        if flag.load(Ordering::SeqCst) {
                            // Stop only once the bus is drained: every
                            // event published before the run finished is
                            // already in the ring.
                            break;
                        }
                        continue;
                    };
                    match event.kind {
                        EventKind::PhaseEnter { name } => {
                            eprintln!("progress: phase {name}");
                        }
                        EventKind::Progress {
                            completed,
                            total,
                            cached: _,
                        } => {
                            let done = completed == total;
                            let due =
                                last_jobs_line.is_none_or(|at| at.elapsed() >= PROGRESS_THROTTLE);
                            if !(done || due) {
                                continue;
                            }
                            last_jobs_line = Some(Instant::now());
                            let elapsed = started.elapsed().as_secs_f64();
                            if completed > 0 && total > completed {
                                let eta = elapsed * (total - completed) as f64 / completed as f64;
                                eprintln!(
                                    "progress: {completed}/{total} jobs  elapsed {elapsed:.1}s  \
                                     eta {eta:.1}s"
                                );
                            } else {
                                eprintln!(
                                    "progress: {completed}/{total} jobs  elapsed {elapsed:.1}s"
                                );
                            }
                        }
                        _ => {}
                    }
                }
            })
            .expect("spawn progress renderer");
        ProgressView { stop, handle }
    }

    /// Drains remaining events and joins the renderer thread.
    fn finish(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: run `repro help` for usage");
            return ExitCode::from(2);
        }
    };

    let mut cfg = if opts.quick {
        ReproConfig::quick()
    } else {
        ReproConfig::default()
    };
    // The sampling knobs only mean something under `--sampling simpoint`;
    // silently ignoring them would mask typos like a missing mode flag.
    if opts.sampling.as_deref() != Some("simpoint") {
        let misplaced: &[(&str, bool)] = &[
            ("--sampling-interval", opts.sampling_interval.is_some()),
            ("--sampling-max-phases", opts.sampling_max_phases.is_some()),
        ];
        if let Some((flag, _)) = misplaced.iter().find(|(_, set)| *set) {
            eprintln!("error: flag '{flag}' requires '--sampling simpoint'");
            return ExitCode::from(2);
        }
    } else {
        cfg.campaign.sampling = SamplingPolicy::SimPoint {
            interval: opts
                .sampling_interval
                .unwrap_or(SimPointConfig::DEFAULT_INTERVAL),
            max_phases: opts
                .sampling_max_phases
                .unwrap_or(SimPointConfig::DEFAULT_MAX_PHASES),
        };
    }

    // Cluster flag consistency, checked up front so a bad topology never
    // gets as far as binding a socket.
    if opts.peers.is_some() && opts.role.is_none() {
        eprintln!("error: flag '--peers' requires '--role router' or '--role worker'");
        return ExitCode::from(2);
    }
    if opts.role.as_deref() == Some("router") && opts.peers.is_none() {
        eprintln!("error: '--role router' requires '--peers HOST:PORT,...'");
        return ExitCode::from(2);
    }
    if opts.rate_limit.is_some() && opts.role.as_deref() != Some("router") {
        eprintln!("error: flag '--rate-limit' requires '--role router'");
        return ExitCode::from(2);
    }
    if opts.role.as_deref() == Some("worker")
        && opts.peers.is_some()
        && opts.cache_dir.is_none()
        && (opts.trace_store.is_none() || opts.no_trace_store)
    {
        eprintln!(
            "error: a peered worker needs a trace store to install fetched traces into \
             (give --cache-dir or --trace-store)"
        );
        return ExitCode::from(2);
    }

    // One recorder serves the whole process: installed globally (so the
    // simulator and analysis stages record into it) and shared with the
    // engine (so campaign/job spans and the derived stats join the same
    // trace).
    let recorder = if opts.retains_spans() {
        Recorder::new()
    } else {
        Recorder::new().with_span_capacity(0)
    };
    let recorder = Arc::new(recorder);
    horizon_telemetry::install(Arc::clone(&recorder));

    let mut engine = Engine::new().with_recorder(Arc::clone(&recorder));
    if let Some(jobs) = opts.jobs {
        engine = engine.with_jobs(jobs);
    }
    if let Some(dir) = &opts.cache_dir {
        engine = match engine.with_cache_dir(dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("error: cannot open cache dir '{dir}': {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if opts.no_trace_store && opts.trace_store.is_some() {
        eprintln!("error: '--no-trace-store' conflicts with '--trace-store'");
        return ExitCode::from(2);
    }
    // The trace store rides along with the cache by default: --cache-dir D
    // implies a store at D/traces, --trace-store overrides the location,
    // --no-trace-store turns it off. cache-gc manages the store itself,
    // so the engine skips attaching (and creating) it there.
    let trace_dir = match (&opts.trace_store, &opts.cache_dir) {
        _ if opts.no_trace_store => None,
        _ if opts.target.as_deref() == Some("cache-gc") => None,
        (Some(dir), _) => Some(std::path::PathBuf::from(dir)),
        (None, Some(cache)) => Some(std::path::Path::new(cache).join("traces")),
        (None, None) => None,
    };
    if let Some(dir) = trace_dir {
        engine = match engine.with_trace_store(&dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("error: cannot open trace store '{}': {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
    }
    // A peered worker pulls packed traces from its siblings on a
    // trace-store miss before paying for regeneration; fetched bytes are
    // validated and installed into the local store, so peering can only
    // trade wall-clock, never results.
    if opts.target.as_deref() == Some("serve") && opts.role.as_deref() == Some("worker") {
        let store = engine.trace_store().cloned();
        if let (Some(peers), Some(store)) = (&opts.peers, store) {
            let siblings: Vec<String> = peers
                .split(',')
                .map(|peer| peer.trim().to_string())
                .filter(|peer| !peer.is_empty())
                .collect();
            let store = store.clone();
            engine = engine.with_peer_fetch(peer_fetch(siblings, store, Arc::clone(&recorder)));
        }
    }
    let engine = Arc::new(engine);
    Arc::clone(&engine).install();

    // Batch runs carry a telemetry run id: live bus events, the JSONL
    // trace meta line and OTLP trace ids all attribute to it. Scoped on
    // the main thread; the engine re-enters it on its workers.
    let run_id = horizon_telemetry::next_run_id();
    let _run_scope = horizon_telemetry::RunScope::enter(run_id);

    let is_experiment_run = !matches!(
        opts.target.as_deref(),
        None | Some("help") | Some("serve") | Some("list") | Some("cache-gc")
    );
    if opts.progress && !is_experiment_run {
        eprintln!("error: flag '--progress' only applies to experiment runs");
        return ExitCode::from(2);
    }
    if opts.sampling.is_some() && !is_experiment_run {
        eprintln!("error: flag '--sampling' only applies to experiment runs");
        return ExitCode::from(2);
    }
    let progress = opts
        .progress
        .then(|| ProgressView::start(&recorder, run_id));

    // The serve-only flags are rejected elsewhere so typos fail loudly
    // instead of being silently ignored.
    if opts.target.as_deref() != Some("serve") {
        let misplaced: &[(&str, bool)] = &[
            ("--addr", opts.addr.is_some()),
            ("--workers", opts.workers.is_some()),
            ("--queue-cap", opts.queue_cap.is_some()),
            ("--request-timeout-ms", opts.request_timeout_ms.is_some()),
            ("--role", opts.role.is_some()),
            ("--peers", opts.peers.is_some()),
            ("--rate-limit", opts.rate_limit.is_some()),
        ];
        if let Some((flag, _)) = misplaced.iter().find(|(_, set)| *set) {
            eprintln!("error: flag '{flag}' only applies to `repro serve`");
            return ExitCode::from(2);
        }
    }

    let mut code: u8 = match opts.target.as_deref() {
        None | Some("help") => {
            usage();
            2
        }
        Some("serve") => run_serve(&opts, Arc::clone(&engine), Arc::clone(&recorder)),
        Some("list") => {
            for e in REGISTRY {
                if e.aliases.is_empty() {
                    println!("{:<16} {}", e.id, e.summary);
                } else {
                    println!(
                        "{:<16} {}  (aliases: {})",
                        e.id,
                        e.summary,
                        e.aliases.join(", ")
                    );
                }
            }
            0
        }
        Some("cache-gc") => run_cache_gc(&opts),
        Some("all") => {
            let mut failed = false;
            for e in REGISTRY {
                match run_experiment(e, &cfg) {
                    Ok(report) => {
                        println!("==================== {} ====================", e.id);
                        println!("{report}");
                    }
                    Err(err) => {
                        eprintln!("error: {err}");
                        failed = true;
                        break;
                    }
                }
            }
            u8::from(failed)
        }
        Some(name) => match find_experiment(name) {
            Some(experiment) => match run_experiment(experiment, &cfg) {
                Ok(report) => {
                    println!("{report}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            },
            None => {
                eprintln!("error: unknown subcommand or experiment '{name}'");
                eprintln!("subcommands: {SUBCOMMANDS}");
                let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
                eprintln!("experiments: {}", ids.join(", "));
                2
            }
        },
    };

    if let Some(progress) = progress {
        progress.finish();
    }

    let snapshot = recorder.snapshot();
    if opts.stats {
        eprintln!("{}", EngineStats::from_snapshot(&snapshot).summary());
        eprintln!("{}", snapshot.render_phase_table());
    }
    if let Some(path) = &opts.trace_out {
        let experiment = is_experiment_run.then(|| opts.target.clone()).flatten();
        if !write_sink(path, "trace", |out| {
            horizon_telemetry::write_trace_with_meta(&snapshot, run_id, experiment.as_deref(), out)
        }) && code == 0
        {
            code = 1;
        }
    }
    if let Some(path) = &opts.metrics_out {
        if !write_sink(path, "metrics", |out| {
            horizon_telemetry::write_prometheus(&snapshot, out)
        }) && code == 0
        {
            code = 1;
        }
    }
    if let Some(path) = &opts.otlp_out {
        if !write_sink(path, "otlp trace", |out| {
            horizon_telemetry::write_otlp(&snapshot, "horizon-repro", out)
        }) && code == 0
        {
            code = 1;
        }
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retains(args: &[&str]) -> bool {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse_args(&args) {
            Ok(opts) => opts.retains_spans(),
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn daemons_retain_spans_only_for_a_sink_that_reads_them() {
        assert!(!retains(&["serve"]));
        assert!(!retains(&["serve", "--role", "router", "--peers", "a:1"]));
        assert!(!retains(&["serve", "--metrics-out", "m.txt"]));
        assert!(retains(&["serve", "--stats"]));
        assert!(retains(&["serve", "--trace-out", "t.jsonl"]));
        assert!(retains(&["serve", "--otlp-out", "o.json"]));
    }

    #[test]
    fn batch_runs_always_retain_spans() {
        assert!(retains(&["all"]));
        assert!(retains(&["table1", "--quick"]));
        assert!(retains(&["cache-gc", "--max-entries", "1"]));
    }
}
