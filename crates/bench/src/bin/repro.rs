//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [flags]
//! repro all [flags]
//! repro list
//! repro cache-gc --cache-dir DIR [--max-entries N]
//! repro serve [--addr HOST:PORT] [flags]
//!
//! flags:
//!   --quick             reduced-scale config (3 machines, short windows)
//!   --jobs <N>          worker threads (default: available parallelism)
//!   --cache-dir <DIR>   persist measurements to an on-disk cache
//!   --stats             print engine statistics and the per-phase
//!                       wall-clock table to stderr when done
//!   --progress          live progress lines on stderr while the run
//!                       executes (phases, jobs done/total, ETA); stdout
//!                       report bytes are unaffected
//!   --metrics-out <FILE> write counters/histograms in Prometheus text form
//!   --otlp-out <FILE>   write spans as an OTLP/JSON trace-export document
//!                       (span records are kept only when it is given)
//!   --max-entries <N>   cache-gc: measurement entries to keep (default 1024)
//!   --addr <HOST:PORT>  serve: bind address (default 127.0.0.1:7878)
//!   --workers <N>       serve: worker threads; each serves connections
//!                       and executes the runs they ask for
//!   --queue-cap <N>     serve: queued connections beyond busy workers
//!                       (past the cap requests get 503 + Retry-After)
//!   --role <ROLE>       serve: cluster role, router or worker (a
//!                       worker is a plain daemon)
//!   --peers <LIST>      serve (router): comma-separated HOST:PORT
//!                       workers the router routes to
//!   --rate-limit <N>    serve (router): per-client token-bucket refill
//!                       rate in run-weight tokens per second
//! ```
//!
//! Unknown flags are rejected with exit code 2. Experiment reports go to
//! stdout and are bit-identical regardless of `--jobs` or cache state;
//! statistics, spans and metrics go to stderr or files so report output
//! stays diffable.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use horizon_bench::cluster::{Router, RouterOptions};
use horizon_bench::serve::{ServeOptions, Server};
use horizon_bench::{find_experiment, run_experiment, ReproConfig, REGISTRY};
use horizon_engine::{DiskCache, Engine, EngineStats};
use horizon_telemetry::{EventKind, Recorder};
use std::time::{Duration, Instant};

struct Options {
    target: Option<String>,
    quick: bool,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    stats: bool,
    progress: bool,
    metrics_out: Option<String>,
    otlp_out: Option<String>,
    max_entries: Option<usize>,
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    role: Option<String>,
    peers: Option<String>,
    rate_limit: Option<u64>,
}

/// The process's recorder. It keeps span records only when `--otlp-out`
/// will export them, in every mode: they are that sink's only input, so
/// without it a batch run would hold every span until exit and a daemon
/// would grow with every request. `--stats` and `--metrics-out` read the
/// aggregates, which stay exact without records.
fn recorder_for(opts: &Options) -> Recorder {
    if opts.otlp_out.is_some() {
        Recorder::new()
    } else {
        Recorder::new().with_span_capacity(0)
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
        jobs: None,
        cache_dir: None,
        stats: false,
        progress: false,
        metrics_out: None,
        otlp_out: None,
        max_entries: None,
        addr: None,
        workers: None,
        queue_cap: None,
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
        "usage: repro <experiment|all|list> [--quick] [--jobs N] [--cache-dir DIR] [--stats] \
         [--progress] [--metrics-out FILE] [--otlp-out FILE]\n\
         \x20      repro cache-gc --cache-dir DIR [--max-entries N]\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--jobs N] \
         [--cache-dir DIR] [--role router|worker] [--peers HOST:PORT,...] [--rate-limit N]"
    );
    eprintln!("subcommands: {SUBCOMMANDS}");
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!("experiments: {}", ids.join(", "));
}

/// Prunes the on-disk cache down to `max_entries` LRU entries.
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
    let report = match cache.gc(max_entries) {
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
    let addr = serve_opts.addr.clone();
    let server = match Server::bind(serve_opts, engine, recorder) {
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

/// The `--progress` stderr renderer: a thread subscribed to the batch
/// run on the live event bus, printing phase transitions and throttled
/// jobs-done lines with the run's elapsed time and the current campaign's
/// ETA. Strictly stderr — stdout report bytes stay diffable.
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
                            completed, total, ..
                        } => {
                            let done = completed == total;
                            let due =
                                last_jobs_line.is_none_or(|at| at.elapsed() >= PROGRESS_THROTTLE);
                            if !(done || due) {
                                continue;
                            }
                            last_jobs_line = Some(Instant::now());
                            let elapsed = started.elapsed().as_secs_f64();
                            match event.kind.eta_nanos() {
                                Some(eta) => eprintln!(
                                    "progress: {completed}/{total} jobs  elapsed {elapsed:.1}s  \
                                     eta {:.1}s",
                                    eta as f64 / 1e9
                                ),
                                None => eprintln!(
                                    "progress: {completed}/{total} jobs  elapsed {elapsed:.1}s"
                                ),
                            }
                        }
                        EventKind::PhaseExit { .. } => {}
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

    let cfg = if opts.quick {
        ReproConfig::quick()
    } else {
        ReproConfig::default()
    };
    // Cluster flag consistency, checked up front so a bad topology never
    // gets as far as binding a socket.
    if opts.peers.is_some() && opts.role.as_deref() != Some("router") {
        eprintln!("error: flag '--peers' requires '--role router'");
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

    // One recorder serves the whole process: installed globally (so the
    // simulator and analysis stages record into it) and shared with the
    // engine (so campaign/job spans and the derived stats join the same
    // trace).
    let recorder = Arc::new(recorder_for(&opts));
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
    let engine = Arc::new(engine);
    Arc::clone(&engine).install();

    // Batch runs carry a telemetry run id: live bus events and OTLP trace
    // ids attribute to it. Scoped on the main thread; the engine re-enters
    // it on its workers.
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

    /// Whether the recorder `repro ARGS` builds keeps a closed span.
    fn keeps_span_records(args: &[&str]) -> bool {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let opts = parse_args(&args).unwrap_or_else(|e| panic!("{e}"));
        let recorder = Arc::new(recorder_for(&opts));
        drop(recorder.span("probe"));
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.span_wall["probe"].count(), 1, "always timed");
        !snapshot.spans.is_empty()
    }

    #[test]
    fn span_records_are_kept_only_for_the_otlp_export() {
        for mode in [&["serve"][..], &["all"], &["table1", "--quick"]] {
            let with = |flags: &[&'static str]| [mode, flags].concat();
            assert!(keeps_span_records(&with(&["--otlp-out", "o.json"])));
            assert!(!keeps_span_records(&with(&["--stats"])));
            assert!(!keeps_span_records(&with(&["--metrics-out", "m.txt"])));
            assert!(!keeps_span_records(mode));
        }
    }
}
