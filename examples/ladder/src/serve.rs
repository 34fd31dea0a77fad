//! The served workloads: a closed loop of run requests against one
//! `repro serve --jobs 1` daemon (`serve-mixed`), or the same stream
//! through `repro serve --role router` in front of two `--role worker
//! --jobs 1` daemons (`routed-mixed`).
//!
//! Set-up starts the daemons and primes ten experiments at default
//! scale. Then two client threads — one per core of the 2-core machine
//! the numbers were taken on — each drive one connection in a closed
//! loop for the window. The warm connection sends rounds of memo-hit
//! `POST /run/{exp}?format=text`, one per primed experiment in a seeded
//! order, each body checked against its section of `repro_output.txt`;
//! a round is the served counterpart of one warm `repro all`. The cold
//! connection runs table1, fig1 and fig2 quick with fresh seeds derived
//! from `--seed`, so every cold run simulates, writing to the engine
//! while warm rounds read it; each must answer 200 with a
//! `schema_version` 1 report. One class per connection keeps each
//! class's load steady from run to run.

use std::time::{Duration, Instant};

use horizon_core::campaign::Campaign;

use crate::client::{get, Conn, Scrape};
use crate::golden::Golden;
use crate::layers::{layer_metrics, Attribution, ScrapeDelta, Tally};
use crate::proc::{dir_bytes, Daemon};
use crate::stats::{median, percentile};
use crate::{Ladder, Outcome};

/// The experiments set-up primes, and the warm class requests.
const PRIMED: [&str; 10] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table5",
    "stability",
    "table9",
    "fig9",
];
/// The experiments the cold class runs quick, each with a fresh seed.
const COLD: [&str; 3] = ["table1", "fig1", "fig2"];
/// How long a freshly started fleet may take to answer `/healthz`.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(10);
/// Worker addresses for `routed-mixed`. The router ranks workers by
/// hashing their `host:port`, so ephemeral ports would move primed
/// experiments between workers from run to run; fixed ports (below the
/// ephemeral range) keep the partition, and with it the numbers, steady.
/// A port that is taken falls back to an ephemeral one.
const WORKER_ADDRS: [&str; 2] = ["127.0.0.1:27171", "127.0.0.1:27172"];
/// Any free port.
const EPHEMERAL: &str = "127.0.0.1:0";

/// The running daemons. The first address is the front door clients
/// talk to; `workers` are the engine-holding daemons behind it.
struct Fleet {
    front: String,
    workers: Vec<String>,
    cache_dirs: Vec<std::path::PathBuf>,
    /// Router last, so it stops before the workers it relays to.
    daemons: Vec<Daemon>,
}

impl Fleet {
    fn start(ladder: &Ladder, routed: bool) -> Result<Fleet, String> {
        let addrs: &[&str] = if routed { &WORKER_ADDRS } else { &[EPHEMERAL] };
        let mut fleet = Fleet {
            front: String::new(),
            workers: Vec::new(),
            cache_dirs: Vec::new(),
            daemons: Vec::new(),
        };
        for (i, &addr) in addrs.iter().enumerate() {
            let dir = ladder.work.fresh(&format!("serve-{i}"));
            let dir = dir.to_str().ok_or("non-UTF-8 work directory")?.to_string();
            let args = |addr: &str| {
                let mut args = vec!["--addr", addr, "--jobs", "1", "--cache-dir", &dir];
                if routed {
                    args.extend(["--role", "worker"]);
                }
                args.into_iter().map(String::from).collect::<Vec<_>>()
            };
            let daemon = match Daemon::spawn(&ladder.repro, &args(addr)) {
                Err(_) if addr != EPHEMERAL => Daemon::spawn(&ladder.repro, &args(EPHEMERAL))?,
                spawned => spawned?,
            };
            fleet.workers.push(daemon.addr().to_string());
            fleet.cache_dirs.push(dir.into());
            fleet.daemons.push(daemon);
        }
        fleet.front = if routed {
            let peers = fleet.workers.join(",");
            let args = [
                "--addr", EPHEMERAL, "--jobs", "1", "--role", "router", "--peers", &peers,
            ]
            .map(String::from);
            let router = Daemon::spawn(&ladder.repro, &args)?;
            let front = router.addr().to_string();
            fleet.daemons.push(router);
            front
        } else {
            fleet.workers[0].clone()
        };
        let deadline = Instant::now() + HEALTH_TIMEOUT;
        while get(&fleet.front, "/healthz").map(|r| r.status) != Ok(200) {
            if Instant::now() > deadline {
                return Err(format!("{} never answered /healthz", fleet.front));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Ok(fleet)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        while let Some(daemon) = self.daemons.pop() {
            drop(daemon);
        }
    }
}

/// One completed (or failed) request of the window.
struct Sample {
    latency_ms: f64,
    /// The server's own `wall_ms` for the run, on JSON responses.
    server_ms: Option<f64>,
    done: Instant,
    /// Why the request failed, if it did.
    error: Option<String>,
}

pub fn run(ladder: &Ladder, routed: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup_start = Instant::now();
    let fleet = Fleet::start(ladder, routed)?;
    let mut conn = Conn::new(&fleet.front)?;
    for experiment in PRIMED {
        let reply = conn.send("POST", &format!("/run/{experiment}?format=text"), "");
        let ok = reply.as_ref().is_ok_and(|r| {
            r.status == 200
                && Some(r.body.as_slice()) == ladder.golden.section(experiment).map(str::as_bytes)
        });
        out.check(ok, || {
            format!("priming {experiment} failed or differs from repro_output.txt")
        });
    }
    drop(conn);
    out.metric(
        "setup_s",
        setup_start.elapsed().as_secs_f64(),
        format!("spawn, /healthz and priming {} experiments", PRIMED.len()),
    );

    let before = Scrape::take(&fleet.front)?;
    let order = seeded_order(ladder.seed);
    let first_cold_seed = ladder.seed.wrapping_mul(100_000).wrapping_add(1_000);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ladder.seconds);
    let ((warm, rounds), cold) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| warm_client(&fleet.front, &order, &ladder.golden, deadline));
        let cold = scope.spawn(|| cold_client(&fleet.front, first_cold_seed, deadline));
        (
            warm.join().expect("warm client does not panic"),
            cold.join().expect("cold client does not panic"),
        )
    });
    let after = Scrape::take(&fleet.front)?;

    for sample in warm.iter().chain(&cold) {
        out.check(sample.error.is_none(), || {
            sample.error.clone().unwrap_or_default()
        });
    }
    let latencies = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.error.is_none())
            .map(|s| s.latency_ms)
            .collect()
    };
    let (warm_ms, cold_ms) = (latencies(&warm), latencies(&cold));
    if rounds.is_empty() {
        return Err("no warm round completed".into());
    }
    out.metric(
        "wall_s",
        median(&rounds),
        format!(
            "median of {} warm rounds of {} runs",
            rounds.len(),
            PRIMED.len()
        ),
    );
    let last = warm
        .iter()
        .chain(&cold)
        .map(|s| s.done)
        .max()
        .unwrap_or(start);
    out.metric(
        "runs_per_s",
        (warm_ms.len() + cold_ms.len()) as f64 / last.duration_since(start).as_secs_f64(),
        format!("{} warm + {} cold runs", warm_ms.len(), cold_ms.len()),
    );
    let rss: Option<f64> = fleet.daemons.iter().map(Daemon::peak_rss_mb).sum();
    out.metric(
        "peak_rss_mb",
        rss.ok_or("cannot read the daemons' VmHWM")?,
        format!("VmHWM summed over {} daemon(s)", fleet.daemons.len()),
    );

    report_percentile(&mut out, "serve.warm_p50_ms", &warm_ms, 0.5, "warm");
    report_percentile(&mut out, "serve.warm_p90_ms", &warm_ms, 0.9, "warm");
    report_percentile(&mut out, "serve.cold_p50_ms", &cold_ms, 0.5, "cold");
    report_percentile(&mut out, "serve.cold_p90_ms", &cold_ms, 0.9, "cold");
    out.metric("serve.warm_samples", warm_ms.len() as f64, String::new());
    out.metric("serve.cold_samples", cold_ms.len() as f64, String::new());
    let hops: Vec<f64> = cold
        .iter()
        .filter(|s| s.error.is_none())
        .filter_map(|s| s.server_ms.map(|server| s.latency_ms - server))
        .collect();
    let hop_metric = if routed {
        "router.hop_ms_p50"
    } else {
        "serve.hop_ms_p50"
    };
    report_percentile(
        &mut out,
        hop_metric,
        &hops,
        0.5,
        "client ms - server wall_ms",
    );

    let delta = ScrapeDelta {
        before: &before,
        after: &after,
    };
    let quick = Campaign::quick();
    layer_metrics(
        &delta,
        &Attribution {
            campaign_s: delta.span_s("engine.campaign"),
            wall_s: delta.span_s("experiment"),
            // Only the cold class simulates, always at the quick window.
            lane_instructions: delta.counter("fleet.lane_groups")
                * (quick.warmup + quick.instructions) as f64,
        },
        &mut out.metrics,
    );
    for name in [
        "serve.requests",
        "serve.runs_executed",
        "serve.coalesced_runs",
        "serve.saturated",
        "serve.keepalive_reuses",
    ] {
        out.metric(name, delta.counter(name), String::new());
    }
    let mut memo_entries = 0.0;
    for worker in &fleet.workers {
        memo_entries += healthz_field(worker, "memo_entries")?;
    }
    out.metric("serve.memo_entries", memo_entries, String::new());
    out.metric(
        "cache.dir_bytes",
        fleet.cache_dirs.iter().map(|d| dir_bytes(d) as f64).sum(),
        String::new(),
    );
    if routed {
        for name in [
            "cluster.routed_runs",
            "cluster.failovers",
            "cluster.no_peer_available",
        ] {
            out.metric(name, delta.counter(name), String::new());
        }
        out.metric(
            "router.skew",
            skew(&before, &after, &fleet.workers),
            String::new(),
        );
    }
    Ok(out)
}

/// The warm connection: rounds of every primed experiment in `order`,
/// back-to-back, until the deadline; a started round is finished.
/// Returns every request and each round's wall time in seconds.
fn warm_client(
    front: &str,
    order: &[&str],
    golden: &Golden,
    deadline: Instant,
) -> (Vec<Sample>, Vec<f64>) {
    let mut conn = Conn::new(front).expect("front address parsed at set-up");
    let (mut samples, mut rounds) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        let started = Instant::now();
        for experiment in order {
            samples.push(warm_request(&mut conn, experiment, golden));
        }
        rounds.push(started.elapsed().as_secs_f64());
    }
    (samples, rounds)
}

/// The cold connection: table1, fig1 and fig2 in turn, each quick with
/// the next fresh seed, until the deadline.
fn cold_client(front: &str, first_seed: u64, deadline: Instant) -> Vec<Sample> {
    let mut conn = Conn::new(front).expect("front address parsed at set-up");
    let mut samples = Vec::new();
    for (k, experiment) in (0..).zip(COLD.iter().cycle()) {
        let seed = first_seed.wrapping_add(k);
        if Instant::now() >= deadline {
            break;
        }
        samples.push(cold_request(&mut conn, experiment, seed));
    }
    samples
}

fn warm_request(conn: &mut Conn, experiment: &str, golden: &Golden) -> Sample {
    let started = Instant::now();
    let reply = conn.send("POST", &format!("/run/{experiment}?format=text"), "");
    let done = Instant::now();
    let error = match reply {
        Err(e) => Some(format!("warm {experiment}: {e}")),
        Ok(r) if r.status != 200 => Some(format!("warm {experiment}: status {}", r.status)),
        Ok(r) if golden.section(experiment).map(str::as_bytes) != Some(r.body.as_slice()) => Some(
            format!("warm {experiment}: body differs from repro_output.txt"),
        ),
        Ok(_) => None,
    };
    Sample {
        latency_ms: (done - started).as_secs_f64() * 1e3,
        server_ms: None,
        done,
        error,
    }
}

fn cold_request(conn: &mut Conn, experiment: &str, seed: u64) -> Sample {
    let body = format!("{{\"quick\":true,\"seed\":{seed}}}");
    let started = Instant::now();
    let reply = conn.send("POST", &format!("/run/{experiment}"), &body);
    let done = Instant::now();
    let (server_ms, error) = match reply {
        Err(e) => (None, Some(format!("cold {experiment}: {e}"))),
        Ok(r) if r.status != 200 => (
            None,
            Some(format!("cold {experiment}: status {}", r.status)),
        ),
        Ok(r) => {
            let text = String::from_utf8_lossy(&r.body);
            if text.contains("\"schema_version\":1") {
                (json_number(&text, "wall_ms"), None)
            } else {
                (
                    None,
                    Some(format!("cold {experiment}: no schema_version 1 report")),
                )
            }
        }
    };
    Sample {
        latency_ms: (done - started).as_secs_f64() * 1e3,
        server_ms,
        done,
        error,
    }
}

/// The first `"key":number` in a compact JSON text. The run response's
/// top-level `wall_ms` precedes its nested report.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn report_percentile(out: &mut Outcome, name: &'static str, samples: &[f64], q: f64, what: &str) {
    let label = format!("{what} p{}", (q * 100.0) as u32);
    match percentile(samples, q) {
        Some(p) => out.metric(name, p.value, p.describe(&label)),
        None => out.metric(
            name,
            0.0,
            format!(
                "{label} refused: {} samples leave fewer than 10 beyond it",
                samples.len()
            ),
        ),
    }
}

/// A numeric field of a daemon's `/healthz` document.
fn healthz_field(addr: &str, key: &str) -> Result<f64, String> {
    let reply = get(addr, "/healthz")?;
    json_number(&String::from_utf8_lossy(&reply.body), key)
        .ok_or_else(|| format!("/healthz on {addr} has no numeric '{key}'"))
}

/// Busiest over least-busy worker, by run requests served in the window.
fn skew(before: &Scrape, after: &Scrape, workers: &[String]) -> f64 {
    let metric = "horizon_serve_request_wall_ms_count";
    let filter = [("route", "run")];
    let (b, a) = (
        before.by_label(metric, "node", &filter),
        after.by_label(metric, "node", &filter),
    );
    let runs: Vec<f64> = workers
        .iter()
        .map(|w| a.get(w).copied().unwrap_or(0.0) - b.get(w).copied().unwrap_or(0.0))
        .collect();
    let (lo, hi) = runs.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    if lo > 0.0 {
        hi / lo
    } else {
        0.0
    }
}

/// The primed experiments in a seeded order (Fisher–Yates over a
/// splitmix64 stream), so the warm round-robin differs by seed.
fn seeded_order(seed: u64) -> Vec<&'static str> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order = PRIMED.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}
