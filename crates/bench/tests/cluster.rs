//! End-to-end tests of the sharded serve fleet: a fingerprint-routing
//! router in front of worker daemons. Covers deterministic routing
//! (identical runs land on one worker), failover when a worker dies,
//! failback when it returns, token-bucket admission control,
//! fault-injected degradation, and the router's local endpoints
//! (healthz, experiments, aggregated metrics, SSE tunnel).

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("horizon-cluster-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One spawned daemon (worker or router); killed on drop so a failing
/// assertion never leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `repro serve` on an ephemeral port with `extra_args` and
    /// `envs`, and waits for the ready line on stderr.
    fn spawn(extra_args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut command = Command::new(REPRO);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("repro serve spawns");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let ready = lines
            .next()
            .expect("daemon printed a ready line")
            .expect("stderr is utf-8");
        let addr = ready
            .split("http://")
            .nth(1)
            .unwrap_or_else(|| panic!("unexpected ready line: {ready}"))
            .trim()
            .to_string();
        // Keep draining stderr so the daemon can never block on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        Daemon { child, addr }
    }

    /// One HTTP/1.1 request; returns (status, headers, body).
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
        request_addr(&self.addr, method, path, body)
    }

    fn get(&self, path: &str) -> (u16, String) {
        let (status, _, body) = self.request("GET", path, None);
        (status, body)
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        let (status, _, body) = self.request("POST", path, Some(body));
        (status, body)
    }

    fn signal(&self, sig: &str) {
        let status = Command::new("kill")
            .args([sig, &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill {sig} failed");
    }

    /// SIGKILLs the daemon and reaps it — the "node died" fault.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 request to `addr`; returns (status, headers, body).
fn request_addr(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response}"));
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, payload)
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name).expect("field present") {
        Value::Str(s) => s.as_str(),
        other => panic!("field '{name}' is not a string: {other:?}"),
    }
}

fn num_field(v: &Value, name: &str) -> u64 {
    match v.field(name).expect("field present") {
        Value::Num(raw) => raw.parse().expect("integer field"),
        other => panic!("field '{name}' is not a number: {other:?}"),
    }
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("not JSON ({e}): {body}"))
}

/// Reads a counter value out of Prometheus text format (0 when absent —
/// counters only appear once something increments them).
fn prometheus_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Polls the router until its liveness view reports `want` alive peers.
fn wait_for_alive(router: &Daemon, want: u64, why: &str) {
    let start = Instant::now();
    loop {
        let (status, body) = router.get("/healthz");
        assert_eq!(status, 200, "{body}");
        if num_field(&json(&body), "peers_alive") == want {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "router never saw {want} alive peers ({why}): {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The worker (by index) whose engine memo is warm — i.e. the one the
/// router routed the runs to.
fn warm_worker_index(workers: &[&Daemon]) -> usize {
    let warm: Vec<usize> = workers
        .iter()
        .enumerate()
        .filter(|(_, worker)| {
            let (status, body) = worker.get("/healthz");
            assert_eq!(status, 200, "{body}");
            num_field(&json(&body), "memo_entries") > 0
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        warm.len(),
        1,
        "identical runs must warm exactly one worker, found {warm:?}"
    );
    warm[0]
}

const QUICK_RUN: &str = "{\"quick\":true}";

#[test]
fn identical_runs_route_to_one_worker_and_fail_over_on_death() {
    let dir = scratch_dir("failover");
    let mut workers: Vec<Daemon> = (0..3)
        .map(|i| {
            let cache = dir.join(format!("w{i}"));
            Daemon::spawn(&["--cache-dir", cache.to_str().unwrap()], &[])
        })
        .collect();
    let peers = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let router = Daemon::spawn(&["--role", "router", "--peers", &peers], &[]);
    wait_for_alive(&router, 3, "all workers up");

    // First run through the router: served by exactly one worker.
    let (status, first) = router.post("/run/table1", QUICK_RUN);
    assert_eq!(status, 200, "{first}");
    let first = json(&first);
    assert_eq!(str_field(&first, "experiment"), "table1");
    let first_report =
        serde_json::to_string(first.field("report").expect("report")).expect("re-serializes");

    // Second identical run: routed to the same worker, so it must be a
    // warm memo hit there — the whole point of fingerprint routing.
    let (status, second) = router.post("/run/table1", QUICK_RUN);
    assert_eq!(status, 200, "{second}");
    let second = json(&second);
    let engine = second.field("engine").expect("engine stats");
    assert!(
        num_field(engine, "memo_hits_delta") > 0,
        "rerouted identical run missed the warm memo: {engine:?}"
    );
    let owner = warm_worker_index(&workers.iter().collect::<Vec<_>>());

    // Reference for byte-identity across the failover.
    let (status, text_before) = router.post("/run/table1?format=text", QUICK_RUN);
    assert_eq!(status, 200);
    let batch = Command::new(REPRO)
        .args(["table1", "--quick"])
        .output()
        .expect("batch repro runs");
    assert!(batch.status.success());
    let batch_stdout = String::from_utf8(batch.stdout).unwrap();
    assert_eq!(
        text_before, batch_stdout,
        "routed ?format=text differs from batch stdout"
    );

    // Kill the owner. The very next run must fail over to the next hash
    // choice — even before the liveness poller notices — and produce a
    // byte-identical report.
    workers[owner].kill();
    let (status, text_after) = router.post("/run/table1?format=text", QUICK_RUN);
    assert_eq!(status, 200, "failover run failed: {text_after}");
    assert_eq!(
        text_after, batch_stdout,
        "failover worker produced a different report"
    );
    wait_for_alive(&router, 2, "owner killed");

    // The rerouted key is now warm on a surviving worker.
    let survivors: Vec<&Daemon> = workers
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != owner)
        .map(|(_, w)| w)
        .collect();
    let (status, body) = router.post("/run/table1", QUICK_RUN);
    assert_eq!(status, 200, "{body}");
    let rerouted = json(&body);
    let engine = rerouted.field("engine").expect("engine stats");
    assert!(
        num_field(engine, "memo_hits_delta") > 0,
        "failover target did not keep the key warm: {engine:?}"
    );
    assert_eq!(
        serde_json::to_string(rerouted.field("report").expect("report")).expect("re-serializes"),
        first_report,
        "failover drifted the structured report"
    );
    warm_worker_index(&survivors);

    // Router metrics recorded the journey.
    let (status, metrics) = router.get("/metrics");
    assert_eq!(status, 200);
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_routed_runs") >= 4,
        "{metrics}"
    );
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_failovers") >= 1,
        "no failover counted:\n{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suspended_worker_fails_over_and_gets_its_keys_back() {
    let dir = scratch_dir("failback");
    let workers: Vec<Daemon> = (0..2)
        .map(|i| {
            let cache = dir.join(format!("w{i}"));
            Daemon::spawn(&["--cache-dir", cache.to_str().unwrap()], &[])
        })
        .collect();
    let peers = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let router = Daemon::spawn(&["--role", "router", "--peers", &peers], &[]);
    wait_for_alive(&router, 2, "both workers up");

    // Warm the key on its owner.
    let (status, body) = router.post("/run/table2", QUICK_RUN);
    assert_eq!(status, 200, "{body}");
    let owner = warm_worker_index(&workers.iter().collect::<Vec<_>>());
    let backup = 1 - owner;

    // Freeze the owner (SIGSTOP): health polls time out, the router
    // marks it dead, and its keys fail over.
    workers[owner].signal("-STOP");
    wait_for_alive(&router, 1, "owner frozen");
    let (status, body) = router.post("/run/table2", QUICK_RUN);
    assert_eq!(status, 200, "failover run failed: {body}");
    let (status, body) = workers[backup].get("/healthz");
    assert_eq!(status, 200);
    assert!(
        num_field(&json(&body), "memo_entries") > 0,
        "failover target never executed the run: {body}"
    );

    // Thaw the owner (SIGCONT): the router's next poll marks it alive
    // and rendezvous hashing hands the key straight back — the run hits
    // the memo the owner kept from before the freeze.
    workers[owner].signal("-CONT");
    wait_for_alive(&router, 2, "owner thawed");
    let (status, body) = router.post("/run/table2", QUICK_RUN);
    assert_eq!(status, 200, "{body}");
    let engine = json(&body);
    let engine = engine.field("engine").expect("engine stats");
    assert!(
        num_field(engine, "memo_hits_delta") > 0,
        "failback run did not hit the owner's warm memo: {engine:?}"
    );

    let (_, metrics) = router.get("/metrics");
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_peer_down") >= 1,
        "{metrics}"
    );
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_peer_up") >= 1,
        "{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_proxy_faults_fail_over_and_never_5xx() {
    let dir = scratch_dir("faults");
    let worker_a = Daemon::spawn(&["--cache-dir", dir.join("a").to_str().unwrap()], &[]);
    let (status, text_a) = worker_a.post("/run/table1?format=text", QUICK_RUN);
    assert_eq!(status, 200, "{text_a}");
    let worker_b = Daemon::spawn(&["--cache-dir", dir.join("b").to_str().unwrap()], &[]);

    // Proxy fault: the router truncates the first upstream response of
    // each run. With a second worker alive, the client still sees 200 —
    // the truncation costs a failover, never a 5xx.
    let peers = format!("{},{}", worker_a.addr, worker_b.addr);
    let router = Daemon::spawn(
        &["--role", "router", "--peers", &peers],
        &[("HZN_FAULT", "proxy=truncate")],
    );
    wait_for_alive(&router, 2, "both workers up");
    let (status, body) = router.post("/run/table1?format=text", QUICK_RUN);
    assert_eq!(status, 200, "truncation fault leaked to the client: {body}");
    assert_eq!(body, text_a, "failover after truncation drifted the report");
    let (_, metrics) = router.get("/metrics");
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_proxy_truncated") > 0,
        "{metrics}"
    );
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_failovers") > 0,
        "{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admission_floods_get_429_while_admitted_runs_complete() {
    let dir = scratch_dir("admission");
    let worker = Daemon::spawn(&["--cache-dir", dir.join("w").to_str().unwrap()], &[]);
    let router = Daemon::spawn(
        &[
            "--role",
            "router",
            "--peers",
            &worker.addr,
            "--rate-limit",
            "1",
        ],
        &[],
    );
    wait_for_alive(&router, 1, "worker up");

    // Warm the worker's memo first so every admitted flood run answers
    // in milliseconds — a cold run would pin the box and stagger the
    // flood threads far enough apart for the bucket to refill between
    // arrivals, which would test the scheduler, not admission.
    let (status, body) = router.post("/run/table1", QUICK_RUN);
    assert_eq!(status, 200, "{body}");

    // Flood: concurrent identical runs from one client IP. The token
    // bucket admits the first burst and 429s the rest, while every
    // admitted run completes normally. The flood property is retried a
    // few times because an oversubscribed CI box can still stretch one
    // burst out past the refill window.
    let mut denied: Vec<(u16, String, String)> = Vec::new();
    for attempt in 0..5 {
        // Let the bucket refill so each attempt starts from a full
        // burst (capacity is 2 s of refill).
        std::thread::sleep(Duration::from_secs(3));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = router.addr.clone();
                std::thread::spawn(move || {
                    request_addr(&addr, "POST", "/run/table1", Some(QUICK_RUN))
                })
            })
            .collect();
        let results: Vec<(u16, String, String)> = handles
            .into_iter()
            .map(|handle| handle.join().expect("request thread"))
            .collect();

        let mut completed = 0;
        for (status, _, body) in &results {
            if *status != 200 {
                continue;
            }
            let run = json(body);
            assert_eq!(str_field(&run, "experiment"), "table1");
            assert!(run.field("report").is_ok(), "admitted run lost its report");
            completed += 1;
        }
        assert!(completed >= 1, "the flood starved every run: {results:?}");
        for (status, _, _) in &results {
            assert!(
                *status == 200 || *status == 429,
                "flood produced a status other than 200/429: {results:?}"
            );
        }
        denied = results
            .into_iter()
            .filter(|(status, _, _)| *status == 429)
            .collect();
        if !denied.is_empty() {
            break;
        }
        assert!(
            attempt < 4,
            "rate limit of 1 token/s admitted all 8 concurrent runs, 5 attempts"
        );
    }
    for (_, head, body) in &denied {
        assert!(
            head.lines()
                .any(|line| line.to_ascii_lowercase().starts_with("retry-after:")),
            "429 without Retry-After: {head}"
        );
        assert!(body.contains("rate limit"), "{body}");
    }

    // The bucket refills: a later run is admitted again.
    std::thread::sleep(Duration::from_secs(3));
    let (status, body) = router.post("/run/table1", QUICK_RUN);
    assert_eq!(status, 200, "bucket never refilled: {body}");

    let (_, metrics) = router.get("/metrics");
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_admission_drops") >= denied.len() as u64,
        "{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_serves_local_endpoints_tunnels_sse_and_aggregates_metrics() {
    let dir = scratch_dir("router-local");
    let workers: Vec<Daemon> = (0..2)
        .map(|i| {
            let cache = dir.join(format!("w{i}"));
            Daemon::spawn(&["--cache-dir", cache.to_str().unwrap()], &[])
        })
        .collect();
    let peers = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let router = Daemon::spawn(&["--role", "router", "--peers", &peers], &[]);
    wait_for_alive(&router, 2, "both workers up");

    // /healthz: router role with the per-peer view.
    let (status, body) = router.get("/healthz");
    assert_eq!(status, 200);
    let health = json(&body);
    assert_eq!(str_field(&health, "role"), "router");
    let Value::Seq(peer_views) = health.field("peers").expect("peers") else {
        panic!("'peers' is not an array: {body}");
    };
    assert_eq!(peer_views.len(), 2);
    for view in peer_views {
        assert!(
            matches!(view.field("alive"), Ok(Value::Bool(true))),
            "{body}"
        );
    }

    // /experiments: identical to a worker's document.
    let (_, from_router) = router.get("/experiments");
    let (_, from_worker) = workers[0].get("/experiments");
    assert_eq!(from_router, from_worker);

    // Validation failures are produced on the router, without a proxy hop.
    let (status, body) = router.post("/run/not-an-experiment", QUICK_RUN);
    assert_eq!(status, 404, "{body}");
    let (status, _) = router.post("/run/table1", "{\"frobnicate\":1}");
    assert_eq!(status, 400);
    let (status, _) = router.get("/nope");
    assert_eq!(status, 404);
    let (status, _) = router.get("/events");
    assert_eq!(status, 404, "the router tunnels only run streams");
    let (status, _, _) = router.request("DELETE", "/metrics", None);
    assert_eq!(status, 405);

    // SSE tunnels through unchanged: the stream ends with the terminal
    // report event, exactly as when talking to a worker directly.
    let mut stream = TcpStream::connect(&router.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let raw = format!(
        "POST /run/table1?stream=events HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{QUICK_RUN}",
        QUICK_RUN.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read stream");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "tunneled stream head: {response}"
    );
    assert!(
        response.contains("text/event-stream"),
        "not an SSE response: {response}"
    );
    assert!(
        response.contains("event: report"),
        "tunneled stream never delivered the report: {response}"
    );

    // /metrics aggregates every node's samples under `node` labels.
    let (status, metrics) = router.get("/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("node=\"{}\"", router.addr)),
        "router's own samples must carry its node label:\n{metrics}"
    );
    for worker in &workers {
        assert!(
            metrics.contains(&format!("node=\"{}\"", worker.addr)),
            "missing node label for worker {}:\n{metrics}",
            worker.addr
        );
    }
    assert!(
        metrics.contains("horizon_serve_requests{node="),
        "worker serve counters missing from the aggregate:\n{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Sends one `Connection: close` request and reads until EOF. A reset or
/// any other read error comes back as `Err`.
fn exchange(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: repro\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

#[test]
fn saturated_router_answers_whole_503s() {
    let dir = scratch_dir("router-saturation");
    let worker = Daemon::spawn(&["--cache-dir", dir.join("w").to_str().unwrap()], &[]);
    let router = Daemon::spawn(
        &[
            "--role",
            "router",
            "--peers",
            &worker.addr,
            "--workers",
            "1",
            "--queue-cap",
            "1",
        ],
        &[],
    );
    wait_for_alive(&router, 1, "worker up");

    // Distinct seeds: every run is cold on the worker, so the router's one
    // relay thread and one queue slot stay taken while the rest arrive.
    let start = std::sync::Arc::new(std::sync::Barrier::new(6));
    let handles: Vec<_> = (0..6)
        .map(|seed| {
            let addr = router.addr.clone();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let body = format!("{{\"quick\":true,\"seed\":{}}}", 100 + seed);
                exchange(&addr, "POST", "/run/table1", &body)
            })
        })
        .collect();
    let mut statuses = Vec::new();
    for handle in handles {
        let response = handle
            .join()
            .expect("client thread")
            .unwrap_or_else(|e| panic!("a client lost its response: {e}"));
        let response = String::from_utf8(response).expect("utf-8 response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("incomplete response: {response:?}"));
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status line in: {response:?}"));
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no Content-Length in: {head}"));
        assert_eq!(body.len(), length, "truncated body: {response:?}");
        match status {
            200 => assert_eq!(str_field(&json(body), "experiment"), "table1"),
            503 => assert!(head.contains("\r\nRetry-After: 1"), "{head}"),
            other => panic!("expected 200 or 503, got {other}: {response}"),
        }
        statuses.push(status);
    }
    assert!(statuses.contains(&200), "no run was relayed: {statuses:?}");
    assert!(
        statuses.contains(&503),
        "the router never saturated: {statuses:?}"
    );
    let (_, metrics) = router.get("/metrics");
    assert!(
        prometheus_counter(&metrics, "horizon_cluster_saturated") >= 1,
        "{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_flag_validation_fails_loudly() {
    let cases: &[&[&str]] = &[
        &["serve", "--peers", "127.0.0.1:1"],
        &["serve", "--role", "router"],
        &["serve", "--role", "banana"],
        &["serve", "--role", "router", "--peers", ""],
        &["serve", "--rate-limit", "3"],
        &[
            "serve",
            "--role",
            "worker",
            "--peers",
            "127.0.0.1:1",
            "--rate-limit",
            "3",
        ],
        // Only a router takes peers.
        &["serve", "--role", "worker", "--peers", "127.0.0.1:1"],
        // Cluster flags are serve-only.
        &["table1", "--quick", "--role", "worker"],
        &["list", "--peers", "127.0.0.1:1"],
    ];
    for args in cases {
        let output = Command::new(REPRO)
            .args(*args)
            .output()
            .expect("repro runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "`repro {}` should exit 2: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
