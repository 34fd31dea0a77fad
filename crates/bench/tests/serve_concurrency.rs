//! Concurrency end-to-end tests of `repro serve`: identical simultaneous
//! `POST /run` requests coalesce onto one engine campaign, distinct runs
//! execute side by side on the connection workers, saturation still
//! answers `503`, and a client that hangs up on a shared run disturbs
//! neither the run nor the other client waiting on it.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serde::Value;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Kills the daemon on drop so a failing assertion never leaks a process.
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
    /// Spawns `repro serve` on an ephemeral port and waits for the ready
    /// line (`repro-serve listening on http://ADDR`) on stderr.
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(REPRO)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro serve spawns");
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

    /// One HTTP/1.1 request; returns (status code, body).
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect to daemon");
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
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    fn get(&self, path: &str) -> (u16, String) {
        self.request("GET", path, None)
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        self.request("POST", path, Some(body))
    }

    /// SIGTERMs the daemon and waits for it to exit, returning the code.
    fn sigterm_and_wait(mut self, deadline: Duration) -> i32 {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM failed");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            assert!(
                start.elapsed() < deadline,
                "daemon did not exit within {deadline:?} after SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

fn num_field(v: &Value, name: &str) -> u64 {
    match v.field(name).expect("field present") {
        Value::Num(raw) => raw.parse().expect("integer field"),
        other => panic!("field '{name}' is not a number: {other:?}"),
    }
}

/// Reads a counter value out of Prometheus text format.
fn prometheus_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no counter '{name}' in metrics:\n{metrics}"))
}

/// N identical simultaneous requests must execute the underlying campaign
/// exactly once: all of them answer 200 with the same schema-versioned
/// report, the engine simulates each unique job once (table1 quick = 43
/// benchmarks × 1 machine), and the coalescing counters account for the
/// N−1 riders.
#[test]
fn concurrent_identical_runs_coalesce_onto_one_campaign() {
    const WAITERS: usize = 4;
    let daemon = Arc::new(Daemon::spawn(&[]));

    let barrier = Arc::new(Barrier::new(WAITERS));
    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let daemon = Arc::clone(&daemon);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    daemon.post("/run/table1", "{\"quick\":true}")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("poster"))
            .collect()
    });

    let mut reports = Vec::new();
    let mut coalesced_responses = 0;
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        let parsed: Value = serde_json::from_str(body).expect("run response is JSON");
        let report = parsed.field("report").expect("structured report");
        assert_eq!(num_field(report, "schema_version"), 1, "{body}");
        reports.push(serde_json::to_string(report).expect("report re-serializes"));
        if matches!(parsed.field("coalesced"), Ok(Value::Bool(true))) {
            coalesced_responses += 1;
        }
    }
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "every waiter must read the identical report"
    );

    let (_, metrics) = daemon.get("/metrics");
    // All four arrived through the barrier while the cold run (tens of ms)
    // was in flight: at least one rider coalesced at the HTTP layer...
    let coalesced = prometheus_counter(&metrics, "horizon_serve_coalesced_runs");
    assert!(
        coalesced >= 1,
        "expected coalesced runs, metrics:\n{metrics}"
    );
    assert_eq!(
        coalesced, coalesced_responses as u64,
        "the counter must agree with the responses' coalesced flags"
    );
    // ...and however the race between request coalescing and the engine
    // memo resolved, each unique job was simulated exactly once.
    assert_eq!(
        prometheus_counter(&metrics, "horizon_engine_simulated_jobs"),
        43,
        "table1 --quick is 43 benchmarks × 1 machine, each simulated once"
    );

    let daemon = Arc::into_inner(daemon).expect("all posters joined");
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

/// Distinct experiments requested together on a cold daemon execute at
/// the same time, one per connection worker, and each answers exactly what batch
/// mode prints. `table2` and `fig1` measure a subset of `table1`'s
/// Skylake grid, so the three overlapping campaigns race on shared jobs.
#[test]
fn mixed_distinct_runs_all_complete() {
    let daemon = Arc::new(Daemon::spawn(&["--workers", "3"]));
    let experiments = ["table1", "table2", "fig1"];

    let barrier = Arc::new(Barrier::new(experiments.len()));
    let responses: Vec<(&str, u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = experiments
            .iter()
            .map(|id| {
                let daemon = Arc::clone(&daemon);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let path = format!("/run/{id}?format=text");
                    let (status, body) = daemon.post(&path, "{\"quick\":true}");
                    (*id, status, body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("poster"))
            .collect()
    });

    for (id, status, body) in &responses {
        assert_eq!(*status, 200, "experiment '{id}': {body}");
        let batch = Command::new(REPRO)
            .args([id, "--quick"])
            .output()
            .expect("batch repro runs");
        assert!(batch.status.success(), "repro {id} --quick failed");
        assert_eq!(
            body,
            &String::from_utf8(batch.stdout).unwrap(),
            "served {id} ?format=text differs from `repro {id} --quick` stdout"
        );
    }
    let (_, metrics) = daemon.get("/metrics");
    assert!(
        prometheus_counter(&metrics, "horizon_serve_runs_executed") >= experiments.len() as u64,
        "each distinct run executes, metrics:\n{metrics}"
    );

    let daemon = Arc::into_inner(daemon).expect("all posters joined");
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

/// Runs that overlap on the daemon's workers each report only their
/// own jobs: a pair of distinct cold runs released together, each on a
/// seed no other run uses, reads exactly its own 43 simulated jobs, not the
/// jobs its neighbour simulated meanwhile.
#[test]
fn overlapping_runs_report_only_their_own_engine_deltas() {
    let daemon = Arc::new(Daemon::spawn(&["--workers", "2", "--jobs", "1"]));
    for trial in 0..3u64 {
        let runs = [("table1", 100 + 2 * trial), ("table2", 101 + 2 * trial)];
        let barrier = Arc::new(Barrier::new(runs.len()));
        let responses: Vec<(&str, u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = runs
                .iter()
                .map(|&(id, seed)| {
                    let daemon = Arc::clone(&daemon);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let body = format!("{{\"quick\":true,\"seed\":{seed}}}");
                        barrier.wait();
                        let (status, body) = daemon.post(&format!("/run/{id}"), &body);
                        (id, status, body)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("poster"))
                .collect()
        });
        for (id, status, body) in &responses {
            assert_eq!(*status, 200, "trial {trial}, {id}: {body}");
            let parsed: Value = serde_json::from_str(body).expect("run response is JSON");
            let engine = parsed.field("engine").expect("engine deltas present");
            assert_eq!(
                num_field(engine, "simulated_jobs_delta"),
                43,
                "trial {trial}: {id} --quick simulates its own 43 jobs: {engine:?}"
            );
            assert_eq!(num_field(engine, "memo_hits_delta"), 0, "{engine:?}");
        }
    }

    let daemon = Arc::into_inner(daemon).expect("all posters joined");
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

/// Connection-level saturation is still answered inline with `503` and a
/// `Retry-After` hint while the daemon keeps its in-flight work.
#[test]
fn saturated_daemon_still_answers_503_with_retry_after() {
    let daemon = Daemon::spawn(&["--workers", "1", "--queue-cap", "1"]);

    // Occupy the single connection worker and the single queue slot with
    // connections that send nothing.
    let hold_worker = TcpStream::connect(&daemon.addr).expect("connect");
    std::thread::sleep(Duration::from_millis(400));
    let hold_queue = TcpStream::connect(&daemon.addr).expect("connect");
    std::thread::sleep(Duration::from_millis(400));

    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: repro\r\n\r\n")
        .expect("send");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 503 "),
        "expected saturation 503, got: {response}"
    );
    assert!(response.contains("Retry-After: 1"), "{response}");

    drop(hold_worker);
    drop(hold_queue);
    std::thread::sleep(Duration::from_millis(400));
    let (status, _) = daemon.get("/healthz");
    assert_eq!(status, 200, "daemon recovers after saturation");

    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

/// A client that hangs up on a shared run disturbs nothing: of two
/// identical cold requests released together, one client closes its
/// socket right after sending. Whether it led the run or followed it, the
/// run finishes, the other client reads an intact 200, and the run's jobs
/// land in the memo, so a third identical request simulates nothing.
#[test]
fn client_hang_up_does_not_disturb_a_shared_run() {
    let daemon = Arc::new(Daemon::spawn(&[]));
    let body = "{\"quick\":true}";

    let barrier = Arc::new(Barrier::new(2));
    let patient = std::thread::scope(|scope| {
        let hang_up = {
            let daemon = Arc::clone(&daemon);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
                let raw = format!(
                    "POST /run/table2 HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                barrier.wait();
                stream.write_all(raw.as_bytes()).expect("send request");
            }) // the socket closes here, before any answer
        };
        let patient = {
            let daemon = Arc::clone(&daemon);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                daemon.post("/run/table2", body)
            })
        };
        hang_up.join().expect("hang-up client");
        patient.join().expect("patient poster")
    });

    // The other client's response is a complete, uncorrupted report.
    assert_eq!(patient.0, 200, "{}", patient.1);
    let parsed: Value = serde_json::from_str(&patient.1).expect("response is JSON");
    let report = parsed.field("report").expect("structured report");
    assert_eq!(num_field(report, "schema_version"), 1);
    match report.field("tables").expect("tables present") {
        Value::Seq(tables) => assert!(!tables.is_empty(), "empty report"),
        other => panic!("'tables' is not an array: {other:?}"),
    }

    // The run finished for the memo: a third identical request simulates
    // nothing, and the daemon simulated table2's 43 jobs once in all.
    let (status, third) = daemon.post("/run/table2", body);
    assert_eq!(status, 200, "{third}");
    let third: Value = serde_json::from_str(&third).expect("response is JSON");
    let engine = third.field("engine").expect("engine deltas present");
    assert_eq!(num_field(engine, "simulated_jobs_delta"), 0, "{engine:?}");
    let (_, metrics) = daemon.get("/metrics");
    assert_eq!(
        prometheus_counter(&metrics, "horizon_engine_simulated_jobs"),
        43,
        "{metrics}"
    );

    let daemon = Arc::into_inner(daemon).expect("all posters joined");
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}
