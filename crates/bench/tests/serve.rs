//! End-to-end tests of `repro serve`: the daemon binds an ephemeral port,
//! serves health/experiments/run/metrics/cache-gc endpoints over its warm
//! engine, answers runs with schema-versioned structured reports (and
//! `?format=text` byte-identical to batch mode), and drains cleanly on
//! SIGTERM. Concurrency behavior (request coalescing, saturation, a
//! client hanging up on a shared run) lives in `serve_concurrency.rs`.

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
    let dir = std::env::temp_dir().join(format!("horizon-serve-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// Reads a counter value out of Prometheus text format.
fn prometheus_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no counter '{name}' in metrics:\n{metrics}"))
}

/// Sends one request and reads the socket to EOF (stream responses
/// always close), returning (status, body) with chunked transfer
/// decoding applied when the response used it.
fn stream_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read stream");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response}"));
    let (head, payload) = response.split_once("\r\n\r\n").expect("header boundary");
    if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        (status, dechunk(payload))
    } else {
        (status, payload.to_string())
    }
}

/// Reassembles a chunked transfer body (hex size line, chunk, CRLF, …,
/// terminated by the zero chunk).
fn dechunk(mut body: &str) -> String {
    let mut out = String::new();
    loop {
        let (size_line, rest) = body.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        body = &rest[size + 2..];
    }
}

/// Splits an SSE body into `(event, data)` pairs, skipping comments.
fn parse_sse(body: &str) -> Vec<(String, String)> {
    body.split("\n\n")
        .filter(|block| !block.trim().is_empty() && !block.starts_with(':'))
        .map(|block| {
            let mut event = String::new();
            let mut data = String::new();
            for line in block.lines() {
                if let Some(v) = line.strip_prefix("event: ") {
                    event = v.to_string();
                } else if let Some(v) = line.strip_prefix("data: ") {
                    data = v.to_string();
                }
            }
            (event, data)
        })
        .collect()
}

/// A run stream carries only the run's feed: its `start` frame, phase
/// transitions, per-job progress and the terminal `report`; and the
/// `start` frame carries no ETA hint.
fn assert_feed_frames_only(events: &[(String, String)]) {
    for (event, data) in events {
        assert!(
            matches!(
                event.as_str(),
                "start" | "phase_enter" | "phase_exit" | "progress" | "report"
            ),
            "unexpected '{event}' frame: {data}"
        );
    }
    let start: Value = serde_json::from_str(&events[0].1).expect("start data is JSON");
    assert!(start.field("eta_hint_ms").is_err(), "{start:?}");
}

/// The last `progress` frame's hit counts equal the report's engine
/// deltas: the frames count the outcomes of the run's own jobs.
fn assert_hits_match_the_report(events: &[(String, String)], engine: &Value) {
    let (_, last_progress) = events
        .iter()
        .rev()
        .find(|(e, _)| e == "progress")
        .expect("at least one progress event");
    let progress: Value = serde_json::from_str(last_progress).expect("progress data is JSON");
    for (frame, delta) in [
        ("memo_hits", "memo_hits_delta"),
        ("disk_hits", "disk_hits_delta"),
    ] {
        assert_eq!(
            num_field(&progress, frame),
            num_field(engine, delta),
            "{frame} of {last_progress} against {engine:?}"
        );
    }
}

#[test]
fn streamed_run_emits_ordered_events_then_the_report() {
    let daemon = Daemon::spawn(&[]);

    // Reference: the non-streaming structured response for identical
    // options (run first so the streamed run's report comes off the warm
    // memo quickly — determinism makes the reports identical anyway).
    let (status, plain) = daemon.post("/run/table1", "{\"quick\":true}");
    assert_eq!(status, 200, "{plain}");
    let plain: Value = serde_json::from_str(&plain).expect("plain response is JSON");

    let (status, body) = stream_request(
        &daemon.addr,
        "POST",
        "/run/table1?stream=events",
        "{\"quick\":true}",
    );
    assert_eq!(status, 200, "{body}");
    let events = parse_sse(&body);
    assert!(events.len() >= 3, "expected start/progress/report: {body}");

    // The stream opens with `start` (experiment + run attribution) and
    // terminates with exactly one `report`.
    let (first_event, first_data) = &events[0];
    assert_eq!(first_event, "start", "{body}");
    let start: Value = serde_json::from_str(first_data).expect("start data is JSON");
    assert_eq!(str_field(&start, "experiment"), "table1");
    let run_id = num_field(&start, "run");
    assert!(run_id > 0, "run ids start at 1");
    assert_feed_frames_only(&events);
    let (last_event, last_data) = events.last().unwrap();
    assert_eq!(last_event, "report", "stream must end with the report");
    assert_eq!(
        events.iter().filter(|(e, _)| e == "report").count(),
        1,
        "exactly one terminal report"
    );

    // At least one phase event precedes the report, and every bus event
    // in between carries a strictly increasing sequence number.
    let phase_at = events
        .iter()
        .position(|(e, _)| e == "phase_enter")
        .expect("at least one phase_enter before the report");
    assert!(phase_at < events.len() - 1);
    let mut last_seq = 0u64;
    for (event, data) in &events[1..events.len() - 1] {
        let parsed: Value = serde_json::from_str(data)
            .unwrap_or_else(|e| panic!("unparseable {event} data: {e}: {data}"));
        if parsed.field("seq").is_ok() {
            let seq = num_field(&parsed, "seq");
            assert!(seq > last_seq, "seq went backwards: {seq} after {last_seq}");
            last_seq = seq;
            assert_eq!(num_field(&parsed, "run"), run_id, "foreign run leaked in");
        }
    }

    // Progress events count jobs toward a total and report elapsed time.
    let (_, progress_data) = events
        .iter()
        .find(|(e, _)| e == "progress")
        .expect("at least one progress event");
    let progress: Value = serde_json::from_str(progress_data).expect("progress data is JSON");
    let completed = num_field(&progress, "completed");
    let total = num_field(&progress, "total");
    assert!(completed <= total && total > 0, "{progress_data}");
    assert!(progress.field("elapsed_ms").is_ok(), "{progress_data}");

    // Every job of this repeat is a memo hit, and the progress frames
    // count them from the jobs' own outcomes: the last one agrees with
    // the report's engine deltas.
    let terminal: Value = serde_json::from_str(last_data).expect("report data is JSON");
    let engine = terminal.field("engine").expect("engine deltas");
    assert_eq!(num_field(engine, "memo_hits_delta"), 43, "{engine:?}");
    assert_hits_match_the_report(&events, engine);

    // The terminal payload is the same structured body the non-streaming
    // endpoint answers (wall clock aside).
    assert_eq!(str_field(&terminal, "experiment"), "table1");
    assert_eq!(
        serde_json::to_string(terminal.field("report").expect("report field"))
            .expect("re-serializes"),
        serde_json::to_string(plain.field("report").expect("report field")).expect("re-serializes"),
        "streamed report drifted from the non-streaming response"
    );

    // Stream validation failures answer as plain framed errors.
    let (status, body) = daemon.post("/run/table1?stream=banana", "{\"quick\":true}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown stream mode"), "{body}");
    let (status, body) = daemon.post("/run/table1?stream=events&format=text", "{\"quick\":true}");
    assert_eq!(status, 400, "{body}");
    let (status, body) = daemon.post("/run/nope?stream=events", "{}");
    assert_eq!(status, 404, "{body}");

    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

/// A streamed run is live: its progress reaches the client while the run
/// executes, not in one burst once it has finished. A cold quick `table1`
/// on a seed no other run used simulates 43 jobs, and each job's
/// `progress` frame leaves as it completes, so the first one arrives well
/// before the `report` frame.
#[test]
fn streamed_run_delivers_progress_while_it_executes() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = "{\"quick\":true,\"seed\":7}";
    let raw = format!(
        "POST /run/table1?stream=events HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");

    // Each SSE frame leaves in one chunk, so a frame's `event:` line is
    // contiguous in the raw bytes; note when each kind first shows up.
    let seen = |raw: &[u8], pattern: &[u8]| raw.windows(pattern.len()).any(|w| w == pattern);
    let (mut raw, mut buf) = (Vec::new(), [0u8; 4096]);
    let (mut first_progress, mut report) = (None, None);
    loop {
        let n = stream.read(&mut buf).expect("read stream");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        let now = Instant::now();
        if first_progress.is_none() && seen(&raw, b"event: progress\n") {
            first_progress = Some(now);
        }
        if report.is_none() && seen(&raw, b"event: report\n") {
            report = Some(now);
        }
    }
    let response = String::from_utf8(raw).expect("utf-8 stream");
    let (_, payload) = response.split_once("\r\n\r\n").expect("header boundary");
    let events = parse_sse(&dechunk(payload));
    let (last_event, last_data) = events.last().expect("events");
    assert_eq!(last_event, "report", "{events:?}");
    let terminal: Value = serde_json::from_str(last_data).expect("report data is JSON");
    let engine = terminal.field("engine").expect("engine deltas");
    assert_eq!(num_field(engine, "simulated_jobs_delta"), 43, "{engine:?}");
    let wall_ms = num_field(&terminal, "wall_ms");
    assert_feed_frames_only(&events);
    assert_hits_match_the_report(&events, engine);

    let first_progress = first_progress.expect("a progress frame arrived");
    let lead = report.expect("the report frame arrived") - first_progress;
    assert!(
        lead.as_millis() * 2 >= u128::from(wall_ms),
        "the first progress frame led the report by {} ms of a {wall_ms} ms run",
        lead.as_millis()
    );

    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

#[test]
fn run_streams_clean_up_on_disconnect_and_events_is_gone() {
    let daemon = Daemon::spawn(&[]);

    // Baseline: no subscribers.
    let (_, health) = daemon.get("/healthz");
    let health: Value = serde_json::from_str(&health).expect("healthz is JSON");
    assert_eq!(num_field(&health, "event_subscribers"), 0);
    assert!(health.field("queue_depth").is_ok(), "{health:?}");

    // Open a run stream, read just past the response head, and hang up
    // mid-run. The daemon must notice the dead client and drop the bus
    // subscription instead of leaking it.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let body = "{\"quick\":true}";
        let raw = format!(
            "POST /run/table2?stream=events HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send request");
        let mut buf = [0u8; 256];
        let n = stream.read(&mut buf).expect("read response head");
        assert!(n > 0, "daemon sent nothing before the drop");
    } // socket dropped here, mid-stream

    let start = Instant::now();
    loop {
        let (_, health) = daemon.get("/healthz");
        let health: Value = serde_json::from_str(&health).expect("healthz is JSON");
        if num_field(&health, "event_subscribers") == 0 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "subscription leaked after client disconnect: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Run streams are the only event streams: the daemon-wide firehose
    // is gone, with its `?limit=`. Only the status line is read, so a
    // stream that never ends cannot hang the test.
    for path in ["/events", "/events?limit=3"] {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: repro\r\n\r\n").expect("send request");
        let mut status_line = String::new();
        BufReader::new(stream)
            .read_line(&mut status_line)
            .expect("read status line");
        assert!(
            status_line.starts_with("HTTP/1.1 404 "),
            "{path}: {status_line}"
        );
    }

    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}

#[test]
fn daemon_serves_runs_from_a_warm_cache_and_drains_on_sigterm() {
    let dir = scratch_dir("daemon");
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&["--cache-dir", cache.to_str().unwrap()]);

    // Health and discovery endpoints.
    let (status, health) = daemon.get("/healthz");
    assert_eq!(status, 200, "{health}");
    let health: Value = serde_json::from_str(&health).expect("healthz is JSON");
    assert_eq!(str_field(&health, "status"), "ok");
    assert!(num_field(&health, "experiments") >= 18);

    let (status, list) = daemon.get("/experiments");
    assert_eq!(status, 200);
    assert!(list.contains("\"id\":\"table1\""), "{list}");

    // Runs have no per-request deadline: the option is unknown.
    let (status, body) = daemon.post("/run/table1", "{\"quick\":true,\"deadline_ms\":1}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown option 'deadline_ms'"), "{body}");

    // First real run: the default response carries the schema-versioned
    // structured report (report_v1), not a text blob.
    let (status, first) = daemon.post("/run/table1", "{\"quick\":true}");
    assert_eq!(status, 200, "{first}");
    let first: Value = serde_json::from_str(&first).expect("run response is JSON");
    assert_eq!(str_field(&first, "experiment"), "table1");
    assert!(
        matches!(first.field("coalesced"), Ok(Value::Bool(_))),
        "run responses must say whether they coalesced"
    );
    let report = first.field("report").expect("structured report present");
    assert_eq!(num_field(report, "schema_version"), 1);
    assert_eq!(str_field(report, "experiment"), "table1");
    let Value::Seq(tables) = report.field("tables").expect("tables present") else {
        panic!("'tables' is not an array: {report:?}");
    };
    assert!(!tables.is_empty(), "table1 must parse at least one table");
    let served_report = serde_json::to_string(report).expect("report re-serializes");

    // `?format=text` is byte-identical to batch-mode stdout.
    let (status, text) = daemon.post("/run/table1?format=text", "{\"quick\":true}");
    assert_eq!(status, 200, "{text}");
    let batch = Command::new(REPRO)
        .args(["table1", "--quick"])
        .output()
        .expect("batch repro runs");
    assert!(batch.status.success());
    assert_eq!(
        text,
        String::from_utf8(batch.stdout).unwrap(),
        "served ?format=text differs from `repro table1 --quick` stdout"
    );

    // Second identical run: answered from the warm in-process memo.
    let (_, metrics_before) = daemon.get("/metrics");
    let hits_before = prometheus_counter(&metrics_before, "horizon_engine_memo_hits");
    let (status, second) = daemon.post("/run/table1", "{\"quick\":true}");
    assert_eq!(status, 200);
    let second: Value = serde_json::from_str(&second).expect("run response is JSON");
    let second_report = second.field("report").expect("structured report present");
    assert_eq!(
        serde_json::to_string(second_report).expect("report re-serializes"),
        served_report,
        "reports drift"
    );
    let engine = second.field("engine").expect("engine stats present");
    assert!(
        num_field(engine, "memo_hits_delta") > 0,
        "second run should hit the warm memo: {engine:?}"
    );
    assert_eq!(
        num_field(engine, "simulated_jobs_delta"),
        0,
        "warm run re-simulated jobs"
    );
    let (_, metrics_after) = daemon.get("/metrics");
    let hits_after = prometheus_counter(&metrics_after, "horizon_engine_memo_hits");
    assert!(
        hits_after > hits_before,
        "memo-hit counter did not move: {hits_before} -> {hits_after}"
    );
    assert!(metrics_after.contains("horizon_serve_requests"));

    // The disk cache is live and GC-able through the daemon.
    let (status, gc) = daemon.post("/cache/gc", "{\"max_entries\":1}");
    assert_eq!(status, 200, "{gc}");
    let gc: Value = serde_json::from_str(&gc).expect("gc report is JSON");
    assert!(num_field(&gc, "examined") >= 1, "{gc:?}");

    // Graceful shutdown: SIGTERM drains and exits 0.
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0, "daemon must exit 0 on SIGTERM");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_rejects_malformed_requests_without_dying() {
    let daemon = Daemon::spawn(&[]);

    let (status, body) = daemon.post("/run/not-an-experiment", "{\"quick\":true}");
    assert_eq!(status, 404);
    assert!(
        body.contains("table1"),
        "404 should list experiments: {body}"
    );
    let (status, _) = daemon.post("/run/table1", "this is not json");
    assert_eq!(status, 400);
    let (status, body) = daemon.post("/run/table1", "{\"frobnicate\":1}");
    assert_eq!(status, 400);
    assert!(body.contains("frobnicate"), "{body}");
    let (status, body) = daemon.post("/run/table1?format=yaml", "{\"quick\":true}");
    assert_eq!(status, 400);
    assert!(body.contains("unknown format 'yaml'"), "{body}");
    let (status, _) = daemon.post("/cache/gc", "{}");
    assert_eq!(status, 409, "no cache dir configured");
    let (status, _) = daemon.get("/nope");
    assert_eq!(status, 404);

    // Still healthy after the abuse.
    let (status, _) = daemon.get("/healthz");
    assert_eq!(status, 200);
    let code = daemon.sigterm_and_wait(Duration::from_secs(30));
    assert_eq!(code, 0);
}
