//! End-to-end tests of the `repro` binary: telemetry sinks, determinism
//! across worker counts, stdout purity, and the cache-gc subcommand.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("horizon-cli-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// The spans of an OTLP/JSON export (`--otlp-out`), asserting the
/// `resourceSpans` → `scopeSpans` → `spans` hierarchy.
fn otlp_spans(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("otlp file exists");
    let doc: Value = serde_json::from_str(text.trim()).expect("otlp is JSON");
    let Ok(Value::Seq(resource_spans)) = doc.field("resourceSpans") else {
        panic!("no resourceSpans: {text}");
    };
    let Ok(Value::Seq(scope_spans)) = resource_spans[0].field("scopeSpans") else {
        panic!("no scopeSpans");
    };
    let Ok(Value::Seq(spans)) = scope_spans[0].field("spans") else {
        panic!("no spans");
    };
    assert!(!spans.is_empty(), "otlp export has no spans");
    spans.clone()
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name).expect("field present") {
        Value::Str(s) => s.as_str(),
        other => panic!("field '{name}' is not a string: {other:?}"),
    }
}

/// One OTLP span attribute's value (`stringValue` or `intValue`, both
/// rendered as strings), if the span carries it.
fn attribute<'a>(span: &'a Value, key: &str) -> Option<&'a str> {
    let Ok(Value::Seq(attributes)) = span.field("attributes") else {
        panic!("span without attributes: {span:?}");
    };
    let kv = attributes.iter().find(|kv| str_field(kv, "key") == key)?;
    let value = kv.field("value").expect("attribute value");
    ["stringValue", "intValue"]
        .iter()
        .find_map(|kind| value.field(kind).ok())
        .map(|v| match v {
            Value::Str(s) => s.as_str(),
            other => panic!("attribute '{key}' is not a string: {other:?}"),
        })
}

/// The spans named `name`.
fn named<'a>(spans: &'a [Value], name: &str) -> Vec<&'a Value> {
    spans
        .iter()
        .filter(|s| str_field(s, "name") == name)
        .collect()
}

/// Span counts per name.
fn span_counts(spans: &[Value]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for span in spans {
        *counts
            .entry(str_field(span, "name").to_string())
            .or_default() += 1;
    }
    counts
}

/// Counter name → value from a Prometheus text exposition
/// (`--metrics-out`): every series declared `# TYPE <name> counter`.
fn counters(metrics: &str) -> BTreeMap<String, u64> {
    let declared: BTreeSet<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter"))
        .collect();
    metrics
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(name, _)| declared.contains(name))
        .map(|(name, value)| (name.to_string(), value.parse().expect("counter value")))
        .collect()
}

#[test]
fn traces_are_structurally_identical_across_worker_counts() {
    let dir = scratch_dir("determinism");
    let mut outputs = Vec::new();
    for jobs in ["1", "8"] {
        let otlp = dir.join(format!("otlp-{jobs}.json"));
        let metrics = dir.join(format!("metrics-{jobs}.txt"));
        let out = run(&[
            "all",
            "--quick",
            "--jobs",
            jobs,
            "--otlp-out",
            otlp.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "jobs={jobs}: {:?}", out.status);
        let metrics = std::fs::read_to_string(&metrics).expect("metrics file exists");
        outputs.push((out, otlp_spans(&otlp), metrics));
    }

    // Reports are bit-identical regardless of parallelism, and telemetry
    // never leaks into them.
    assert_eq!(outputs[0].0.stdout, outputs[1].0.stdout);
    let stdout = String::from_utf8(outputs[0].0.stdout.clone()).unwrap();
    assert!(!stdout.contains("\"traceId\""), "spans leaked to stdout");
    assert!(!stdout.contains("horizon_"), "metrics leaked to stdout");

    // The traces hold the same spans (per-name counts) and the metrics the
    // same counters; only wall-clock values may differ.
    let spans1 = span_counts(&outputs[0].1);
    assert_eq!(
        spans1,
        span_counts(&outputs[1].1),
        "span counts differ across --jobs"
    );
    let (counters1, counters8) = (counters(&outputs[0].2), counters(&outputs[1].2));
    let counter_names = |m: &BTreeMap<String, u64>| m.keys().cloned().collect::<BTreeSet<String>>();
    assert_eq!(counter_names(&counters1), counter_names(&counters8));
    for (name, value) in &counters1 {
        if name.contains("nanos") {
            continue; // wall clock legitimately varies
        }
        assert_eq!(
            counters8[name], *value,
            "counter '{name}' differs across --jobs"
        );
    }

    // Every experiment and pipeline stage is represented by spans.
    for required in [
        "experiment",
        "engine.campaign",
        "engine.simulate",
        "engine.job",
        "sim.measure",
        "stats.standardize",
        "stats.eigen",
        "stats.project",
        "cluster.linkage",
        "cluster.cut",
        "core.similarity",
        "core.subset",
        "core.validate",
    ] {
        assert!(
            spans1.contains_key(required),
            "no '{required}' spans in trace"
        );
    }
    assert!(
        spans1["experiment"] >= 18,
        "one span per registry experiment"
    );
    assert_eq!(
        counters1["horizon_engine_unique_jobs"],
        spans1["engine.job"] as u64
    );

    // Prometheus output carries the cache counters and the per-phase
    // wall-clock histogram the acceptance criteria ask for.
    let metrics = &outputs[0].2;
    for required in [
        "horizon_engine_memo_hits",
        "horizon_engine_disk_hits",
        "horizon_span_wall_nanos_bucket",
        "horizon_span_wall_nanos_sum{phase=\"engine.job\"}",
    ] {
        assert!(metrics.contains(required), "metrics missing '{required}'");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spans_nest_under_their_campaign() {
    let dir = scratch_dir("nesting");
    let otlp = dir.join("otlp.json");
    let out = run(&["table1", "--quick", "--otlp-out", otlp.to_str().unwrap()]);
    assert!(out.status.success());

    let spans = otlp_spans(&otlp);
    let find = |name: &str| {
        *named(&spans, name)
            .first()
            .unwrap_or_else(|| panic!("no '{name}' span"))
    };
    let experiment_id = str_field(find("experiment"), "spanId");
    let campaign = find("engine.campaign");
    assert_eq!(str_field(campaign, "parentSpanId"), experiment_id);
    let campaign_id = str_field(campaign, "spanId");
    for s in named(&spans, "engine.job") {
        assert_eq!(
            str_field(s, "parentSpanId"),
            campaign_id,
            "job outside campaign"
        );
        assert_eq!(attribute(s, "outcome"), Some("simulated"));
        assert!(!attribute(s, "workload").unwrap().is_empty());
        assert!(!attribute(s, "machine").unwrap().is_empty());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_gc_prunes_and_reports() {
    let dir = scratch_dir("cache-gc");
    let cache = dir.join("cache");
    let out = run(&["table1", "--quick", "--cache-dir", cache.to_str().unwrap()]);
    assert!(out.status.success());
    let entries = || {
        std::fs::read_dir(&cache)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    };
    let before = entries();
    assert!(before > 5, "cache populated ({before} entries)");

    let out = run(&[
        "cache-gc",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--max-entries",
        "5",
    ]);
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains(&format!(
            "examined {before} entries, removed {}",
            before - 5
        )),
        "unexpected report: {report}"
    );
    assert!(report.contains("retained 5"));
    assert_eq!(entries(), 5);

    // Without a cache dir the subcommand is a usage error.
    let out = run(&["cache-gc"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

/// The trace store and SimPoint sampling are gone: their flags are
/// unknown, and a cold `--cache-dir` run writes measurement entries only.
#[test]
fn removed_store_and_sampling_flags_are_unknown() {
    let dir = scratch_dir("removed-flags");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let traces = dir.join("traces");
    let traces = traces.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["table1", "--quick", "--sampling", "simpoint"],
        &["table1", "--quick", "--trace-store", traces],
        &["table1", "--quick", "--no-trace-store"],
        &["cache-gc", "--cache-dir", cache, "--max-trace-bytes", "0"],
        &["table1", "--quick", "--request-timeout-ms", "5"],
    ];
    for args in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "`repro {}`", args.join(" "));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
    }

    let out = run(&["table1", "--quick", "--cache-dir", cache]);
    assert!(out.status.success());
    for entry in std::fs::read_dir(cache).unwrap() {
        let path = entry.unwrap().path();
        assert!(
            path.is_file() && path.extension().is_some_and(|x| x == "json"),
            "unexpected cache dir entry {}",
            path.display()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_and_otlp_sinks_leave_the_report_bytes_alone() {
    let dir = scratch_dir("progress-otlp");
    let otlp = dir.join("otlp.json");
    let metrics = dir.join("metrics.txt");
    let with_sinks = run(&[
        "table1",
        "--quick",
        "--progress",
        "--otlp-out",
        otlp.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(with_sinks.status.success());
    let plain = run(&["table1", "--quick"]);
    assert!(plain.status.success());
    assert_eq!(
        with_sinks.stdout, plain.stdout,
        "--progress/--otlp-out altered the stdout report"
    );

    // Progress goes to stderr: phase transitions and jobs-done lines.
    let stderr = String::from_utf8(with_sinks.stderr).unwrap();
    assert!(
        stderr.lines().any(|l| l.starts_with("progress: phase ")),
        "no phase progress lines: {stderr}"
    );
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("progress: ") && l.contains("jobs")),
        "no job-count progress lines: {stderr}"
    );

    // The OTLP document has spec-length hex ids and every span in the
    // same (run-derived) trace, each attributed to the run, and the
    // experiment span names its experiment.
    let spans = otlp_spans(&otlp);
    let trace_id = str_field(&spans[0], "traceId");
    assert_eq!(trace_id.len(), 32);
    let run_id = attribute(&spans[0], "horizon.run").expect("run attribute");
    assert!(run_id.parse::<u64>().unwrap() > 0, "attributed to a run");
    for span in &spans {
        assert_eq!(str_field(span, "traceId"), trace_id, "one run, one trace");
        assert_eq!(attribute(span, "horizon.run"), Some(run_id));
        assert_eq!(str_field(span, "spanId").len(), 16);
        let start: u64 = str_field(span, "startTimeUnixNano").parse().unwrap();
        let end: u64 = str_field(span, "endTimeUnixNano").parse().unwrap();
        assert!(start <= end);
    }
    let experiments = named(&spans, "experiment");
    assert_eq!(experiments.len(), 1);
    assert_eq!(attribute(experiments[0], "id"), Some("table1"));
    // Every record was kept: none dropped past the span cap.
    let metrics = std::fs::read_to_string(&metrics).expect("metrics file exists");
    assert_eq!(counters(&metrics)["horizon_dropped_spans"], 0);

    // `--progress` is an experiment-run flag; elsewhere it is a usage
    // error, same as the misplaced serve flags.
    let out = run(&["list", "--progress"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_and_experiments_are_rejected() {
    let out = run(&["table1", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["table1", "--metrics-out"]);
    assert_eq!(out.status.code(), Some(2), "missing flag value");
    let out = run(&["table1", "--otlp-out"]);
    assert_eq!(out.status.code(), Some(2), "missing flag value");
}

#[test]
fn unknown_subcommand_lists_known_subcommands() {
    let out = run(&["serv"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown subcommand or experiment 'serv'"),
        "stderr: {stderr}"
    );
    for name in ["all", "list", "serve", "cache-gc", "help"] {
        assert!(
            stderr.contains(name),
            "stderr should list subcommand '{name}': {stderr}"
        );
    }
    assert!(
        stderr.contains("table1"),
        "stderr should list experiments: {stderr}"
    );

    // Serve-only flags outside `repro serve` are usage errors, not silently
    // ignored knobs.
    let out = run(&["table1", "--quick", "--queue-cap", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--queue-cap"), "stderr: {stderr}");
}
