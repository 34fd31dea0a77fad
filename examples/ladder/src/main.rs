//! The ladder: one command for the end-to-end and per-layer numbers of
//! batch `repro all` (cold and warm) and of served and routed runs.
//!
//! ```text
//! ladder [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
//! ```
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path examples/ladder/Cargo.toml -- --sets 2
//! ```
//!
//! It builds `repro` from the checkout and drives the binary as a
//! subprocess for every end-to-end number. With `--trace 1` a workload
//! reports its per-layer metrics instead; for the batch workloads those
//! come from a separate in-process traced run. Without `--workload`
//! every workload runs, and without `--trace` each runs untraced and
//! then traced. `--sets K` repeats everything K times and fails when an
//! end-to-end metric's sets disagree by more than its bound.
//!
//! The metric names, units and bounds are read from `BENCHMARK.json`;
//! outputs are checked against `repro_output.txt`. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod batch;
mod client;
mod golden;
mod layers;
mod proc;
mod serve;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use golden::Golden;
use proc::WorkDir;
use spec::{Metrics, Spec};

/// The workloads, in the order a full ladder runs them.
const WORKLOADS: [&str; 4] = ["batch-cold", "batch-warm", "serve-mixed", "routed-mixed"];

/// What every workload needs: the binary, the golden report, a scratch
/// directory, the window and the seed.
pub struct Ladder {
    pub repro: PathBuf,
    pub golden: Golden,
    pub work: WorkDir,
    /// Measurement window per run.
    pub seconds: f64,
    pub seed: u64,
}

/// One workload run's results: operations checked, failures with their
/// reasons, and measured metrics with a note on how each was taken.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Counts one checked operation; a failed one records why.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, note: String) {
        self.metrics.insert(name, value);
        if !note.is_empty() {
            self.notes.insert(name, note);
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        sets: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("flag '{flag}' expects a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid value '{v}' for '{flag}'"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("invalid value '{other}' for '--trace'")),
                }
            }
            "--sets" => parsed.sets = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn run_workload(ladder: &Ladder, workload: &str, traced: bool) -> Result<Outcome, String> {
    match workload {
        "batch-cold" => batch::cold(ladder, traced),
        "batch-warm" => batch::warm(ladder, traced),
        "serve-mixed" => serve::run(ladder, false),
        "routed-mixed" => serve::run(ladder, true),
        other => unreachable!("workload '{other}' validated at parse time"),
    }
}

/// One reported run, for the final line and the set comparison.
struct Reported {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladder: {e}");
            eprintln!(
                "usage: ladder [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--sets K]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ladder: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if let Some(missing) = WORKLOADS
        .iter()
        .find(|w| !spec.workloads.iter().any(|s| s == *w))
    {
        return Err(format!(
            "BENCHMARK.json does not declare workload '{missing}'"
        ));
    }
    let ladder = Ladder {
        golden: Golden::load(Path::new("repro_output.txt"))?,
        repro: proc::build_repro()?,
        work: WorkDir::create()?,
        seconds: args.seconds.unwrap_or(spec.run_seconds) as f64,
        seed: args.seed,
    };
    let workloads: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|chosen| chosen == *w))
        .collect();
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut reported = Vec::new();
    for set in 1..=args.sets {
        for &workload in &workloads {
            for &traced in &modes {
                println!(
                    "== {workload} ({}) seed {} window {} s set {set}/{} on {cores} cores ==",
                    if traced { "traced" } else { "untraced" },
                    ladder.seed,
                    ladder.seconds,
                    args.sets
                );
                let outcome = run_workload(&ladder, workload, traced)?;
                let metrics = spec.select(traced, &outcome.metrics)?;
                print_outcome(&spec, &outcome, &metrics);
                reported.push(Reported {
                    workload,
                    traced,
                    attempted: outcome.attempted,
                    failed: outcome.failed,
                    metrics,
                });
            }
        }
    }

    let agree = args.sets < 2 || compare_sets(&spec, &reported);
    let attempted = reported.iter().map(|r| r.attempted).sum();
    let failed: u64 = reported.iter().map(|r| r.failed).sum();
    let correct = failed == 0;
    let metrics: Vec<(String, f64, String)> = if let [only] = reported.as_slice() {
        only.metrics
            .iter()
            .map(|(name, value)| (name.clone(), *value, unit(&spec, name)))
            .collect()
    } else {
        // Several runs: one entry per workload and metric, the median
        // over sets.
        let mut merged: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for r in &reported {
            for (name, value) in &r.metrics {
                merged
                    .entry((r.workload.to_string(), name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
        merged
            .into_iter()
            .map(|((workload, name), values)| {
                let unit = unit(&spec, &name);
                (format!("{workload}/{name}"), stats::median(&values), unit)
            })
            .collect()
    };
    println!(
        "{}",
        spec::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct && agree)
}

/// A selected metric's unit (every selected name is declared).
fn unit(spec: &Spec, name: &str) -> String {
    spec.unit(name).unwrap_or_default().to_string()
}

fn print_outcome(spec: &Spec, outcome: &Outcome, metrics: &[(String, f64)]) {
    for (name, value) in metrics {
        let unit = unit(spec, name);
        let note = outcome.notes.get(name.as_str()).map_or("", String::as_str);
        println!("  {name:<26} {value:>16.6} {unit:<6} {note}");
    }
    let rate = if outcome.attempted > 0 {
        outcome.failed as f64 / outcome.attempted as f64
    } else {
        0.0
    };
    println!(
        "  ops {} attempted, {} failed, error_rate {rate}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }
}

/// The repeatability check: each end-to-end metric's spread across sets
/// against its bound. Returns whether every metric agrees.
fn compare_sets(spec: &Spec, reported: &[Reported]) -> bool {
    println!("== repeatability across sets ==");
    let mut agree = true;
    for workload in WORKLOADS {
        for metric in &spec.end_to_end {
            let values: Vec<f64> = reported
                .iter()
                .filter(|r| r.workload == workload && !r.traced)
                .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == metric.name))
                .map(|(_, v)| *v)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let spread = stats::spread(&values);
            let ok = spread <= metric.bound;
            agree &= ok;
            println!(
                "  {workload:<13} {:<12} spread {:>6.2}% bound {:>5.1}% {}",
                metric.name,
                spread * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    agree
}
