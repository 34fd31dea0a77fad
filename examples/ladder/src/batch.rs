//! The batch workloads: `repro all --jobs 1 --cache-dir DIR` against a
//! fresh cache (`batch-cold`) and against one set-up populated
//! (`batch-warm`). Every run's stdout must be byte-identical to
//! `repro_output.txt`. Batch inputs are fixed (seed 42 is what the
//! golden pins), so `--seed` does not change them.

use std::path::Path;
use std::time::Instant;

use crate::layers::{expand_traces, traced_run, TracedRun, COVERAGE};
use crate::proc::{dir_bytes, run_batch, BatchRun};
use crate::stats::median;
use crate::{Ladder, Outcome};

/// Preflight smoke runs `batch-cold` times as its set-up.
const PREFLIGHTS: usize = 5;

pub fn cold(ladder: &Ladder, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: prove the binary runs experiments before spending a full
    // cold run on it. Cheap, so it is repeated and its median kept.
    let mut setup = Vec::with_capacity(PREFLIGHTS);
    for _ in 0..PREFLIGHTS {
        let run = run_batch(&ladder.repro, &["table1", "--quick", "--jobs", "1"])?;
        out.check(run.success && run.stdout.starts_with(b"Table I:"), || {
            format!(
                "preflight `repro table1 --quick` failed: {}",
                run.stderr.trim()
            )
        });
        setup.push(run.wall_s);
    }
    out.metric(
        "setup_s",
        median(&setup),
        format!("median of {PREFLIGHTS} preflight runs"),
    );

    let cold_run = |out: &mut Outcome| {
        let dir = ladder.work.fresh("cold");
        let run = all(ladder, &dir, out);
        let _ = std::fs::remove_dir_all(&dir);
        run
    };
    if !traced {
        let runs = repeat(ladder.seconds, 1, || cold_run(&mut out), |r| r.wall_s)?;
        summarize(&mut out, &runs);
        return Ok(out);
    }
    let untraced = cold_run(&mut out)?;
    let dir = ladder.work.fresh("traced-cold");
    let run = traced_run(&dir, &ladder.golden)?;
    out.metric("cache.dir_bytes", dir_bytes(&dir) as f64, String::new());
    let _ = std::fs::remove_dir_all(&dir);
    absorb_traced(&mut out, run, untraced.wall_s, false);
    Ok(out)
}

pub fn warm(ladder: &Ladder, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ladder.work.fresh("warm");
    // Set-up: one cold run populates the cache every measured run reads.
    let populate = all(ladder, &dir, &mut out)?;
    out.metric("setup_s", populate.wall_s, "the populating cold run".into());

    if !traced {
        let runs = repeat(
            ladder.seconds,
            3,
            || all(ladder, &dir, &mut out),
            |r| r.wall_s,
        )?;
        summarize(&mut out, &runs);
        return Ok(out);
    }
    // Half the window untraced (the overhead reference), half traced.
    let half = ladder.seconds / 2.0;
    let untraced = repeat(half, 3, || all(ladder, &dir, &mut out), |r| r.wall_s)?;
    let untraced_s = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut runs = repeat(half, 3, || traced_run(&dir, &ladder.golden), |r| r.wall_s)?;
    for run in &runs {
        let simulated = run.metrics["engine.simulated_jobs"];
        out.check(simulated == 0.0, || {
            format!("a warm traced run simulated {simulated} jobs")
        });
    }
    // Report the run with the median wall time.
    runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let count = runs.len();
    let run = runs.swap_remove(count / 2);
    out.metric("cache.dir_bytes", dir_bytes(&dir) as f64, String::new());
    absorb_traced(&mut out, run, untraced_s, true);
    Ok(out)
}

/// One `repro all --jobs 1 --cache-dir DIR`, checked against the golden.
fn all(ladder: &Ladder, dir: &Path, out: &mut Outcome) -> Result<BatchRun, String> {
    let dir = dir.to_str().ok_or("non-UTF-8 work directory")?;
    let run = run_batch(&ladder.repro, &["all", "--jobs", "1", "--cache-dir", dir])?;
    out.check(run.success && ladder.golden.matches(&run.stdout), || {
        format!(
            "`repro all` {} (stderr: {})",
            if run.success {
                "printed a report that differs from repro_output.txt"
            } else {
                "failed"
            },
            run.stderr.trim()
        )
    });
    Ok(run)
}

/// Runs `op` until the next run would end past `seconds`, at least
/// `min_runs` times.
fn repeat<T>(
    seconds: f64,
    min_runs: usize,
    mut op: impl FnMut() -> Result<T, String>,
    wall: impl Fn(&T) -> f64,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        runs.push(op()?);
        let typical = median(&runs.iter().map(&wall).collect::<Vec<_>>());
        if runs.len() >= min_runs && start.elapsed().as_secs_f64() + typical > seconds {
            return Ok(runs);
        }
    }
}

/// `wall_s` is the fastest run. A batch run is deterministic CPU work,
/// so host contention can only add time to it; the fastest of a run's
/// series is the steadiest estimate of its cost on a shared box. Runs
/// go one at a time, so the rate they sustain is its reciprocal.
fn summarize(out: &mut Outcome, runs: &[BatchRun]) {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mb).collect();
    let n = runs.len();
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric(
        "wall_s",
        fastest,
        format!("fastest of {n} runs (median {:.4})", median(&walls)),
    );
    out.metric("runs_per_s", 1.0 / fastest, "1 / wall_s".into());
    out.metric(
        "peak_rss_mb",
        median(&peaks),
        format!("median of {n} runs' VmHWM"),
    );
}

/// Folds a traced run into the outcome: its correctness, the
/// reconciliation check, its layer metrics, the trace re-expansion and
/// the tracing overhead against the untraced median.
fn absorb_traced(out: &mut Outcome, run: TracedRun, untraced_s: f64, warm: bool) {
    out.check(run.correct, || {
        "the traced run's reassembled report differs from repro_output.txt".into()
    });
    let coverage = run.metrics["layers.coverage"];
    out.check(COVERAGE.contains(&coverage), || {
        format!(
            "layers.coverage {coverage:.3} is outside [{}, {}]: the layer times do not add up \
             to the traced wall time",
            COVERAGE.start(),
            COVERAGE.end()
        )
    });
    let (expand_s, instructions) = expand_traces(&run.batches);
    for (name, value) in run.metrics {
        out.metrics.insert(name, value);
    }
    out.metric(
        "trace.expand_s",
        expand_s,
        format!("{} simulated batches re-expanded", run.batches.len()),
    );
    out.metric("trace.instructions", instructions as f64, String::new());
    out.metric(
        "trace.overhead_pct",
        (run.wall_s / untraced_s - 1.0) * 100.0,
        format!(
            "traced {:.3} s vs untraced {} {untraced_s:.3} s",
            run.wall_s,
            if warm { "median" } else { "run" }
        ),
    );
}
