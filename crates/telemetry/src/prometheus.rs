//! Prometheus-style text exposition sink.
//!
//! Not a scrape endpoint — a plain-text dump in the exposition format so
//! runs can be diffed and plotted with standard tooling. Counters become
//! `horizon_<name>`, explicit histograms become `horizon_<name>` histogram
//! families, and per-span-name wall times are exposed as one histogram
//! family `horizon_span_wall_nanos` with a `phase` label. Every histogram
//! family additionally gets a `<family>_quantile` gauge with
//! `q="0.5"/"0.9"/"0.99"` labels — pre-computed p50/p90/p99 bucket upper
//! bounds for readers that don't do `histogram_quantile` themselves.
//! Single-label histograms (e.g. `serve.request_wall_ms` by `route`)
//! render as one family per name with their label on every series.

use std::io::{self, Write};

use crate::histogram::Histogram;
use crate::snapshot::TelemetrySnapshot;

/// `engine.queue_wait_ns` → `engine_queue_wait_ns` (metric-name charset).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn write_histogram(
    out: &mut impl Write,
    family: &str,
    labels: &str,
    h: &Histogram,
) -> io::Result<()> {
    let mut cumulative = 0u64;
    for (le, count) in h.buckets() {
        cumulative += count;
        // Skip interior empty buckets but keep the ones that carry counts;
        // cumulative values stay correct because they accumulate anyway.
        if count > 0 {
            writeln!(out, "{family}_bucket{{{labels}le=\"{le}\"}} {cumulative}")?;
        }
    }
    cumulative += h.overflow();
    writeln!(out, "{family}_bucket{{{labels}le=\"+Inf\"}} {cumulative}")?;
    writeln!(
        out,
        "{family}_sum{{{labels_trim}}} {}",
        h.sum(),
        labels_trim = labels.trim_end_matches(',')
    )?;
    writeln!(
        out,
        "{family}_count{{{labels_trim}}} {}",
        h.count(),
        labels_trim = labels.trim_end_matches(',')
    )?;
    Ok(())
}

/// The `<family>_quantile` companion gauge: p50/p90/p99 bucket upper
/// bounds. Callers emit the `# TYPE` line once per family.
fn write_quantiles(
    out: &mut impl Write,
    family: &str,
    labels: &str,
    h: &Histogram,
) -> io::Result<()> {
    for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
        writeln!(
            out,
            "{family}_quantile{{{labels}q=\"{label}\"}} {}",
            h.quantile_upper_bound(q)
        )?;
    }
    Ok(())
}

/// Writes the snapshot in Prometheus text exposition format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_prometheus(snapshot: &TelemetrySnapshot, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "# TYPE horizon_dropped_spans counter")?;
    writeln!(out, "horizon_dropped_spans {}", snapshot.dropped_spans)?;

    for (name, value) in &snapshot.counters {
        let metric = format!("horizon_{}", sanitize(name));
        writeln!(out, "# TYPE {metric} counter")?;
        writeln!(out, "{metric} {value}")?;
    }

    for (name, value) in &snapshot.gauges {
        let metric = format!("horizon_{}", sanitize(name));
        writeln!(out, "# TYPE {metric} gauge")?;
        writeln!(out, "{metric} {value}")?;
    }

    for (name, h) in &snapshot.histograms {
        let metric = format!("horizon_{}", sanitize(name));
        writeln!(out, "# TYPE {metric} histogram")?;
        write_histogram(out, &metric, "", h)?;
        writeln!(out, "# TYPE {metric}_quantile gauge")?;
        write_quantiles(out, &metric, "", h)?;
    }

    // Single-label histograms: one family per metric name, the label on
    // every series. BTreeMap order keeps a family's entries contiguous.
    let mut last_family: Option<&'static str> = None;
    for (&(family, label_key, label_value), h) in &snapshot.labeled_histograms {
        let metric = format!("horizon_{}", sanitize(family));
        if last_family != Some(family) {
            writeln!(out, "# TYPE {metric} histogram")?;
            last_family = Some(family);
        }
        let labels = format!("{}=\"{label_value}\",", sanitize(label_key));
        write_histogram(out, &metric, &labels, h)?;
    }
    let mut last_family: Option<&'static str> = None;
    for (&(family, label_key, label_value), h) in &snapshot.labeled_histograms {
        let metric = format!("horizon_{}", sanitize(family));
        if last_family != Some(family) {
            writeln!(out, "# TYPE {metric}_quantile gauge")?;
            last_family = Some(family);
        }
        let labels = format!("{}=\"{label_value}\",", sanitize(label_key));
        write_quantiles(out, &metric, &labels, h)?;
    }

    if !snapshot.span_wall.is_empty() {
        writeln!(out, "# TYPE horizon_span_wall_nanos histogram")?;
        for (name, h) in &snapshot.span_wall {
            let labels = format!("phase=\"{name}\",");
            write_histogram(out, "horizon_span_wall_nanos", &labels, h)?;
        }
        writeln!(out, "# TYPE horizon_span_wall_nanos_quantile gauge")?;
        for (name, h) in &snapshot.span_wall {
            let labels = format!("phase=\"{name}\",");
            write_quantiles(out, "horizon_span_wall_nanos", &labels, h)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    fn sample_dump() -> String {
        let r = Arc::new(Recorder::new());
        r.counter_add("engine.memo_hits", 5);
        r.counter_add("engine.disk_hits", 1);
        r.gauge_add("serve.active_runs", 2);
        r.gauge_add("serve.active_runs", -1);
        for v in [800, 3000, 70_000] {
            r.histogram_record("engine.queue_wait_ns", v);
        }
        r.histogram_record_labeled("serve.request_wall_ms", "route", "run", 40);
        r.histogram_record_labeled("serve.request_wall_ms", "route", "healthz", 1);
        {
            let _s = r.span("stats.eigen");
        }
        let mut buf = Vec::new();
        write_prometheus(&r.snapshot(), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn counters_are_typed_and_sanitized() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_engine_memo_hits counter"));
        assert!(text.contains("horizon_engine_memo_hits 5"));
        assert!(text.contains("horizon_engine_disk_hits 1"));
        assert!(!text.contains("engine.memo_hits"), "names are sanitized");
    }

    #[test]
    fn gauges_are_typed_gauge_and_carry_levels() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_serve_active_runs gauge"));
        assert!(text.contains("horizon_serve_active_runs 1"));
    }

    #[test]
    fn histogram_family_is_cumulative_and_closed() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_engine_queue_wait_ns histogram"));
        assert!(text.contains("horizon_engine_queue_wait_ns_bucket{le=\"1024\"} 1"));
        assert!(text.contains("horizon_engine_queue_wait_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("horizon_engine_queue_wait_ns_count{} 3"));
        assert!(text.contains("horizon_engine_queue_wait_ns_sum{} 73800"));
    }

    #[test]
    fn span_wall_exposed_with_phase_label() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_span_wall_nanos histogram"));
        assert!(
            text.contains("horizon_span_wall_nanos_bucket{phase=\"stats.eigen\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("horizon_span_wall_nanos_count{phase=\"stats.eigen\"} 1"));
    }

    #[test]
    fn quantile_gauges_accompany_every_histogram_family() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_engine_queue_wait_ns_quantile gauge"));
        assert!(text.contains("horizon_engine_queue_wait_ns_quantile{q=\"0.5\"} 4096"));
        // p99's bucket edge is 131072, capped at the largest sample.
        assert!(text.contains("horizon_engine_queue_wait_ns_quantile{q=\"0.99\"} 70000"));
        assert!(text.contains("horizon_span_wall_nanos_quantile{phase=\"stats.eigen\",q=\"0.9\"}"));
    }

    #[test]
    fn labeled_histograms_render_one_family_with_label_series() {
        let text = sample_dump();
        assert!(text.contains("# TYPE horizon_serve_request_wall_ms histogram"));
        assert_eq!(
            text.matches("# TYPE horizon_serve_request_wall_ms histogram")
                .count(),
            1,
            "one TYPE line per family, not per label value"
        );
        assert!(text.contains("horizon_serve_request_wall_ms_bucket{route=\"run\",le=\"+Inf\"} 1"));
        assert!(text.contains("horizon_serve_request_wall_ms_count{route=\"healthz\"} 1"));
        assert!(text.contains("horizon_serve_request_wall_ms_quantile{route=\"run\",q=\"0.5\"}"));
    }

    #[test]
    fn parses_line_by_line() {
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in sample_dump().lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "{line}");
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("metric and value");
            assert!(!metric.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
