//! In-memory snapshot of a recorder's state — the sink tests and the
//! `repro --stats` phase table query.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::recorder::FieldValue;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Recorder-unique id (allocation order, starting at 1).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name (dot-separated, e.g. `engine.job`).
    pub name: &'static str,
    /// Process-wide sequential id of the recording thread.
    pub thread: u64,
    /// Run label captured when the span opened
    /// ([`crate::current_run_id`]; 0 = outside any run scope).
    pub run: u64,
    /// Monotonic nanoseconds since the recorder's creation.
    pub start_nanos: u64,
    /// Span wall time in nanoseconds.
    pub duration_nanos: u64,
    /// Structured fields, in `record` order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Looks a field up by key (first match).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A field's string value, if present and textual.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// A field's unsigned value, if present and numeric.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }
}

/// Wall-clock aggregate of one span name (a "phase").
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name.
    pub name: &'static str,
    /// Spans closed under this name.
    pub count: u64,
    /// Summed wall time in nanoseconds. Sums *per-span* wall time: nested
    /// and concurrent spans overlap, so totals across phases can exceed
    /// elapsed process time.
    pub total_nanos: u64,
    /// Mean wall time in nanoseconds.
    pub mean_nanos: f64,
    /// Median wall time (bucket upper bound; see
    /// [`Histogram::quantile_upper_bound`]).
    pub p50_nanos: u64,
    /// 90th-percentile wall time (bucket upper bound).
    pub p90_nanos: u64,
    /// 99th-percentile wall time (bucket upper bound).
    pub p99_nanos: u64,
}

/// A consistent copy of everything a [`crate::Recorder`] has collected.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Closed spans, in completion order (capped; see `dropped_spans`).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after the retention cap was hit.
    pub dropped_spans: u64,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named two-way gauges (current levels, e.g. in-flight runs).
    pub gauges: BTreeMap<&'static str, i64>,
    /// Named sample histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Per-span-name wall-time histograms (exact even past the span cap).
    pub span_wall: BTreeMap<&'static str, Histogram>,
    /// Histograms with one label dimension, keyed
    /// `(family, label key, label value)` — e.g. per-route request wall
    /// time in `repro serve`.
    pub labeled_histograms: BTreeMap<(&'static str, &'static str, &'static str), Histogram>,
    /// Wall-clock unix time (nanoseconds) of the recorder's monotonic
    /// epoch; `epoch_unix_nanos + start_nanos` re-anchors any span to an
    /// absolute timestamp (the OTLP exporter relies on this).
    pub epoch_unix_nanos: u64,
}

impl TelemetrySnapshot {
    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's current level (0 when never touched).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All spans with the given name, in completion order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Per-phase wall-clock aggregates, largest total first.
    pub fn phase_breakdown(&self) -> Vec<PhaseStat> {
        let mut phases: Vec<PhaseStat> = self
            .span_wall
            .iter()
            .map(|(&name, h)| PhaseStat {
                name,
                count: h.count(),
                total_nanos: h.sum(),
                mean_nanos: h.mean(),
                p50_nanos: h.quantile_upper_bound(0.50),
                p90_nanos: h.quantile_upper_bound(0.90),
                p99_nanos: h.quantile_upper_bound(0.99),
            })
            .collect();
        phases.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
        phases
    }

    /// The `repro --stats` phase table: one row per span name, largest
    /// wall-clock total first.
    pub fn render_phase_table(&self) -> String {
        let phases = self.phase_breakdown();
        let mut out = String::from("per-phase wall clock (spans overlap across threads):\n");
        out.push_str(&format!(
            "  {:<24} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total", "mean", "p50", "p90", "p99"
        ));
        for p in &phases {
            out.push_str(&format!(
                "  {:<24} {:>8} {:>11.3}s {:>10.3}ms {:>8.3}ms {:>8.3}ms {:>8.3}ms\n",
                p.name,
                p.count,
                p.total_nanos as f64 / 1e9,
                p.mean_nanos / 1e6,
                p.p50_nanos as f64 / 1e6,
                p.p90_nanos as f64 / 1e6,
                p.p99_nanos as f64 / 1e6,
            ));
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "  ({} span records dropped past the cap; totals above remain exact)\n",
                self.dropped_spans
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;

    fn snapshot_with_phases() -> TelemetrySnapshot {
        let r = Arc::new(Recorder::new());
        for _ in 0..3 {
            let mut s = r.span("alpha");
            s.record("workload", "mcf");
            s.record("n", 7u64);
        }
        {
            let _s = r.span("beta");
        }
        r.snapshot()
    }

    #[test]
    fn field_accessors() {
        let snap = snapshot_with_phases();
        let s = &snap.spans_named("alpha")[0];
        assert_eq!(s.field_str("workload"), Some("mcf"));
        assert_eq!(s.field_u64("n"), Some(7));
        assert_eq!(s.field("missing"), None);
        assert_eq!(s.field_u64("workload"), None);
    }

    #[test]
    fn phase_breakdown_sorted_and_complete() {
        let snap = snapshot_with_phases();
        let phases = snap.phase_breakdown();
        assert_eq!(phases.len(), 2);
        let alpha = phases.iter().find(|p| p.name == "alpha").unwrap();
        assert_eq!(alpha.count, 3);
        assert!(phases[0].total_nanos >= phases[1].total_nanos);
    }

    #[test]
    fn phase_table_renders_every_phase() {
        let snap = snapshot_with_phases();
        let table = snap.render_phase_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("phase"));
        assert!(!table.contains("dropped"));
    }

    #[test]
    fn phase_quantiles_are_ordered_and_bound_samples() {
        let snap = snapshot_with_phases();
        for p in snap.phase_breakdown() {
            assert!(p.p50_nanos <= p.p90_nanos, "{}", p.name);
            assert!(p.p90_nanos <= p.p99_nanos, "{}", p.name);
            let h = snap.span_wall.get(p.name).unwrap();
            assert_eq!(p.p99_nanos, h.quantile_upper_bound(0.99));
        }
        let table = snap.render_phase_table();
        for col in ["p50", "p90", "p99"] {
            assert!(table.contains(col), "missing {col} column:\n{table}");
        }
    }
}
