//! Statistics over raw samples: medians, exact order-statistic
//! percentiles, and the set-to-set spread the repeatability check uses.
//!
//! Percentiles are never read off histogram buckets. A percentile is the
//! nearest-rank order statistic of the sorted samples, and it is refused
//! unless at least [`MIN_BEYOND`] samples lie strictly above it, so a tail
//! number always rests on a tail of real samples.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count).
/// Used for the central value of repeated runs, not for latency tails.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One reported percentile with the counts that back it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The order statistic itself.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Percentile {
    /// `p50 = 41.2 (n=236, 118 beyond)`-style annotation.
    pub fn describe(&self, label: &str) -> String {
        format!(
            "{label} = {:.3} (n={}, {} beyond)",
            self.value, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `q`-quantile of `samples` (rank `ceil(q * n)`), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    (beyond >= MIN_BEYOND).then_some(Percentile {
        value,
        samples: sorted.len(),
        beyond,
    })
}

/// How far apart repeated measurements of one metric are: `(max - min)`
/// as a share of the smallest value. Two sets agree when this stays
/// within the metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo > 0.0 {
        (hi - lo) / lo
    } else if hi == lo {
        0.0
    } else {
        f64::INFINITY
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
