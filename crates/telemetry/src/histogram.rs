//! Power-of-two-bucketed histograms for latency-like `u64` samples.

/// Smallest bucket upper bound: `2^FIRST_SHIFT` (1.024 µs when samples are
/// nanoseconds).
const FIRST_SHIFT: u32 = 10;
/// Largest finite bucket upper bound: `2^LAST_SHIFT` (~68.7 s in ns).
const LAST_SHIFT: u32 = 36;
/// Number of finite buckets.
const BUCKETS: usize = (LAST_SHIFT - FIRST_SHIFT + 1) as usize;

/// A fixed-layout histogram: finite buckets with upper bounds
/// `2^10, 2^11, …, 2^36`, plus an overflow bucket. The layout is identical
/// for every histogram, so dumps from different runs line up when diffed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; `counts[i]` covers
    /// `(2^(10+i-1), 2^(10+i)]` (the first bucket covers `[0, 2^10]`).
    counts: [u64; BUCKETS],
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        match Self::bucket_index(value) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    fn bucket_index(value: u64) -> Option<usize> {
        if value <= (1 << FIRST_SHIFT) {
            return Some(0);
        }
        // Smallest i with value <= 2^(FIRST_SHIFT + i).
        let bits = 64 - (value - 1).leading_zeros(); // ceil(log2(value))
        if bits > LAST_SHIFT {
            None
        } else {
            Some((bits - FIRST_SHIFT) as usize)
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper bound, per-bucket count)` for every finite bucket, in
    /// ascending bound order. The overflow count is available via
    /// [`Histogram::overflow`].
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (1u64 << (FIRST_SHIFT + i as u32), c))
    }

    /// Samples above the largest finite bucket bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), capped at [`Histogram::max`] so it never exceeds the
    /// largest observation (which is also the answer for samples in the
    /// overflow bucket). A coarse tail estimator: within a bucket the true
    /// quantile may be up to 2× smaller.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bound, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.99), 0);
    }

    #[test]
    fn samples_land_in_correct_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1024); // boundary: first bucket is [0, 2^10]
        h.record(1025); // next bucket
        h.record(1 << 36); // last finite bucket
        h.record((1 << 36) + 1); // overflow
        let counts: Vec<(u64, u64)> = h.buckets().filter(|&(_, c)| c > 0).collect();
        assert_eq!(counts[0], (1024, 2));
        assert_eq!(counts[1], (2048, 1));
        assert_eq!(counts[2], (1 << 36, 1));
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), (1 << 36) + 1);
    }

    #[test]
    fn cumulative_counts_cover_all_finite_samples() {
        let mut h = Histogram::new();
        for v in [3, 500, 70_000, 1_000_000, 1_000_000_000] {
            h.record(v);
        }
        let total: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(total + h.overflow(), h.count());
    }

    #[test]
    fn quantile_bounds_are_monotone_and_bracket_samples() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000); // 1µs .. 1ms
        }
        let p50 = h.quantile_upper_bound(0.5);
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p50 <= p99);
        assert!((500_000..=1_048_576).contains(&p50), "{p50}");
        assert!(p99 >= 990_000, "{p99}");
    }

    #[test]
    fn quantiles_never_exceed_the_largest_observation() {
        let mut h = Histogram::new();
        h.record(5_000_000_000);
        assert_eq!(h.quantile_upper_bound(0.5), 5_000_000_000);
        assert_eq!(h.quantile_upper_bound(0.99), 5_000_000_000);
    }

    #[test]
    fn mean_tracks_sum() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(30);
        assert_eq!(h.sum(), 40);
        assert_eq!(h.mean(), 20.0);
    }
}
