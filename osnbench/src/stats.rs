//! Exact percentiles over raw sample vectors.
//!
//! Every latency the benchmark reports is computed here from the full
//! list of measured samples (nearest-rank), never from histogram
//! buckets. A percentile is only *supported* when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank; anything less is
//! a handful of outliers, not a distribution tail.

/// Samples that must lie beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when picking the tail to report.
/// p99.9 is left out on purpose: at the sample counts one run collects
/// it rests on a dozen samples and moves from run to run.
const TAIL_LADDER: [f64; 2] = [99.0, 90.0];

/// A set of measured samples, sorted once on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Take ownership of raw samples. Panics on NaN, which no clock or
    /// counter produces.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` (0 < p ≤ 100).
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile, regardless of how many samples lie
    /// beyond it. `None` only when there are no samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(p) - 1])
    }

    /// Samples strictly beyond percentile `p`'s rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// Percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn supported(&self, p: f64) -> Option<f64> {
        (self.beyond(p) >= MIN_BEYOND)
            .then(|| self.percentile(p))
            .flatten()
    }

    /// The median (nearest rank), `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The highest percentile of [`TAIL_LADDER`] the sample supports, as
    /// `(percentile, value)`; `None` when even p90 has fewer than
    /// [`MIN_BEYOND`] samples beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .find_map(|&p| self.supported(p).map(|v| (p, v)))
    }

    /// JSON fragment for a percentile that honours the support rule:
    /// `{"value":v,"samples":n}` or `{"value":null,"samples":n}`.
    pub fn percentile_json(&self, p: f64) -> String {
        match self.supported(p) {
            Some(v) => format!("{{\"value\":{v},\"samples\":{}}}", self.len()),
            None => format!("{{\"value\":null,\"samples\":{}}}", self.len()),
        }
    }
}

/// Median of a set of values (repeated set-ups, passes), `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_on_raw_samples() {
        let s = ramp(100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.1), Some(1.0));
        // Odd counts: the median is the middle sample, not an average.
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(Samples::new(vec![]).percentile(50.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: rank(p99) = 990, exactly 10 beyond.
        let s = ramp(1000);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.supported(99.0), Some(990.0));
        // 999 samples: rank(p99) = 990, only 9 beyond.
        let s = ramp(999);
        assert_eq!(s.beyond(99.0), 9);
        assert_eq!(s.supported(99.0), None);
        assert_eq!(s.percentile_json(99.0), "{\"value\":null,\"samples\":999}");
        assert_eq!(s.supported(95.0), Some(950.0));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        assert_eq!(ramp(20_000).tail(), Some((99.0, 19_800.0)));
        assert_eq!(ramp(1000).tail(), Some((99.0, 990.0)));
        assert_eq!(ramp(200).tail(), Some((90.0, 180.0)));
        // Too few samples for any percentile: no tail, not the maximum.
        assert_eq!(ramp(99).tail(), None);
        assert_eq!(Samples::new(vec![]).tail(), None);
    }

    #[test]
    fn median_of_repeated_timings() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
