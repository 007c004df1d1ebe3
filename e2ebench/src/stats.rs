//! Sample summaries under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, each with its
//! sample count. Percentiles are nearest-rank over the sorted samples:
//! the `p`-th percentile of `n` samples is the sample at 0-based index
//! `ceil(p/100 · n) − 1`, and the samples *beyond* it are the
//! `n − 1 − index` larger ones.

/// Samples a reported percentile must leave above itself.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail of a summary is chosen from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// 0-based nearest-rank index of percentile `p` among `n` samples.
fn rank_index(p: f64, n: usize) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up a rank through binary representation error.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(p, n)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(p: f64, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// The highest candidate percentile `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| supports(p, n))
}

/// Nearest-rank percentile of already-sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_index(p, sorted.len())]
}

/// A sorted copy of a sample set, queried by percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (all must be finite).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile, or 0 for an empty set (a layer the
    /// workload never calls).
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile_sorted(&self.sorted, p)
        }
    }

    /// Sum of every sample.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// One human-readable line: median, the requested tail percentile
    /// and the highest percentile the sample count supports.
    pub fn describe(&self, name: &str, tail: f64, unit: &str) -> String {
        let n = self.len();
        let supported = highest_supported(n).map_or("none".to_string(), |p| format!("p{p}"));
        format!(
            "{name}: p50 {:.3} {unit}, p{tail} {:.3} {unit} (n = {n}, {} beyond p{tail}; highest supported {supported})",
            self.pct(50.0),
            self.pct(tail),
            beyond(tail, n),
        )
    }
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio over work that did not
/// happen on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(99.0, 1000), 10);
        assert!(supports(99.0, 1000));
        assert_eq!(beyond(99.0, 999), 9);
        assert!(!supports(99.0, 999));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
    }

    #[test]
    fn highest_supported_walks_down_the_candidates() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(95.0), 95.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(beyond(95.0, 100), 5);
        assert_eq!(s.sum(), 5050.0);
        let one = Samples::new(vec![7.0]);
        assert_eq!(one.pct(99.0), 7.0);
        assert_eq!(beyond(99.0, 1), 0);
        assert_eq!(Samples::default().pct(50.0), 0.0);
    }

    #[test]
    fn describe_states_the_sample_count() {
        let s = Samples::new((0..1000).map(f64::from).collect());
        let line = s.describe("x", 99.0, "us");
        assert!(line.contains("n = 1000"), "{line}");
        assert!(line.contains("10 beyond p99"), "{line}");
        assert!(line.contains("highest supported p99"), "{line}");
    }

    #[test]
    fn ratio_and_mean_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
