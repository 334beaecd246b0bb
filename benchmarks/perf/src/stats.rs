//! Medians and percentiles over timing samples.

/// A percentile is only reported when at least this many samples lie beyond
/// it: with fewer, the figure is set by a handful of outliers and does not
/// repeat from run to run.
const MIN_BEYOND: usize = 10;

/// Tail percentiles the harness knows, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Timing samples sorted once, for several percentile reads.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile (nearest rank), refused when fewer than ten
    /// samples lie beyond it — p95 needs 200 samples, p99 needs 1,000.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let n = self.0.len();
        if n == 0 {
            return Err(format!("p{p} of no samples"));
        }
        // The epsilon keeps 99.9 % of 10,000 at rank 9,990 despite rounding.
        let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
        if p > 50.0 && n - rank < MIN_BEYOND {
            return Err(format!("p{p} refused: {n} samples leave fewer than 10 beyond it"));
        }
        Ok(self.0[rank - 1])
    }

    /// The highest tail percentile this sample count supports, with its
    /// value; `None` below 100 samples.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        TAILS.iter().find_map(|&p| self.percentile(p).ok().map(|v| (p, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sorted {
        Sorted::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank_on_sorted_samples() {
        let s = ramp(1000);
        assert_eq!(s.percentile(50.0), Ok(500.0));
        assert_eq!(s.percentile(95.0), Ok(950.0));
        assert_eq!(s.percentile(99.0), Ok(990.0));
    }

    #[test]
    fn p99_is_refused_under_a_thousand_samples() {
        assert!(ramp(999).percentile(99.0).is_err());
        assert!(ramp(1000).percentile(99.0).is_ok());
        assert!(ramp(199).percentile(95.0).is_err());
        assert!(ramp(200).percentile(95.0).is_ok());
        // The median is always defined.
        assert_eq!(ramp(3).percentile(50.0), Ok(2.0));
        assert!(Sorted::new(Vec::new()).percentile(50.0).is_err());
    }

    #[test]
    fn highest_tail_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(ramp(99).highest_tail(), None);
        assert_eq!(ramp(100).highest_tail().map(|t| t.0), Some(90.0));
        assert_eq!(ramp(660).highest_tail().map(|t| t.0), Some(95.0));
        assert_eq!(ramp(1_000).highest_tail().map(|t| t.0), Some(99.0));
        assert_eq!(ramp(10_000).highest_tail(), Some((99.9, 9_990.0)));
    }
}
