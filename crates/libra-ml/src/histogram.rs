//! Streaming histograms with percentile queries.
//!
//! Libra builds three histogram models per input size-unrelated function
//! (CPU peak, memory peak, execution time) and estimates future invocations
//! conservatively from percentiles: the 99th percentile for resource peaks
//! (don't under-allocate) and the 5th percentile for execution time (don't
//! over-promise availability) — §4.3.2, following the Azure convention \[36\].
//!
//! The implementation is a fixed-bin-count histogram whose range doubles
//! geometrically when a sample falls outside it, so it ingests unbounded
//! streams in O(1) amortized time and O(bins) memory — suitable for the
//! per-function online updates that happen after every completion.

/// A streaming histogram over non-negative samples.
#[derive(Clone, Debug)]
pub struct StreamingHistogram {
    bins: Vec<u64>,
    /// Upper bound of the covered range; bin width = hi / bins.len().
    hi: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl StreamingHistogram {
    /// Create a histogram with `nbins` bins covering `[0, initial_hi)`.
    pub fn new(nbins: usize, initial_hi: f64) -> Self {
        assert!(nbins >= 2, "need at least two bins");
        assert!(initial_hi > 0.0, "initial range must be positive");
        StreamingHistogram {
            bins: vec![0; nbins],
            hi: initial_hi,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples ingested.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample seen (NaN-free input assumed).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Ingest one sample. Negative samples are clamped to zero.
    pub fn insert(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { return };
        while v >= self.hi {
            self.double_range();
        }
        let w = self.hi / self.bins.len() as f64;
        let i = ((v / w) as usize).min(self.bins.len() - 1);
        self.bins[i] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The q-th percentile (q in [0, 100]), linearly interpolated within the
    /// containing bin. Returns `None` before any sample arrives.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let target = q / 100.0 * self.count as f64;
        let w = self.hi / self.bins.len() as f64;
        let mut cum = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 { 0.0 } else { ((target - cum) / c as f64).clamp(0.0, 1.0) };
                let est = (i as f64 + frac) * w;
                return Some(est.clamp(self.min, self.max));
            }
            cum = next;
        }
        Some(self.max)
    }

    /// Merge bins pairwise and double the range.
    fn double_range(&mut self) {
        let n = self.bins.len();
        let mut merged = vec![0u64; n];
        for (m, pair) in merged.iter_mut().zip(self.bins.chunks(2)) {
            *m = pair.iter().sum();
        }
        self.bins = merged;
        self.hi *= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        let h = StreamingHistogram::new(64, 1.0);
        assert!(h.percentile(50.0).is_none());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let mut h = StreamingHistogram::new(64, 1.0);
        h.insert(0.42);
        for q in [0.0, 5.0, 50.0, 99.0, 100.0] {
            let p = h.percentile(q).unwrap();
            assert!((p - 0.42).abs() < 1e-9, "q={q} p={p}");
        }
    }

    #[test]
    fn uniform_stream_percentiles_are_close() {
        let mut h = StreamingHistogram::new(128, 1.0);
        for i in 0..10_000 {
            h.insert(i as f64 / 10_000.0 * 100.0);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        let p5 = h.percentile(5.0).unwrap();
        assert!((p50 - 50.0).abs() < 2.0, "p50={p50}");
        assert!((p99 - 99.0).abs() < 2.0, "p99={p99}");
        assert!((p5 - 5.0).abs() < 2.0, "p5={p5}");
    }

    #[test]
    fn range_grows_to_cover_large_samples() {
        let mut h = StreamingHistogram::new(16, 1.0);
        h.insert(0.5);
        h.insert(1_000_000.0);
        assert_eq!(h.count(), 2);
        assert!(h.max() >= 1_000_000.0);
        let p100 = h.percentile(100.0).unwrap();
        assert!(p100 <= 1_000_000.0 + 1e-6);
        assert!(p100 > 0.5);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut h = StreamingHistogram::new(64, 10.0);
        for i in 0..1000 {
            h.insert(((i * 7919) % 100) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for q in (0..=100).step_by(5) {
            let p = h.percentile(q as f64).unwrap();
            assert!(p >= last - 1e-9, "q={q}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn negative_and_nonfinite_inputs_are_safe() {
        let mut h = StreamingHistogram::new(64, 1.0);
        h.insert(-5.0); // clamped to 0
        h.insert(f64::NAN); // ignored
        h.insert(f64::INFINITY); // ignored
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(50.0), Some(0.0));
    }
}
