//! Tabular datasets and train/test splitting.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A dense tabular dataset: row-major features plus one target column.
/// Classification targets are stored as `f64`-encoded class indices; the
/// models round-trip them losslessly for the small class counts Libra uses
/// (CPU cores 1–8, memory in 128 MB steps).
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Feature rows.
    pub x: Vec<Vec<f64>>,
    /// Targets, one per row.
    pub y: Vec<f64>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Build from parallel slices.
    pub fn from_rows(x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        Dataset { x, y }
    }

    /// Append one labelled row.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        self.x.push(features);
        self.y.push(target);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Deterministically shuffle and split into (train, test) with
    /// `train_frac` of rows in train — the paper's 7:3 split (§8.2.3) is
    /// `train_frac = 0.7`.
    pub fn train_test_split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let (train, test) = Self::split_indices(self.len(), train_frac, seed);
        let rows = |ids: &[usize]| Dataset {
            x: ids.iter().map(|&i| self.x[i].clone()).collect(),
            y: ids.iter().map(|&i| self.y[i]).collect(),
        };
        (rows(&train), rows(&test))
    }

    /// The row numbers [`train_test_split`](Self::train_test_split) puts in
    /// (train, test) for `n` rows — for a caller that keeps several target
    /// columns over one feature matrix and splits them alike.
    pub fn split_indices(n: usize, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac out of range");
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_train = (n as f64 * train_frac).round() as usize;
        let test = idx.split_off(n_train.min(n));
        (idx, test)
    }

    /// Targets as class indices (for classifiers).
    pub fn labels(&self) -> Vec<usize> {
        self.y.iter().map(|&v| v.round().max(0.0) as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            d.push(vec![i as f64, (i * i) as f64], (i % 3) as f64);
        }
        d
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy(100);
        let (tr, te) = d.train_test_split(0.7, 42);
        assert_eq!(tr.len(), 70);
        assert_eq!(te.len(), 30);
        assert!(tr.x.iter().all(|row| row.len() == 2));
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(50);
        let (a1, _) = d.train_test_split(0.5, 7);
        let (a2, _) = d.train_test_split(0.5, 7);
        assert_eq!(a1.x, a2.x);
        let (b1, _) = d.train_test_split(0.5, 8);
        assert_ne!(a1.x, b1.x, "different seeds should shuffle differently");
    }

    #[test]
    fn labels_and_classes() {
        let d = toy(9);
        assert_eq!(d.labels()[..3], [0, 1, 2]);
        assert_eq!(d.labels().into_iter().max(), Some(2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_rows_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0]], vec![]);
    }

    #[test]
    fn empty_dataset_basics() {
        let d = Dataset::new();
        assert!(d.is_empty());
        assert!(d.x.is_empty());
        assert!(d.labels().is_empty());
    }
}
