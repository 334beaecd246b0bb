//! Train/test splitting.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The row numbers of a deterministic shuffle of `n` rows split into
/// (train, test), with `train_frac` of them in train — the paper's 7:3 split
/// (§8.2.3) is `train_frac = 0.7`. A caller that keeps several target columns
/// over one feature matrix splits them all alike with one call.
pub fn split_indices(n: usize, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!((0.0..=1.0).contains(&train_frac), "train_frac out of range");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_train = (n as f64 * train_frac).round() as usize;
    let test = idx.split_off(n_train.min(n));
    (idx, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_rows() {
        let (tr, te) = split_indices(100, 0.7, 42);
        assert_eq!(tr.len(), 70);
        assert_eq!(te.len(), 30);
        let mut all: Vec<usize> = tr.into_iter().chain(te).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let (a1, _) = split_indices(50, 0.5, 7);
        let (a2, _) = split_indices(50, 0.5, 7);
        assert_eq!(a1, a2);
        let (b1, _) = split_indices(50, 0.5, 8);
        assert_ne!(a1, b1, "different seeds should shuffle differently");
    }
}
