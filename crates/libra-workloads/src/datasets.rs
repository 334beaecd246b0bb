//! Synthetic input datasets.
//!
//! The paper invokes the ten functions with samples from real datasets
//! (CIFAR-100 images for TN/IR, YouTube-8M videos for UL/CP/VP, NCBI genome
//! sequences for DV, igraph graphs for GP/GM/GB — §8.2.2). Those datasets
//! are not available offline, so this module generates seeded synthetic
//! stand-ins with the same *interface*: a pool of `(size, content_seed)`
//! inputs per application, sampled uniformly at invocation time. Sizes are
//! log-uniform within each app's plausible range (real file-size
//! distributions are heavy-tailed); content seeds are opaque and drive the
//! content-dependent behaviour of the unrelated five.

use crate::apps::AppKind;
use libra_sim::demand::InputMeta;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A pool of pre-generated inputs for one application (the stand-in for
/// "randomly sample 100 pictures/videos/graphs").
#[derive(Clone, Debug)]
pub struct InputPool {
    /// Which application these inputs feed.
    pub kind: AppKind,
    /// The inputs.
    pub inputs: Vec<InputMeta>,
}

impl InputPool {
    /// Generate `n` inputs for `kind`, deterministically from `seed`.
    pub fn generate(kind: AppKind, n: usize, seed: u64) -> Self {
        Self::generate_biased(kind, n, seed, 1.0)
    }

    /// Like [`InputPool::generate`] but with a size bias: `bias > 1` skews
    /// the log-uniform draw towards large inputs (`u ↦ u^(1/bias)` on the
    /// log-interpolation position). The multi-node scheduling experiments
    /// use a heavy mix to stress queueing at high RPM.
    pub fn generate_biased(kind: AppKind, n: usize, seed: u64, bias: f64) -> Self {
        assert!(bias > 0.0, "bias must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind.id().0 as u64) << 32);
        let (lo, hi) = kind.size_range();
        debug_assert!(lo >= 1 && hi >= lo);
        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
        let inputs = (0..n)
            .map(|_| {
                let size = if (bias - 1.0).abs() < 1e-12 {
                    // Log-uniform in `[lo, hi]`.
                    (rng.gen_range(llo..=lhi).exp().round() as u64).clamp(lo, hi)
                } else {
                    let u: f64 = rng.gen_range(0.0..1.0f64);
                    let pos = u.powf(1.0 / bias);
                    ((llo + pos * (lhi - llo)).exp().round() as u64).clamp(lo, hi)
                };
                let content = rng.gen::<u64>();
                InputMeta::new(size, content)
            })
            .collect();
        InputPool { kind, inputs }
    }

    /// Sample one input uniformly.
    pub fn sample(&self, rng: &mut impl Rng) -> InputMeta {
        self.inputs[rng.gen_range(0..self.inputs.len())]
    }

    /// Number of inputs in the pool.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True when empty (never after `generate` with n > 0).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Generate the standard per-app pools (100 inputs each, like the paper's
/// 100-sample draws) for a full suite of kinds.
pub fn standard_pools(kinds: &[AppKind], seed: u64) -> Vec<InputPool> {
    kinds.iter().map(|&k| InputPool::generate(k, 100, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ALL_APPS;

    #[test]
    fn pools_are_deterministic() {
        let a = InputPool::generate(AppKind::Tn, 50, 9);
        let b = InputPool::generate(AppKind::Tn, 50, 9);
        assert_eq!(a.inputs, b.inputs);
        let c = InputPool::generate(AppKind::Tn, 50, 10);
        assert_ne!(a.inputs, c.inputs);
    }

    #[test]
    fn sizes_respect_app_ranges() {
        for kind in ALL_APPS {
            let p = InputPool::generate(kind, 200, 1);
            let (lo, hi) = kind.size_range();
            assert!(p.inputs.iter().all(|i| i.size >= lo && i.size <= hi), "{}", kind.name());
        }
    }

    #[test]
    fn sizes_are_spread_not_constant() {
        let p = InputPool::generate(AppKind::Dh, 100, 3);
        let min = p.inputs.iter().map(|i| i.size).min().unwrap();
        let max = p.inputs.iter().map(|i| i.size).max().unwrap();
        assert!(max > min * 4, "log-uniform draw should spread: {min}..{max}");
    }

    #[test]
    fn standard_pools_cover_all_kinds() {
        let pools = standard_pools(&ALL_APPS, 0);
        assert_eq!(pools.len(), 10);
        assert!(pools.iter().all(|p| p.len() == 100 && !p.is_empty()));
    }

    #[test]
    fn bias_skews_towards_large_sizes() {
        let plain = InputPool::generate_biased(AppKind::Dh, 400, 5, 1.0);
        let heavy = InputPool::generate_biased(AppKind::Dh, 400, 5, 2.5);
        let mean =
            |p: &InputPool| p.inputs.iter().map(|i| i.size).sum::<u64>() / p.inputs.len() as u64;
        assert!(
            mean(&heavy) as f64 > mean(&plain) as f64 * 1.5,
            "bias 2.5 should raise mean size: {} vs {}",
            mean(&heavy),
            mean(&plain)
        );
        let (lo, hi) = AppKind::Dh.size_range();
        assert!(heavy.inputs.iter().all(|i| i.size >= lo && i.size <= hi));
    }

    #[test]
    #[should_panic(expected = "bias must be positive")]
    fn zero_bias_panics() {
        let _ = InputPool::generate_biased(AppKind::Dh, 1, 0, 0.0);
    }

    #[test]
    fn sampling_draws_from_pool() {
        let p = InputPool::generate(AppKind::Vp, 10, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let s = p.sample(&mut rng);
            assert!(p.inputs.contains(&s));
        }
    }
}
