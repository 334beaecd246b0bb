//! Random forests: bagged CART trees with feature subsampling.
//!
//! The profiler's model of choice (§4.3.1, §8.6 — "After examining different
//! models, we opt for Random Forest"). Two classifiers (CPU peak, memory
//! peak) and one regressor (execution time) per function.
//!
//! Forests fitted together share their bootstraps. Tree `k` of a forest
//! draws its rows from the `k`-th seed of `ForestParams::seed`, so the
//! profiler's three forests, fitted with one `ForestParams`, draw the same
//! rows for tree `k` and would sort the same `(value, row)` runs.
//! `fit_many` does that once per tree index: it draws the rows, sorts the
//! sample per feature (`tree::sort_sample`), and grows one tree per target
//! from its own copy of that layout and of the RNG as the draws left it —
//! the tree `fit` would grow for that target alone, bit for bit. `fit` is
//! `fit_many` with one target.
//!
//! Tree training is embarrassingly parallel; on more than one core
//! `fit_many` fans the tree indices of a larger forest out over crossbeam
//! scoped threads (data-race-free by construction: each thread reads shared
//! `&[Vec<f64>]` slices and writes its own slot). On one core, where the
//! fan-out would be a single worker, it grows them inline. Either way a tree
//! sees its bootstrap sample as a list of row numbers, not as a copy of the
//! rows.

use crate::tree::{sort_sample, DecisionTree, Task, TreeParams};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::thread::available_parallelism;

/// Forest hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Seed for all randomness (bootstraps + feature subsampling).
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 32, seed: 0x11b7a }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: Task,
}

impl RandomForest {
    /// Fit a forest of default-limit trees, each split weighing a per-task
    /// feature subsample: √d for classification, max(1, d/3) for regression.
    pub fn fit(x: &[Vec<f64>], y: &[f64], task: Task, params: ForestParams) -> Self {
        let [forest] = Self::fit_many(x, &[(y, task)], params);
        forest
    }

    /// Fit one forest per `(y, task)` target on the same rows `x` and
    /// `params`, in order: each the forest `fit` would give for that target,
    /// each tree's bootstrap drawn and sorted once for all of them.
    pub fn fit_many<const N: usize>(
        x: &[Vec<f64>],
        targets: &[(&[f64], Task); N],
        params: ForestParams,
    ) -> [Self; N] {
        assert!(!x.is_empty(), "cannot fit a forest on an empty dataset");
        let d = x[0].len();
        let tree_params = targets.map(|(y, task)| {
            assert_eq!(x.len(), y.len(), "feature/target length mismatch");
            let feature_subsample = Some(match task {
                Task::Classification { .. } => (d as f64).sqrt().ceil() as usize,
                Task::Regression => (d / 3).max(1),
            });
            TreeParams { feature_subsample, ..TreeParams::default() }
        });
        let n = x.len();

        // Deterministic per-tree seeds derived up front so the parallel
        // schedule cannot affect the result.
        let mut seeder = ChaCha8Rng::seed_from_u64(params.seed);
        let seeds: Vec<u64> = (0..params.n_trees).map(|_| seeder.next_u64()).collect();

        // Tree `k` of every target: one draw (a classic bootstrap, `n` rows
        // with replacement), one sort, then each target's tree from a copy of
        // the layout and of the RNG after the draws.
        let fit_one = |seed: u64| -> Vec<DecisionTree> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let sorted = sort_sample(x, &rows);
            targets
                .iter()
                .zip(&tree_params)
                .map(|(&(y, task), &tp)| {
                    DecisionTree::fit_sorted(y, &rows, sorted.clone(), task, tp, &mut rng.clone())
                })
                .collect()
        };

        // Parallel fan-out for larger forests; sequential below the
        // threshold where thread spawn overhead dominates, and on one core.
        let large = params.n_trees >= 16 && n >= 64;
        let threads = if large { available_parallelism().map_or(4, |p| p.get()) } else { 1 };
        let per_index: Vec<Vec<DecisionTree>> = if threads > 1 {
            let chunk = params.n_trees.div_ceil(threads);
            let mut out: Vec<Option<Vec<DecisionTree>>> = vec![None; params.n_trees];
            let scope_ok = crossbeam::scope(|s| {
                for (slot_chunk, seed_chunk) in out.chunks_mut(chunk).zip(seeds.chunks(chunk)) {
                    s.spawn(move |_| {
                        for (slot, &seed) in slot_chunk.iter_mut().zip(seed_chunk) {
                            *slot = Some(fit_one(seed));
                        }
                    });
                }
            })
            .is_ok();
            debug_assert!(scope_ok, "forest training thread panicked");
            // A panicked worker leaves holes; refit those trees here rather
            // than aborting the whole control plane mid-run.
            out.into_iter()
                .zip(&seeds)
                .map(|(t, &seed)| t.unwrap_or_else(|| fit_one(seed)))
                .collect()
        } else {
            seeds.iter().map(|&s| fit_one(s)).collect()
        };

        let mut forests = targets
            .map(|(_, task)| RandomForest { trees: Vec::with_capacity(params.n_trees), task });
        for trees in per_index {
            for (forest, tree) in forests.iter_mut().zip(trees) {
                forest.trees.push(tree);
            }
        }
        forests
    }

    /// Predict one row: majority vote (classification) or mean (regression).
    pub fn predict(&self, row: &[f64]) -> f64 {
        match self.task {
            Task::Regression => {
                self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
            }
            Task::Classification { n_classes } => {
                let mut votes = vec![0usize; n_classes];
                for t in &self.trees {
                    let c = (t.predict(row) as usize).min(n_classes - 1);
                    votes[c] += 1;
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    /// Predict class index (classification convenience).
    pub fn predict_class(&self, row: &[f64]) -> usize {
        self.predict(row) as usize
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when the forest has no trees (never the case after `fit`).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2_score};

    fn step_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 4) / n) as f64).collect(); // 4 classes
        (x, y)
    }

    #[test]
    fn classifies_step_function() {
        let (x, y) = step_data(200);
        let f = RandomForest::fit(
            &x,
            &y,
            Task::Classification { n_classes: 4 },
            ForestParams::default(),
        );
        let preds: Vec<usize> = x.iter().map(|r| f.predict_class(r)).collect();
        let truth: Vec<usize> = y.iter().map(|&v| v as usize).collect();
        assert!(accuracy(&preds, &truth) > 0.95);
    }

    #[test]
    fn regression_on_nonlinear_curve() {
        let x: Vec<Vec<f64>> = (1..300).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (1..300).map(|i| (i as f64) * (i as f64).ln()).collect();
        let f = RandomForest::fit(&x, &y, Task::Regression, ForestParams::default());
        let preds: Vec<f64> = x.iter().map(|r| f.predict(r)).collect();
        let r2 = r2_score(&preds, &y);
        assert!(r2 > 0.97, "forest should fit n·ln n, r2={r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = step_data(100);
        let p = ForestParams { seed: 99, ..Default::default() };
        let f1 = RandomForest::fit(&x, &y, Task::Classification { n_classes: 4 }, p);
        let f2 = RandomForest::fit(&x, &y, Task::Classification { n_classes: 4 }, p);
        for i in 0..100 {
            let row = [i as f64, (i % 7) as f64];
            assert_eq!(f1.predict(&row), f2.predict(&row));
        }
    }

    #[test]
    fn small_forest_trains_sequentially() {
        let (x, y) = step_data(30);
        let p = ForestParams { n_trees: 4, ..Default::default() };
        let f = RandomForest::fit(&x, &y, Task::Classification { n_classes: 4 }, p);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn parallel_path_matches_param_count() {
        let (x, y) = step_data(128);
        let p = ForestParams { n_trees: 32, ..Default::default() };
        let f = RandomForest::fit(&x, &y, Task::Regression, p);
        assert_eq!(f.len(), 32);
    }

    /// `fit` against a forest built the way it was before trees took row
    /// lists: every tree's bootstrap rows cloned, the tree grown by the split
    /// search the sweep replaced (`DecisionTree::fit_oracle`) from a fresh
    /// sort at every node. Same trees, so bit-equal predictions, on both
    /// sides of the 64-row fan-out threshold.
    #[test]
    fn fit_matches_oracle_trees_on_cloned_bootstrap_rows() {
        for n in [40usize, 150] {
            let (x, y_class) = step_data(n);
            let y_reg: Vec<f64> = (0..n).map(|i| 1e6 + ((i * 7) % 13) as f64 * 0.25).collect();
            // Four of seventeen declared classes in use, as for the profiler's CPU target.
            let y_sparse: Vec<f64> = y_class.iter().map(|c| c * 5.0 + 1.0).collect();
            for (task, y, subsample) in [
                (Task::Classification { n_classes: 4 }, &y_class, 2),
                (Task::Classification { n_classes: 17 }, &y_sparse, 2),
                (Task::Regression, &y_reg, 1),
            ] {
                let params = ForestParams { n_trees: 16, seed: 7 };
                let fitted = RandomForest::fit(&x, y, task, params);

                let tree_params =
                    TreeParams { feature_subsample: Some(subsample), ..TreeParams::default() };
                let mut seeder = ChaCha8Rng::seed_from_u64(params.seed);
                let trees: Vec<DecisionTree> = (0..params.n_trees)
                    .map(|_| {
                        let mut rng = ChaCha8Rng::seed_from_u64(seeder.next_u64());
                        let drawn: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                        let bx: Vec<Vec<f64>> = drawn.iter().map(|&i| x[i].clone()).collect();
                        let by: Vec<f64> = drawn.iter().map(|&i| y[i]).collect();
                        DecisionTree::fit_oracle(&bx, &by, task, tree_params, &mut rng)
                    })
                    .collect();
                let reference = RandomForest { trees, task };

                assert_eq!(format!("{:?}", fitted.trees), format!("{:?}", reference.trees));
                for row in &x {
                    assert_eq!(fitted.predict(row).to_bits(), reference.predict(row).to_bits());
                }
            }
        }
    }

    /// `fit_many` against one oracle forest per target, as the profiler fits
    /// them: rows `[s, ln s]`, a CPU-like and a memory-like classifier and a
    /// regressor under one `ForestParams` and each task's default feature
    /// subsample. Every tree of every target is its own oracle tree — grown
    /// from a clone of the bootstrap rows and of the RNG after the draws — on
    /// both sides of the 64-row fan-out threshold.
    #[test]
    fn fit_many_matches_per_target_oracle_forests() {
        for n in [40usize, 150] {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|k| {
                    let s = (10.0 + 990.0 * k as f64 / (n - 1) as f64).round();
                    vec![s, s.ln()]
                })
                .collect();
            let cpu: Vec<f64> = (0..n).map(|k| (1 + k * 6 / n + k % 2) as f64).collect();
            let mem: Vec<f64> = (0..n).map(|k| (1 + k * 30 / n + (k * 7) % 3) as f64).collect();
            let dur: Vec<f64> = x.iter().map(|r| 0.05 + r[0] * r[1] * 1e-4).collect();
            let targets = [
                (cpu.as_slice(), Task::Classification { n_classes: 17 }),
                (mem.as_slice(), Task::Classification { n_classes: 40 }),
                (dur.as_slice(), Task::Regression),
            ];
            let params = ForestParams { n_trees: 24, seed: 11 };
            let fitted = RandomForest::fit_many(&x, &targets, params);

            for (forest, (y, task)) in fitted.iter().zip(targets) {
                let subsample = match task {
                    Task::Classification { .. } => 2,
                    Task::Regression => 1,
                };
                let tree_params =
                    TreeParams { feature_subsample: Some(subsample), ..TreeParams::default() };
                let mut seeder = ChaCha8Rng::seed_from_u64(params.seed);
                let trees: Vec<DecisionTree> = (0..params.n_trees)
                    .map(|_| {
                        let mut rng = ChaCha8Rng::seed_from_u64(seeder.next_u64());
                        let drawn: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                        let bx: Vec<Vec<f64>> = drawn.iter().map(|&i| x[i].clone()).collect();
                        let by: Vec<f64> = drawn.iter().map(|&i| y[i]).collect();
                        DecisionTree::fit_oracle(&bx, &by, task, tree_params, &mut rng)
                    })
                    .collect();
                let reference = RandomForest { trees, task };

                assert_eq!(format!("{:?}", forest.trees), format!("{:?}", reference.trees));
                for row in &x {
                    assert_eq!(forest.predict(row).to_bits(), reference.predict(row).to_bits());
                }
            }
        }
    }
}
