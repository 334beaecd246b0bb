//! Random forests: bagged CART trees with feature subsampling.
//!
//! The profiler's model of choice (§4.3.1, §8.6 — "After examining different
//! models, we opt for Random Forest"). Two classifiers (CPU peak, memory
//! peak) and one regressor (execution time) per function.
//!
//! Forests fitted together share their bootstraps. Tree `k` of a forest
//! draws its rows from the `k`-th seed of `ForestParams::seed`, so the
//! profiler's three forests, fitted with one `ForestParams`, draw the same
//! rows for tree `k` and would lay out the same `(value, row)` runs.
//! `fit_many` does that once per tree index: it draws the rows, lays the
//! sample out (`tree::Layout`) and grows one tree per target from its own
//! copy of that layout and of the RNG as the draws left it — the tree `fit`
//! would grow for that target alone, bit for bit. `fit` is `fit_many` with
//! one target. Once per `fit_many`, on all of `x`, each feature finds its
//! leader and each leader is ranked (`tree::Ranks`), one sort a leader: an
//! order twin such as the profiler's `ln s` reads the layout of `s` rather
//! than sorting and sweeping its own, and every tree index lays its sample
//! out by a counting sort on those ranks rather than by sorting it.
//!
//! A fit runs on the calling thread, one tree index after another, and grows
//! all its trees in one `tree::Scratch` from one `tree::Layout`. A tree sees
//! its bootstrap sample as a list of row numbers, not as a copy of the rows.
//! No feature may be NaN: a NaN has no place in a sorted column.

use crate::tree::{DecisionTree, Layout, Ranks, Scratch, Task, TreeParams};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
    /// Panics where [`RandomForest::fit_many`] does.
    pub fn fit(x: &[Vec<f64>], y: &[f64], task: Task, params: ForestParams) -> Self {
        let [forest] = Self::fit_many(x, &[(y, task)], params);
        forest
    }

    /// Fit one forest per `(y, task)` target on the same rows `x` and
    /// `params`, in order: each the forest `fit` would give for that target,
    /// each tree's bootstrap drawn and laid out once for all of them.
    ///
    /// # Panics
    /// On an empty `x`, a target whose length is not `x`'s, or a NaN
    /// feature: a NaN has no place in a sorted column, so no tree can be
    /// defined on it.
    pub fn fit_many<const N: usize>(
        x: &[Vec<f64>],
        targets: &[(&[f64], Task); N],
        params: ForestParams,
    ) -> [Self; N] {
        Self::fit_many_while(x, targets, params, |_| true)
    }

    /// [`RandomForest::fit_many`], asking `more` after each tree index
    /// whether to grow the next: the forests stop, all at one length, at the
    /// first index `more` answers `false` to. Each holds the first trees of
    /// the forest `fit_many` would give, bit for bit. Panics where
    /// `fit_many` does.
    pub fn fit_many_while<const N: usize>(
        x: &[Vec<f64>],
        targets: &[(&[f64], Task); N],
        params: ForestParams,
        mut more: impl FnMut(&[Self; N]) -> bool,
    ) -> [Self; N] {
        assert!(!x.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(x.iter().flatten().all(|v| !v.is_nan()), "cannot fit a forest on a NaN feature");
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

        // Tree `k` of every target: the `k`-th seed, one draw (a classic
        // bootstrap, `n` rows with replacement), one layout, then each
        // target's tree from a copy of the layout and of the RNG after the
        // draws.
        let mut seeder = ChaCha8Rng::seed_from_u64(params.seed);
        let ranks = Ranks::new(x);
        let mut layout = Layout::of(x, &ranks);
        let mut scratch = Scratch::default();
        let mut forests = targets
            .map(|(_, task)| RandomForest { trees: Vec::with_capacity(params.n_trees), task });
        for _ in 0..params.n_trees {
            let mut rng = ChaCha8Rng::seed_from_u64(seeder.next_u64());
            layout.lay_out((0..n).map(|_| rng.gen_range(0..n)));
            for ((forest, &(y, task)), &tp) in forests.iter_mut().zip(targets).zip(&tree_params) {
                let tree =
                    DecisionTree::fit_sorted(&layout, y, task, tp, &mut rng.clone(), &mut scratch);
                forest.trees.push(tree);
            }
            if !more(&forests) {
                break;
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
                // The trees' classes, on the stack for a forest of up to 64.
                let (mut stack, mut heap) = ([0; 64], Vec::new());
                let votes = match stack.get_mut(..self.trees.len()) {
                    Some(votes) => votes,
                    None => {
                        heap.resize(self.trees.len(), 0);
                        &mut heap[..]
                    }
                };
                for (vote, t) in votes.iter_mut().zip(&self.trees) {
                    *vote = vote_of(t, row, n_classes);
                }
                plurality(votes, n_classes) as f64
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

/// The class tree `t` votes for at `row`, of `n_classes`.
fn vote_of(t: &DecisionTree, row: &[f64], n_classes: usize) -> usize {
    (t.predict(row) as usize).min(n_classes - 1)
}

/// The class most `votes` name; of equal counts the largest, as a
/// `max_by_key` over per-class counts keeps the last of its maxima. With no
/// votes, every count ties at zero: the largest of `n_classes`.
fn plurality(votes: &mut [usize], n_classes: usize) -> usize {
    votes.sort_unstable();
    let runs = votes.chunk_by(|a, b| a == b).map(|run| (run.len(), run[0]));
    runs.fold((0, n_classes.saturating_sub(1)), std::cmp::max).1
}

/// A classification forest's votes on held-out rows, tallied tree by tree
/// as it grows, and whether its accuracy there clears a threshold once it
/// is whole: known as soon as no choice of the remaining trees' votes could
/// change it.
///
/// A row's truth `t` is the forest's answer once `(v[t], t)` is above
/// `(v[c], c)` for every other class `c`, compared as pairs: the most votes,
/// of equal votes the largest class, as [`RandomForest::predict`] decides.
/// With `r` trees to come the row is a sure hit when `(v[t], t)` is above
/// `(v[c] + r, c)` for the other class `c` with the highest `(v[c], c)`, its
/// *rival* (every remaining vote for the rival), and a sure miss when the
/// rival is above `(v[t] + r, t)` (every remaining vote for the truth).
/// Accuracy clears `thr` when the hits reach the least count `h` with
/// `h / n >= thr`, the comparison `accuracy` makes: settled once the sure
/// hits reach it, or the rows not yet sure misses cannot. With no tree to
/// come every row is one or the other, so a whole forest always settles.
pub struct HeldOutVotes<'a> {
    x: &'a [Vec<f64>],
    truth: &'a [usize],
    n_classes: usize,
    /// Per row, per class, the votes of the trees tallied; a row's truth
    /// counts in `own` instead.
    votes: Vec<usize>,
    /// Per row, the votes for its truth and `(votes, class)` of its rival.
    own: Vec<usize>,
    rival: Vec<(usize, usize)>,
    /// Hits needed to clear the threshold; `None` when none suffice.
    need: Option<usize>,
    /// Trees tallied, and trees the whole forest will have.
    tallied: usize,
    n_trees: usize,
}

impl<'a> HeldOutVotes<'a> {
    /// No votes yet on the rows `x`, whose true classes are `truth`, of a
    /// forest of `n_trees` trees over `n_classes`, to be held to accuracy
    /// `thr`.
    pub fn new(
        x: &'a [Vec<f64>],
        truth: &'a [usize],
        n_classes: usize,
        n_trees: usize,
        thr: f64,
    ) -> Self {
        assert_eq!(x.len(), truth.len(), "held-out rows/truth length mismatch");
        let n = truth.len();
        let accuracy = |hits: usize| if n == 0 { 0.0 } else { hits as f64 / n as f64 };
        // Before any vote the rival is the largest class but the truth.
        let top =
            |t: usize| if t + 1 == n_classes { n_classes.saturating_sub(2) } else { n_classes - 1 };
        HeldOutVotes {
            x,
            truth,
            n_classes,
            votes: vec![0; n * n_classes],
            own: vec![0; n],
            rival: truth.iter().map(|&t| (0, top(t))).collect(),
            need: (0..=n).find(|&h| accuracy(h) >= thr),
            tallied: 0,
            n_trees,
        }
    }

    /// Tally the trees of `forest`, a forest growing tree by tree, not
    /// tallied yet.
    pub fn tally(&mut self, forest: &RandomForest) {
        for t in forest.trees.get(self.tallied..).unwrap_or_default() {
            let (x, n_classes) = (self.x, self.n_classes);
            self.add(x.iter().map(|row| vote_of(t, row, n_classes)));
        }
    }

    /// One tree's votes, one per row.
    fn add(&mut self, votes: impl Iterator<Item = usize>) {
        let rows = self.votes.chunks_mut(self.n_classes.max(1));
        for ((((c, &t), counts), own), rival) in
            votes.zip(self.truth).zip(rows).zip(&mut self.own).zip(&mut self.rival)
        {
            if c == t {
                *own += 1;
            } else {
                counts[c] += 1;
                *rival = (*rival).max((counts[c], c));
            }
        }
        self.tallied += 1;
    }

    /// Whether accuracy clears the threshold once the forest is whole, if
    /// the trees tallied settle it.
    pub fn settled(&self) -> Option<bool> {
        let Some(need) = self.need else { return Some(false) };
        let r = self.n_trees.saturating_sub(self.tallied);
        let (mut hits, mut open) = (0, 0);
        for ((&own, &t), &(rv, rc)) in self.own.iter().zip(self.truth).zip(&self.rival) {
            if (own, t) > (rv + r, rc) {
                hits += 1;
            } else if (rv, rc) <= (own + r, t) {
                open += 1;
            }
        }
        if hits >= need {
            Some(true)
        } else if hits + open < need {
            Some(false)
        } else {
            None
        }
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
    fn forest_has_the_trees_it_was_asked_for() {
        for (rows, n_trees, task) in
            [(30, 4, Task::Classification { n_classes: 4 }), (128, 32, Task::Regression)]
        {
            let (x, y) = step_data(rows);
            let p = ForestParams { n_trees, ..Default::default() };
            let f = RandomForest::fit(&x, &y, task, p);
            assert_eq!(f.len(), n_trees);
            assert!(!f.is_empty());
        }
    }

    /// A NaN feature has no place in a sorted column: the fit refuses it,
    /// rather than grow trees that depend on how a sort treats it.
    #[test]
    #[should_panic(expected = "cannot fit a forest on a NaN feature")]
    fn a_nan_feature_is_refused() {
        let (mut x, y) = step_data(30);
        x[17][1] = f64::NAN;
        RandomForest::fit(&x, &y, Task::Classification { n_classes: 4 }, ForestParams::default());
    }

    /// `fit` against a forest built the way it was before trees took row
    /// lists: every tree's bootstrap rows cloned, the tree grown by the split
    /// search the sweep replaced (`DecisionTree::fit_oracle`) from a fresh
    /// sort at every node. Same trees, so bit-equal predictions, on a small
    /// and a large forest.
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
    /// a small and a large forest.
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

    /// The class the per-class `counts` elect under the rule the forest had
    /// before its votes stayed on the stack: `max_by_key` over the classes,
    /// which keeps the last of equal maxima.
    fn elected(counts: &[usize]) -> usize {
        counts.iter().enumerate().max_by_key(|&(_, &v)| v).map_or(0, |(c, _)| c)
    }

    /// Per-class counts of `votes` over `n_classes`.
    fn counts_of(votes: &[usize], n_classes: usize) -> Vec<usize> {
        let mut counts = vec![0; n_classes];
        for &v in votes {
            counts[v] += 1;
        }
        counts
    }

    #[test]
    fn plurality_elects_what_per_class_counts_did() {
        let mut g = ChaCha8Rng::seed_from_u64(0x7073);
        for _ in 0..5000 {
            let n_classes = g.gen_range(1..=17usize);
            // Few distinct classes over many votes, so that counts tie often.
            let used = g.gen_range(1..=n_classes.min(4));
            let pool: Vec<usize> = (0..used).map(|_| g.gen_range(0..n_classes)).collect();
            let mut votes: Vec<usize> =
                (0..g.gen_range(0..=30)).map(|_| pool[g.gen_range(0..used)]).collect();
            let want = elected(&counts_of(&votes, n_classes));
            assert_eq!(plurality(&mut votes, n_classes), want);
        }
    }

    /// Brute force of `HeldOutVotes` on random vote tables: 2–17 classes,
    /// 1–30 rows, votes drawn from a few classes per row so that counts tie,
    /// thresholds on and beside `k/n`. Whenever the trees tallied settle
    /// the verdict, it is the verdict of all of them, each row elected as
    /// `RandomForest::predict` elects and scored by `accuracy`; and a whole
    /// forest always settles.
    #[test]
    fn held_out_votes_settle_only_on_the_whole_forests_verdict() {
        let mut g = ChaCha8Rng::seed_from_u64(0x4856);
        let (mut early, mut cases) = (0, 0);
        for _ in 0..4000 {
            let n_classes = g.gen_range(2..=17usize);
            let n = g.gen_range(1..=30usize);
            let n_trees = g.gen_range(1..=24usize);
            let truth: Vec<usize> = (0..n).map(|_| g.gen_range(0..n_classes)).collect();
            // Per row, the classes its trees vote among: mostly its truth.
            let table: Vec<Vec<usize>> = truth
                .iter()
                .map(|&t| {
                    let others: Vec<usize> = (0..2).map(|_| g.gen_range(0..n_classes)).collect();
                    let bias = g.gen_range(0..=4u32);
                    (0..n_trees)
                        .map(|_| {
                            if g.gen_range(0..4u32) < bias {
                                t
                            } else {
                                others[g.gen_range(0..2usize)]
                            }
                        })
                        .collect()
                })
                .collect();
            let pred: Vec<usize> =
                table.iter().map(|votes| elected(&counts_of(votes, n_classes))).collect();
            let acc = accuracy(&pred, &truth);
            let k = g.gen_range(0..=n);
            let thr = match g.gen_range(0..4u32) {
                0 => k as f64 / n as f64,
                1 => acc,
                2 => [0.7, 0.55][g.gen_range(0..2usize)],
                _ => g.gen_range(0..=1000u32) as f64 / 1000.0,
            };
            let whole = acc >= thr;
            let rows = vec![Vec::new(); n];
            let mut votes = HeldOutVotes::new(&rows, &truth, n_classes, n_trees, thr);
            for tree in 0..n_trees {
                votes.add(table.iter().map(|row| row[tree]));
                if let Some(verdict) = votes.settled() {
                    assert_eq!(verdict, whole, "settled after {} of {n_trees}", tree + 1);
                    early += usize::from(tree + 1 < n_trees);
                }
            }
            assert_eq!(votes.settled(), Some(whole));
            cases += 1;
        }
        assert!(early > cases / 4, "the rule settles early in {early} of {cases} cases");
    }

    /// Thresholds that land exactly on a hit count: 21 of 30 is 0.7, and
    /// `accuracy` compares `21.0 / 30.0 >= 0.7`, which holds.
    #[test]
    fn held_out_votes_need_the_hits_accuracy_counts() {
        let truth = vec![0; 30];
        let rows = vec![Vec::new(); 30];
        assert_eq!(HeldOutVotes::new(&rows, &truth, 2, 1, 0.7).need, Some(21));
        for (hits, clears) in [(21, true), (20, false)] {
            let mut votes = HeldOutVotes::new(&rows, &truth, 2, 1, 0.7);
            votes.add((0..30).map(|k| usize::from(k >= hits)));
            assert_eq!(votes.settled(), Some(clears));
        }
    }

    #[test]
    fn fit_many_while_keeps_the_first_trees_of_fit_many() {
        let (x, y) = step_data(90);
        let targets = [(&y[..], Task::Classification { n_classes: 4 }), (&y[..], Task::Regression)];
        let params = ForestParams { n_trees: 24, seed: 5 };
        let whole = RandomForest::fit_many(&x, &targets, params);
        let mut asked = 0;
        let cut = RandomForest::fit_many_while(&x, &targets, params, |forests| {
            asked += 1;
            assert!(forests.iter().all(|f| f.len() == asked));
            asked < 13
        });
        for (cut, whole) in cut.iter().zip(&whole) {
            assert_eq!(cut.len(), 13);
            assert_eq!(format!("{:?}", cut.trees), format!("{:?}", &whole.trees[..13]));
        }
    }
}
