//! CART decision trees (classification and regression).
//!
//! The building block for the random forests Libra's profiler uses
//! (§4.3.1). Splits minimize Gini impurity (classification) or sum of
//! squared errors (regression); every midpoint between consecutive distinct
//! feature values is a candidate threshold, so the tree is the exact CART
//! tree.
//!
//! A tree sorts once, or not at all. `sort_sample` lays a sample (a forest's
//! bootstrap, repeats and all) out per feature as the `(value, row)` pairs
//! sorted by value, stably, so ties stand in sample order; a forest fitting
//! several targets on one bootstrap (`RandomForest::fit_many`) sorts it once
//! and grows each target's tree from a copy. With the `(target, row)` pairs in
//! sample order these are the per-tree buffers, and a node is the same range
//! `lo..hi` of every one of them. The grower reads no feature value outside
//! them. Splitting a node partitions each range in place, stably, through one
//! spill buffer: the children are `lo..mid` and `mid..hi`. The chosen
//! feature's range is divided already — the sweep put the left side's pairs
//! first — so its rows are marked in a per-tree mask (`mark`) and the other
//! ranges and the sample are partitioned by the mark, without a branch on the
//! side. A stable partition of a sorted run is sorted, with ties in the
//! order the parent had them, which is the child's sample order; so a child's
//! range holds exactly what collecting the child's rows and stable-sorting
//! them would, and everything that sums floats in row order or in `entered`
//! order — leaf means, a side's SSE, the running sums of the sweep — adds
//! the same numbers in the same order as a search that re-sorts every node.
//!
//! The search sweeps a node's sorted range per feature with a left-side
//! pointer (`sweep`) — O(n) a node — yet picks the split, and reports the
//! gain, that dividing the node afresh at every threshold would. Both tasks
//! score every candidate cheaply first and compute the gain the slow way only
//! for those the score cannot rule out. For classification the score comes
//! from integers — the running sums of squared class counts — and the slow
//! gain is each side's `gini_n`, as a whole node's, summed over the classes
//! the node holds, in ascending order, not over all that were declared: an
//! absent class has count zero on both sides and would add `+0.0`, which
//! changes no bit of a sum (`best_gini_split` has the argument). A side's SSE
//! is a float sum in row order that no running sum reproduces, so regression
//! scores from prefix sums and evaluates a side in sample order, gathered
//! through the mask (`best_sse_split`).

use rand::seq::SliceRandom;
use rand::Rng;

/// What the tree predicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Multi-class classification with this many classes.
    Classification {
        /// Number of classes (labels are `0..n_classes`).
        n_classes: usize,
    },
    /// Scalar regression.
    Regression,
}

/// Tree growth limits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// How many features to consider per split (`None` = all). Forests set
    /// this to √d (classification) or max(1, d/3) (regression).
    pub feature_subsample: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_samples_split: 2, feature_subsample: None }
    }
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted decision tree (arena-allocated nodes).
#[derive(Clone, Debug)]
pub(crate) struct DecisionTree {
    nodes: Vec<NodeKind>,
    task: Task,
}

/// The best split of a node so far: `(gain, feature, threshold, n_left)`.
type Best = Option<(f64, usize, f64, usize)>;

/// A candidate split of the node at hand: `(score, feature, threshold, n_left)`.
type Scored = (f64, usize, f64, usize);

/// An element of a per-tree buffer: a float and the dataset row it belongs to.
pub(crate) type Pair = (f64, usize);

/// Keep `best` unless `gain` is strictly greater: of equal gains the first
/// enumerated wins.
fn offer(best: &mut Best, gain: f64, (_, f, thr, n_left): Scored) {
    if best.is_none_or(|(g, ..)| gain > g) {
        *best = Some((gain, f, thr, n_left));
    }
}

/// The cut below which a candidate scored `s` cannot be the best split: the
/// top score less `2·tol`.
fn band_line(scored: &[Scored], tol: f64) -> f64 {
    scored.iter().map(|c| c.0).fold(f64::NEG_INFINITY, f64::max) - 2.0 * tol
}

/// Sum of squared deviations from the mean of `n` targets, two passes in
/// iteration order.
fn sse(ys: impl Iterator<Item = f64> + Clone, n: usize) -> f64 {
    let mean = ys.clone().sum::<f64>() / n as f64;
    ys.map(|v| (v - mean).powi(2)).sum::<f64>()
}

/// Gini impurity times `n` of `n` rows with these per-class counts. A count
/// of zero adds `+0.0` to a sum of squares that some positive term makes
/// positive, so leaving zero counts out returns the same bits.
fn gini_n(counts: impl Iterator<Item = usize>, n: usize) -> f64 {
    let n = n as f64;
    let gini = 1.0 - counts.map(|c| (c as f64 / n).powi(2)).sum::<f64>();
    gini * n
}

/// Enumerate the candidate splits of a node on one feature, given the node's
/// `(value, row)` pairs for it in ascending order, by ascending threshold: at
/// each boundary between distinct values call `visit(thr, entered, n_left)`
/// with the pairs that joined the left side since the last call and that
/// side's size. The left side is `value <= thr`, advanced by value, not
/// position: the midpoint of two adjacent floats can round up to the right
/// one, whose rows are then on the left too.
#[expect(
    clippy::float_cmp,
    reason = "a boundary lies between distinct values: equal means bit-equal"
)]
fn sweep(vals: &[Pair], mut visit: impl FnMut(f64, &[Pair], usize)) {
    let mut right = vals;
    for pair in vals.windows(2) {
        let (prev, cur) = (pair[0].0, pair[1].0);
        let thr = (cur + prev) / 2.0;
        if cur == prev || thr.is_nan() {
            continue; // no boundary, or −∞ | +∞: no midpoint, and no row `<=` it
        }
        let moved = right.iter().take_while(|v| v.0 <= thr).count();
        if moved == right.len() {
            break; // no right side, at this or any later (never lower) threshold
        }
        let (entered, rest) = right.split_at(moved);
        right = rest;
        visit(thr, entered, vals.len() - right.len());
    }
}

/// Per feature, the `(value, row)` pairs of the sample `rows` sorted by value,
/// stably, so ties stand in sample order: the layout a tree grows from.
pub(crate) fn sort_sample(x: &[Vec<f64>], rows: &[usize]) -> Vec<Vec<Pair>> {
    (0..x[0].len())
        .map(|f| {
            let mut run: Vec<Pair> = rows.iter().map(|&i| (x[i][f], i)).collect();
            run.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            run
        })
        .collect()
}

/// Stable partition of `run` in place: the pairs whose row `goes_left` first,
/// both sides in the order they had. Returns the size of the left side.
/// Every pair is written to both sides' next slot and one slot is kept, so
/// the loop does not branch on the side, which is a coin toss to predict.
fn partition(run: &mut [Pair], spill: &mut Vec<Pair>, goes_left: impl Fn(usize) -> bool) -> usize {
    if spill.len() < run.len() {
        spill.resize(run.len(), (0.0, 0));
    }
    let (mut n_left, mut n_right) = (0, 0);
    for k in 0..run.len() {
        let pair = run[k];
        let left = goes_left(pair.1);
        run[n_left] = pair; // n_left <= k: a slot already read
        spill[n_right] = pair;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    run[n_left..].copy_from_slice(&spill[..n_right]);
    n_left
}

/// One tree's growth: the bootstrap sample laid out once, as buffers every
/// node owns the same range `lo..hi` of, and the scratch a node's split
/// search needs, allocated once.
struct Grower<'a> {
    y: &'a [f64],
    params: TreeParams,
    tree: DecisionTree,
    /// `(target, row)` of the sample; a node's range is in sample order.
    sample: Vec<Pair>,
    /// Per feature, `(value, row)` of the sample; a node's range ascends by
    /// value, ties in sample order.
    sorted: Vec<Vec<Pair>>,
    /// Right-hand side of the range `partition` is dividing.
    spill: Vec<Pair>,
    /// A candidate's node sample, divided into its two sides (`best_sse_split`).
    sides: Vec<Pair>,
    /// Per dataset row, whether it is on the left of the candidate `mark`ed last.
    goes_left: Vec<bool>,
    /// The features the node at hand may split on.
    feats: Vec<usize>,
    /// Candidates of the node at hand, in enumeration order.
    scored: Vec<Scored>,
    /// Class counts of the node at hand (`tally`; all zero between nodes), of
    /// a candidate's left side, and the classes the node holds, ascending.
    total: Vec<usize>,
    left: Vec<usize>,
    present: Vec<usize>,
}

impl Grower<'_> {
    /// Count the classes of node `lo..hi` into `total` and list them in `present`.
    fn tally(&mut self, lo: usize, hi: usize) {
        for &(label, _) in &self.sample[lo..hi] {
            let c = label as usize;
            if self.total[c] == 0 {
                self.present.push(c);
            }
            self.total[c] += 1;
        }
        self.present.sort_unstable();
    }

    fn clear_tally(&mut self) {
        for c in self.present.drain(..) {
            self.total[c] = 0;
        }
    }

    /// Record which rows go left at candidate `(f, n_left)` of node `lo..hi`:
    /// the first `n_left` pairs of `f`'s range, which the sweep put there.
    fn mark(&mut self, f: usize, lo: usize, hi: usize, n_left: usize) {
        let (left, right) = self.sorted[f][lo..hi].split_at(n_left);
        for &(_, row) in left {
            self.goes_left[row] = true;
        }
        for &(_, row) in right {
            self.goes_left[row] = false;
        }
    }

    /// Best Gini split of node `lo..hi` over `feats`: the split, and the gain,
    /// that `parent − gini_n(left) − gini_n(right)` at every candidate would
    /// give, each side's impurity over the classes the node holds.
    ///
    /// Each candidate is first scored `s = ΣcL²/nL + ΣcR²/nR` from integers
    /// the sweep keeps: a row of class `c` entering the left side adds
    /// `2·cL + 1` to `ΣcL²` and takes `2·cR − 1` from `ΣcR²` (counts before the
    /// move). In exact arithmetic `gini_n(c, m) = m − Σc²/m`, so the gain is
    /// `parent − n + s`: one constant for the node, and `s` ranks candidates
    /// as the gain does. In floats (`u = ε/2`, `k` the classes the node holds)
    /// the sums of squares are exact integers and each quotient rounds once,
    /// so `s` is off by `E_s ≤ 2u·n`. A side's `gini_n` sums `k` rounded
    /// squares of rounded quotients, each below 1, takes the sum from 1 and
    /// scales by the side's size: off by `(k + 4)·u·n` at most; with the two
    /// subtractions the slow gain is off by `E_g ≤ (k + 6)·u·n` plus the
    /// parent's error, which every candidate shares. As for `best_sse_split`,
    /// the slow winner then scores within `2(E_s + E_g)` of the top, and
    /// `tol = (8k + 32)·ε·n` is eight times that and more. Only the candidates
    /// within `2·tol` of the top get `gini_n`, in enumeration order under the
    /// same strict `>`, their left counts rebuilt by walking each feature's
    /// range once more.
    fn best_gini_split(&mut self, lo: usize, hi: usize) -> Best {
        let n = hi - lo;
        self.tally(lo, hi);
        let parent = gini_n(self.present.iter().map(|&c| self.total[c]), n);
        let sq_total: usize = self.present.iter().map(|&c| self.total[c] * self.total[c]).sum();
        self.scored.clear();
        for &f in &self.feats {
            for &c in &self.present {
                self.left[c] = 0;
            }
            let (mut sq_left, mut sq_right) = (0usize, sq_total);
            sweep(&self.sorted[f][lo..hi], |thr, entered, n_left| {
                for &(_, i) in entered {
                    let c = self.y[i] as usize;
                    let (cl, cr) = (self.left[c], self.total[c] - self.left[c]);
                    sq_left += 2 * cl + 1;
                    sq_right -= 2 * cr - 1;
                    self.left[c] = cl + 1;
                }
                let s = sq_left as f64 / n_left as f64 + sq_right as f64 / (n - n_left) as f64;
                self.scored.push((s, f, thr, n_left));
            });
        }
        let tol = (8.0 * self.present.len() as f64 + 32.0) * f64::EPSILON * n as f64;
        let line = band_line(&self.scored, tol);

        let mut best = None;
        let mut at = (usize::MAX, 0); // `left` counts the first `at.1` pairs of feature `at.0`
        for &cand @ (s, f, _, n_left) in &self.scored {
            if s < line {
                continue;
            }
            if at.0 != f {
                for &c in &self.present {
                    self.left[c] = 0;
                }
                at = (f, 0);
            }
            let run = &self.sorted[f][lo..hi];
            for &(_, i) in &run[at.1..n_left] {
                self.left[self.y[i] as usize] += 1;
            }
            at.1 = n_left;
            let left = self.present.iter().map(|&c| self.left[c]);
            let right = self.present.iter().map(|&c| self.total[c] - self.left[c]);
            offer(&mut best, parent - gini_n(left, n_left) - gini_n(right, n - n_left), cand);
        }
        self.clear_tally();
        best
    }

    /// Best SSE split of node `lo..hi` over `feats`: the split, and the gain,
    /// that evaluating `parent − sse(left) − sse(right)` at every candidate
    /// would give. `parent` is the sum of the squared node-centred targets.
    ///
    /// Each candidate is first scored `s = SL²/nL + SR²/nR`, `SL` the sweep's
    /// running sum of the node-centred targets `z = y − c` and `SR = Σz − SL`.
    /// In exact arithmetic `s = G + n(ȳ − c)²` for any centre `c`, `G` the true
    /// gain, so `s` ranks candidates as `G` does. In floats (`u = ε/2`,
    /// `Z = Σz²`, `Y = max|y|`) `s` is off by `E_s ≲ (4n^1.5 + 2n + 6)·u·Z` —
    /// `SR` carries up to `2n·u·Σ|z|` of rounding, `Σ|z| ≤ √(nZ)`,
    /// `|SR| ≤ √(nR·Z)` — and the slow evaluation `Ĝ` is off too, by a constant
    /// all candidates share (the parent's error) plus
    /// `E_g ≲ (2n + 6)·u·Z + n³u²Y²`: a side's mean is a float sum, wrong by up
    /// to `n_s·u·Y`, which adds `n_s³u²Y²` to its SSE, and the squares, sums and
    /// subtractions add `(n + 3)·u` of it. That last term is nothing unless the
    /// targets sit on a large offset, and then it is what matters.
    ///
    /// The slow winner `w` has `Ĝ_w ≥ Ĝ_k`, hence `G_w ≥ G_k − 2E_g` and
    /// `s_w ≥ s_k − 2(E_s + E_g)` for every `k`: it scores within `2·tol` of
    /// the top for any `tol ≥ E_s + E_g`, and the one below has a factor of 6
    /// and more to spare. Evaluating just those candidates the slow way, in
    /// enumeration order under the same strict `>`, returns `w` with `Ĝ_w` —
    /// the first of the maxima is the first in any subset that holds it. A
    /// score not provably below the line (NaN, or a non-finite `tol`) is
    /// evaluated; its sides are gathered in sample order through `mark`.
    fn best_sse_split(&mut self, lo: usize, hi: usize) -> Best {
        let n = hi - lo;
        let centre = self.sample[lo..hi].iter().map(|p| p.0).sum::<f64>() / n as f64;
        let (mut z_sum, mut parent, mut y_max) = (0.0f64, 0.0f64, 0.0f64);
        for &(y, _) in &self.sample[lo..hi] {
            let z = y - centre;
            z_sum += z;
            parent += z * z;
            y_max = y_max.max(y.abs());
        }
        let nf = n as f64;
        let tol = 64.0 * f64::EPSILON * nf.powf(1.5) * parent
            + 4.0 * (f64::EPSILON * y_max).powi(2) * nf.powi(3);

        self.scored.clear();
        for &f in &self.feats {
            let mut sl = 0.0f64;
            sweep(&self.sorted[f][lo..hi], |thr, entered, n_left| {
                for &(_, i) in entered {
                    sl += self.y[i] - centre;
                }
                let sr = z_sum - sl;
                let (nl, nr) = (n_left as f64, (n - n_left) as f64);
                self.scored.push((sl * (sl / nl) + sr * (sr / nr), f, thr, n_left));
            });
        }
        let line = band_line(&self.scored, tol);

        let mut best = None;
        for k in 0..self.scored.len() {
            let cand @ (score, f, _, n_left) = self.scored[k];
            if score < line {
                continue;
            }
            self.mark(f, lo, hi, n_left);
            self.sides.clear();
            self.sides.extend_from_slice(&self.sample[lo..hi]);
            let goes_left = &self.goes_left;
            partition(&mut self.sides, &mut self.spill, |row| goes_left[row]);
            let (left, right) = self.sides.split_at(n_left);
            let gain = parent
                - sse(left.iter().map(|p| p.0), n_left)
                - sse(right.iter().map(|p| p.0), n - n_left);
            offer(&mut best, gain, cand);
        }
        best
    }

    fn leaf_value(&mut self, lo: usize, hi: usize) -> f64 {
        match self.tree.task {
            Task::Regression => {
                self.sample[lo..hi].iter().map(|p| p.0).sum::<f64>() / (hi - lo) as f64
            }
            Task::Classification { .. } => {
                self.tally(lo, hi);
                let top = self.present.iter().max_by_key(|&&c| self.total[c]).map(|&c| c as f64);
                self.clear_tally();
                top.unwrap_or(0.0)
            }
        }
    }

    /// Divide node `lo..hi` at its candidate `(f, n_left)` and return where:
    /// `f`'s range is divided already (its first `n_left` pairs are the left
    /// side), and every other buffer's range is partitioned stably by the
    /// rows `mark` puts left, so `lo..mid` and `mid..hi` are the children's,
    /// in the orders the buffers promise.
    fn split(&mut self, lo: usize, hi: usize, f: usize, n_left: usize) -> usize {
        self.mark(f, lo, hi, n_left);
        let goes_left = &self.goes_left;
        let others =
            self.sorted.iter_mut().enumerate().filter(|&(g, _)| g != f).map(|(_, run)| run);
        for run in others.chain([&mut self.sample]) {
            let moved = partition(&mut run[lo..hi], &mut self.spill, |row| goes_left[row]);
            debug_assert_eq!(moved, n_left);
        }
        lo + n_left
    }

    #[expect(
        clippy::float_cmp,
        reason = "a node is pure when every target is the same value, bit for bit"
    )]
    fn grow(&mut self, lo: usize, hi: usize, depth: usize, rng: &mut impl Rng) -> usize {
        let node_id = self.tree.nodes.len();
        self.tree.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

        let first = self.sample[lo].0;
        let pure = self.sample[lo..hi].iter().all(|p| p.0 == first);
        let stop = depth >= self.params.max_depth || hi - lo < self.params.min_samples_split;
        let mut best = None;
        if !stop && !pure {
            let d = self.sorted.len();
            self.feats.clear();
            self.feats.extend(0..d);
            if let Some(k) = self.params.feature_subsample {
                self.feats.shuffle(rng);
                self.feats.truncate(k.clamp(1, d));
            }
            best = match self.tree.task {
                Task::Regression => self.best_sse_split(lo, hi),
                Task::Classification { .. } => self.best_gini_split(lo, hi),
            };
        }

        self.tree.nodes[node_id] = match best {
            Some((gain, feature, threshold, n_left)) if gain > 1e-12 => {
                let mid = self.split(lo, hi, feature, n_left);
                let left = self.grow(lo, mid, depth + 1, rng);
                let right = self.grow(mid, hi, depth + 1, rng);
                NodeKind::Split { feature, threshold, left, right }
            }
            _ => NodeKind::Leaf { value: self.leaf_value(lo, hi) },
        };
        node_id
    }
}

impl DecisionTree {
    /// Fit a tree on the sample `rows` given its layout `sorted`, which must
    /// be `sort_sample(x, rows)`: the grower reads features only from it, so
    /// a forest sorts one bootstrap for every target it fits on those rows.
    pub(crate) fn fit_sorted(
        y: &[f64],
        rows: &[usize],
        sorted: Vec<Vec<Pair>>,
        task: Task,
        params: TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        let n_classes = match task {
            Task::Classification { n_classes } => n_classes,
            Task::Regression => 0,
        };
        let mut grower = Grower {
            y,
            params,
            tree: DecisionTree { nodes: Vec::new(), task },
            sample: rows.iter().map(|&i| (y[i], i)).collect(),
            sorted,
            spill: Vec::new(),
            sides: Vec::new(),
            goes_left: vec![false; y.len()],
            feats: Vec::new(),
            scored: Vec::new(),
            total: vec![0; n_classes],
            left: vec![0; n_classes],
            present: Vec::new(),
        };
        grower.grow(0, rows.len(), 0, rng);
        grower.tree
    }

    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                NodeKind::Leaf { value } => return *value,
                NodeKind::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    impl DecisionTree {
        /// Fit a tree on `(x, y)`; classification labels must be
        /// `0..n_classes` encoded as `f64`, features must not be NaN. `rng`
        /// drives feature subsampling.
        pub(crate) fn fit(
            x: &[Vec<f64>],
            y: &[f64],
            task: Task,
            params: TreeParams,
            rng: &mut impl Rng,
        ) -> Self {
            assert_eq!(x.len(), y.len(), "feature/target length mismatch");
            assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
            let rows: Vec<usize> = (0..x.len()).collect();
            Self::fit_rows(x, y, &rows, task, params, rng)
        }

        /// Fit a tree on the rows `rows` of `(x, y)`, repeats and all, in
        /// that order — a forest's bootstrap sample without a copy of the
        /// data.
        pub(crate) fn fit_rows(
            x: &[Vec<f64>],
            y: &[f64],
            rows: &[usize],
            task: Task,
            params: TreeParams,
            rng: &mut impl Rng,
        ) -> Self {
            Self::fit_sorted(y, rows, sort_sample(x, rows), task, params, rng)
        }

        /// Number of nodes.
        pub(crate) fn size(&self) -> usize {
            self.nodes.len()
        }
    }

    /// The split search `grow` had before the sweep, verbatim — every
    /// candidate threshold re-partitions the node and both impurities are
    /// computed from scratch — with the `impurity` and `leaf_value` of the
    /// time. The oracle the sweep must match node for node, bit for bit.
    impl DecisionTree {
        pub(crate) fn fit_oracle(
            x: &[Vec<f64>],
            y: &[f64],
            task: Task,
            params: TreeParams,
            rng: &mut impl Rng,
        ) -> Self {
            let mut tree = DecisionTree { nodes: Vec::new(), task };
            let idx: Vec<usize> = (0..x.len()).collect();
            tree.grow_oracle(x, y, &idx, 0, params, rng);
            tree
        }

        fn leaf_value_oracle(&self, y: &[f64], idx: &[usize]) -> f64 {
            match self.task {
                Task::Regression => idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64,
                Task::Classification { n_classes } => {
                    let mut counts = vec![0usize; n_classes];
                    for &i in idx {
                        counts[y[i] as usize] += 1;
                    }
                    counts
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &c)| c)
                        .map(|(k, _)| k as f64)
                        .unwrap_or(0.0)
                }
            }
        }

        fn impurity_oracle(&self, y: &[f64], idx: &[usize]) -> f64 {
            match self.task {
                Task::Regression => {
                    let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
                    idx.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>()
                }
                Task::Classification { n_classes } => {
                    let mut counts = vec![0usize; n_classes];
                    for &i in idx {
                        counts[y[i] as usize] += 1;
                    }
                    let n = idx.len() as f64;
                    let gini = 1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>();
                    gini * n
                }
            }
        }

        fn grow_oracle(
            &mut self,
            x: &[Vec<f64>],
            y: &[f64],
            idx: &[usize],
            depth: usize,
            params: TreeParams,
            rng: &mut impl Rng,
        ) -> usize {
            let node_id = self.nodes.len();
            self.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

            let pure = idx.iter().all(|&i| y[i] == y[idx[0]]);
            if depth >= params.max_depth || idx.len() < params.min_samples_split || pure {
                self.nodes[node_id] = NodeKind::Leaf { value: self.leaf_value_oracle(y, idx) };
                return node_id;
            }

            let d = x[0].len();
            let mut feats: Vec<usize> = (0..d).collect();
            if let Some(k) = params.feature_subsample {
                feats.shuffle(rng);
                feats.truncate(k.clamp(1, d));
            }

            let parent = self.impurity_oracle(y, idx);
            let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
            for &f in &feats {
                let mut vals: Vec<(f64, usize)> = idx.iter().map(|&i| (x[i][f], i)).collect();
                vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                for pair in vals.windows(2) {
                    let (prev, cur) = (pair[0].0, pair[1].0);
                    if cur == prev {
                        continue;
                    }
                    let thr = (cur + prev) / 2.0;
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x[i][f] <= thr);
                    if l.is_empty() || r.is_empty() {
                        continue;
                    }
                    let gain = parent - self.impurity_oracle(y, &l) - self.impurity_oracle(y, &r);
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, f, thr));
                    }
                }
            }

            match best {
                Some((gain, f, thr)) if gain > 1e-12 => {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x[i][f] <= thr);
                    let left = self.grow_oracle(x, y, &l, depth + 1, params, rng);
                    let right = self.grow_oracle(x, y, &r, depth + 1, params, rng);
                    self.nodes[node_id] =
                        NodeKind::Split { feature: f, threshold: thr, left, right };
                }
                _ => {
                    self.nodes[node_id] = NodeKind::Leaf { value: self.leaf_value_oracle(y, idx) };
                }
            }
            node_id
        }
    }

    /// Fit `rows` of `(x, y)` with the sweep and a copy of those rows with
    /// the oracle, from equal RNG states: same nodes, same RNG draws.
    fn assert_same_tree(
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        task: Task,
        params: TreeParams,
        what: &str,
    ) -> DecisionTree {
        let (mut rng_new, mut rng_old) = (rng(), rng());
        let new = DecisionTree::fit_rows(x, y, rows, task, params, &mut rng_new);
        let bx: Vec<Vec<f64>> = rows.iter().map(|&i| x[i].clone()).collect();
        let by: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
        let old = DecisionTree::fit_oracle(&bx, &by, task, params, &mut rng_old);
        assert_eq!(format!("{:?}", new.nodes), format!("{:?}", old.nodes), "{what}");
        assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "{what}: RNG draws differ");
        new
    }

    /// 2,400 random nodes' worth of trees against the oracle: 2–160 rows
    /// (plain or drawn with replacement), 1–3 features on 2–40 value levels
    /// (ties abound) with a monotone twin, both tasks, with and without
    /// feature subsampling, regression targets on 2–40 levels or continuous,
    /// offset by 10⁰…10¹³ over spreads of 10⁰…10⁻⁷.
    #[test]
    fn sweep_grows_the_oracles_trees_bit_for_bit() {
        for case in 0..2400u64 {
            let mut g = ChaCha8Rng::seed_from_u64(0x5eed_0000 + case);
            let n = g.gen_range(2..=160usize);
            let d = g.gen_range(1..=3usize);
            let levels = g.gen_range(2..=40u32);
            let twin = g.gen_range(0..3u32); // 0 none, 1 increasing, 2 decreasing
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut row: Vec<f64> =
                        (0..d).map(|_| f64::from(g.gen_range(0..levels)) * 0.37).collect();
                    if d > 1 && twin > 0 {
                        row[1] = if twin == 1 { row[0] * 3.0 + 1.0 } else { -row[0] };
                    }
                    row
                })
                .collect();
            let classify = case % 2 == 0;
            let (task, y): (Task, Vec<f64>) = if classify {
                let n_classes = g.gen_range(2..=6usize);
                let y = x
                    .iter()
                    .map(|r| ((r[0] / 0.37) as usize + g.gen_range(0..2usize)) % n_classes)
                    .map(|c| c as f64)
                    .collect();
                (Task::Classification { n_classes }, y)
            } else {
                let offset = if g.gen_bool(0.2) { 0.0 } else { 10f64.powi(g.gen_range(0..=13i32)) };
                let spread = 10f64.powi(-g.gen_range(0..=7i32));
                let y_levels = g.gen_range(2..=40u32);
                let continuous = g.gen_bool(0.3);
                let y = x
                    .iter()
                    .map(|r| {
                        let noise = if continuous {
                            g.gen_range(0.0..1.0) * f64::from(y_levels)
                        } else {
                            f64::from(g.gen_range(0..y_levels))
                        };
                        offset + spread * (noise + (r[0] / 0.37).floor() * 0.5)
                    })
                    .collect();
                (Task::Regression, y)
            };
            let params = TreeParams {
                max_depth: g.gen_range(1..=12),
                min_samples_split: g.gen_range(2..=5),
                feature_subsample: g.gen_bool(0.5).then(|| g.gen_range(1..=d)),
            };
            let rows: Vec<usize> = if g.gen_bool(0.5) {
                (0..n).collect()
            } else {
                (0..n).map(|_| g.gen_range(0..n)).collect()
            };
            assert_same_tree(&x, &y, &rows, task, params, &format!("case {case}"));
        }
    }

    /// The Gini band's tolerance grows with the classes a node holds, so the
    /// sweep is checked where it is widest: 17 or 64 declared classes (the
    /// CPU forest's width and more) with up to 40 of them in use, on the
    /// level grid of the sweep above or on the profiler's rows `[s, ln s]`
    /// over duplicator-spaced sizes, and one 514-class case, the width
    /// `n_mem_classes` gives the memory forest.
    #[test]
    fn gini_band_keeps_the_oracles_trees_with_many_classes() {
        for case in 0..241u64 {
            let mut g = ChaCha8Rng::seed_from_u64(0xc1a5_0000 + case);
            let wide = case == 240;
            let n_classes = if wide { 514 } else { [17, 64][case as usize % 2] };
            let n = if wide { 300 } else { g.gen_range(20..=160usize) };
            let held = if wide { 120 } else { g.gen_range(2..=40usize.min(n_classes)) };
            let mut classes: Vec<usize> = (0..n_classes).collect();
            classes.shuffle(&mut g);
            classes.truncate(held);
            let x: Vec<Vec<f64>> = if wide || case % 4 < 2 {
                let (lo, hi) = (g.gen_range(1..=50u32), g.gen_range(500..=200_000u32));
                (0..n)
                    .map(|k| {
                        let frac = k as f64 / (n - 1) as f64;
                        let s = (f64::from(lo) + frac * f64::from(hi - lo)).round();
                        vec![s, s.ln()]
                    })
                    .collect()
            } else {
                let (d, levels) = (g.gen_range(1..=3usize), g.gen_range(2..=40u32));
                (0..n)
                    .map(|_| (0..d).map(|_| f64::from(g.gen_range(0..levels))).collect())
                    .collect()
            };
            let spread = g.gen_range(0..=3usize);
            let y: Vec<f64> = (0..n)
                .map(|k| {
                    let step = (k * held / n + g.gen_range(0..=spread)).min(held - 1);
                    classes[step] as f64
                })
                .collect();
            let task = Task::Classification { n_classes };
            let d = x[0].len();
            let params = TreeParams {
                max_depth: g.gen_range(4..=12),
                min_samples_split: 2,
                feature_subsample: g.gen_bool(0.5).then(|| g.gen_range(1..=d)),
            };
            let rows: Vec<usize> = if g.gen_bool(0.5) {
                (0..n).collect()
            } else {
                (0..n).map(|_| g.gen_range(0..n)).collect()
            };
            assert_same_tree(&x, &y, &rows, task, params, &format!("case {case}"));
        }
    }

    /// The midpoint of two adjacent floats is one of them. Rounded down it
    /// is the left value and the split stands; rounded up it is the right
    /// value, whose rows then sit on the left as well.
    #[test]
    fn midpoint_of_adjacent_floats_splits_as_the_comparison_does() {
        let e = f64::EPSILON;
        let all = TreeParams::default();

        let x = vec![vec![1.0], vec![1.0 + e]];
        assert_eq!((x[0][0] + x[1][0]) / 2.0, 1.0, "rounds down to the left value");
        let t = assert_same_tree(&x, &[0.0, 1.0], &[0, 1], Task::Regression, all, "down");
        assert_eq!(t.size(), 3);
        assert_eq!((t.predict(&[1.0]), t.predict(&[1.0 + e])), (0.0, 1.0));

        // −∞ | +∞ has no midpoint at all: NaN, with no row `<=` it.
        let x = vec![vec![f64::NEG_INFINITY], vec![f64::INFINITY]];
        let t = assert_same_tree(&x, &[0.0, 1.0], &[0, 1], Task::Regression, all, "nan");
        assert_eq!(t.size(), 1);

        let x = vec![vec![1.0 + e], vec![1.0 + 2.0 * e], vec![5.0]];
        assert_eq!((x[0][0] + x[1][0]) / 2.0, 1.0 + 2.0 * e, "rounds up to the right value");
        // Alone the pair cannot be split: the only threshold empties the right side.
        let t = assert_same_tree(&x, &[0.0, 10.0, 20.0], &[0, 1], Task::Regression, all, "up/2");
        assert_eq!(t.size(), 1);
        assert_eq!(t.predict(&[1.0 + e]), 5.0);
        // With a third row the rounded-up threshold is a split, both rows on its left.
        for task in [Task::Regression, Task::Classification { n_classes: 21 }] {
            let t = assert_same_tree(&x, &[0.0, 10.0, 20.0], &[0, 1, 2], task, all, "up/3");
            assert_eq!(t.size(), 3);
            assert!(
                matches!(t.nodes[0], NodeKind::Split { threshold, .. } if threshold == 1.0 + 2.0 * e)
            );
            assert_eq!(t.predict(&[1.0 + e]), t.predict(&[1.0 + 2.0 * e]));
            assert_eq!(t.predict(&[5.0]), 20.0);
        }
    }

    /// Targets that tie — all equal but one, or two levels in blocks — make
    /// candidates whose gains tie or nearly tie: each keeps the oracle's pick.
    #[test]
    fn tied_targets_keep_the_oracles_pick() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![f64::from(i), f64::from(59 - i)]).collect();
        let rows: Vec<usize> = (0..60).collect();
        for odd_one in [0, 17, 59] {
            for offset in [0.0, 1e9] {
                let mut y = vec![offset + 3e-5; 60];
                y[odd_one] = offset + 7e-5;
                for sub in [None, Some(1)] {
                    let params = TreeParams { feature_subsample: sub, ..Default::default() };
                    let what = format!("odd one {odd_one}, offset {offset}, subsample {sub:?}");
                    assert_same_tree(&x, &y, &rows, Task::Regression, params, &what);
                }
            }
        }
        let y: Vec<f64> = (0..60).map(|i| f64::from((i / 10) % 2)).collect();
        assert_same_tree(&x, &y, &rows, Task::Regression, TreeParams::default(), "blocks");
    }

    /// `(depth, feature)` of every split of `t`, in node order.
    fn splits(t: &DecisionTree) -> Vec<(usize, usize)> {
        fn walk(t: &DecisionTree, i: usize, depth: usize, out: &mut Vec<(usize, usize)>) {
            if let NodeKind::Split { feature, left, right, .. } = t.nodes[i] {
                out.push((depth, feature));
                walk(t, left, depth + 1, out);
                walk(t, right, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(t, 0, 0, &mut out);
        out
    }

    /// What tells a range carried down the tree from a fresh sort of the
    /// child's rows, and a stable partition from an unstable one: the feature
    /// the parent did *not* split on must come out in value order with ties
    /// in sample order, and the sample itself in sample order, because
    /// regression sums targets in that order.
    #[test]
    fn carried_ranges_are_the_fresh_sorts_of_the_children() {
        let all = TreeParams::default();

        // Feature 1 ties across distinct rows (8 each) whose targets differ in
        // every bit that a reordered sum would move; feature 0 takes the root.
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![f64::from(i), f64::from(i % 3)]).collect();
        let y: Vec<f64> = (0..24)
            .map(|i| 0.1 * f64::from(i * i % 7) + 1e-3 * f64::from(i) + f64::from(i / 12) * 5.0)
            .collect();
        let rows: Vec<usize> = (0..24).collect();
        let t = assert_same_tree(&x, &y, &rows, Task::Regression, all, "ties off the split");
        assert_eq!(splits(&t)[0], (0, 0));
        assert!(splits(&t).iter().any(|&(depth, f)| depth >= 1 && f == 1), "{:?}", splits(&t));
        let drawn: Vec<usize> = (0..40).map(|k| (k * 7 + k / 3) % 24).collect();
        assert_same_tree(&x, &y, &drawn, Task::Regression, all, "ties off the split, drawn");

        // Three rows tie on every feature, twice over, so each trio shares a
        // leaf whose mean sums it as drawn — a, b, c, a, b, c — on either
        // side of the root; summed in any other order a bit moves.
        let x: Vec<Vec<f64>> =
            [2.0, 2.0, 2.0, 9.0, 9.0, 9.0, 11.0].iter().map(|&v| vec![v, 20.0 - v]).collect();
        let y = vec![0.1, 0.2, 0.3, 40.1, 40.2, 40.3, 50.0];
        let rows = [0, 3, 1, 4, 2, 5, 6, 0, 3, 1, 4, 2, 5];
        let t = assert_same_tree(&x, &y, &rows, Task::Regression, all, "interleaved repeats");
        for trio in [0, 3] {
            let drawn = y[trio..trio + 3].iter().chain(&y[trio..trio + 3]);
            assert_ne!(drawn.clone().sum::<f64>(), drawn.clone().rev().sum::<f64>());
            assert_eq!(t.predict(&x[trio]).to_bits(), (drawn.sum::<f64>() / 6.0).to_bits());
        }

        // Feature 1 takes the root; feature 0 is first looked at three levels
        // down, in ranges partitioned three times since they were sorted.
        let x: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![f64::from(i % 8) * 0.37, f64::from(i / 8 % 2), f64::from(i / 16)])
            .collect();
        let y: Vec<f64> =
            x.iter().map(|r| 1e4 * r[1] + 1e2 * r[2] + r[0] + 1e-3 * r[0] * r[2]).collect();
        for rows in [(0..64).collect::<Vec<_>>(), (0..90).map(|k| (k * 37 + k / 5) % 64).collect()]
        {
            let t = assert_same_tree(&x, &y, &rows, Task::Regression, all, "feature 1 first");
            let s = splits(&t);
            assert_eq!(s[0], (0, 1));
            assert!(s.iter().all(|&(depth, f)| f != 0 || depth >= 3), "{s:?}");
            assert!(s.contains(&(3, 0)) && s.contains(&(4, 0)), "{s:?}");
        }
    }

    /// The midpoint cases again, two levels down: feature 0 sorts the rows
    /// into four groups, and feature 1 holds −∞ | +∞ (no threshold), a pair
    /// whose midpoint rounds up (both rows left, a third right), a pair whose
    /// midpoint rounds down, and an ordinary pair.
    #[test]
    fn midpoints_two_levels_down_split_as_the_comparison_does() {
        let e = f64::EPSILON;
        let within = [
            vec![f64::NEG_INFINITY, f64::INFINITY],
            vec![1.0 + e, 1.0 + 2.0 * e, 5.0],
            vec![1.0, 1.0 + e],
            vec![3.0, 4.0],
        ];
        let mut x = Vec::new();
        for (group, values) in within.iter().enumerate() {
            x.extend(values.iter().map(|&v| vec![group as f64, v]));
        }
        let y_reg: Vec<f64> = x.iter().enumerate().map(|(i, r)| 1e3 * r[0] + i as f64).collect();
        let y_class: Vec<f64> = (0..x.len()).map(|i| i as f64).collect();
        let rows: Vec<usize> = (0..x.len()).chain([2, 3, 0, 1, 5, 6]).collect();
        for (task, y) in
            [(Task::Regression, &y_reg), (Task::Classification { n_classes: 17 }, &y_class)]
        {
            let t = assert_same_tree(&x, y, &rows, task, TreeParams::default(), "depth 2");
            let s = splits(&t);
            assert!(s.iter().any(|&(depth, f)| depth >= 2 && f == 1), "{task:?}: {s:?}");
            // The rounded-up pair stays together, the rounded-down one parts,
            // and, once the groups are apart, −∞ and +∞ cannot be told apart.
            assert_eq!(t.predict(&x[2]), t.predict(&x[3]), "{task:?}");
            assert_ne!(t.predict(&x[3]), t.predict(&x[4]), "{task:?}");
            assert_ne!(t.predict(&x[5]), t.predict(&x[6]), "{task:?}");
            if task == Task::Regression {
                assert_eq!(s[..2], [(0, 0), (1, 0)], "the groups part first: {s:?}");
                assert_eq!(t.predict(&x[0]), t.predict(&x[1]));
            }
        }
    }

    /// Seventeen classes declared, as for the profiler's CPU target, and
    /// nodes that hold two or three of them: impurity summed over the classes
    /// present is impurity summed over all seventeen.
    #[test]
    fn gini_over_the_classes_present_is_gini_over_all() {
        let mut x: Vec<Vec<f64>> =
            (0..45).map(|i| vec![f64::from(i), f64::from(i * 7 % 5)]).collect();
        let mut y: Vec<f64> = (0..45)
            .map(|i| match i {
                0..=14 => 3.0,
                15..=29 => [9.0, 16.0][i as usize % 2],
                _ => [0.0, 16.0, 16.0][i as usize % 3],
            })
            .collect();
        // Two rows no feature tells apart: their leaf's vote ties, and of
        // tied classes the highest wins, as it does counting all seventeen.
        x.extend([vec![50.0, 0.0], vec![50.0, 0.0]]);
        y.extend([12.0, 5.0]);
        let task = Task::Classification { n_classes: 17 };
        let rows: Vec<usize> = (0..47).collect();
        let t = assert_same_tree(&x, &y, &rows, task, TreeParams::default(), "17 classes");
        assert!(t.size() > 7);
        assert_eq!(t.predict(&[50.0, 0.0]), 12.0);
        let drawn: Vec<usize> = (0..60).map(|k| (k * 11 + k / 4) % 47).collect();
        for subsample in [None, Some(1)] {
            let params = TreeParams { feature_subsample: subsample, ..Default::default() };
            assert_same_tree(&x, &y, &drawn, task, params, "17 classes, drawn");
        }
    }

    #[test]
    fn partition_keeps_both_sides_in_order() {
        let mut run: Vec<Pair> = [4, 1, 6, 3, 2, 5, 1, 4].iter().map(|&r| (0.5, r)).collect();
        let mut spill = vec![(9.9, 99)]; // stale scratch is discarded
        let n_left = partition(&mut run, &mut spill, |row| row % 2 == 0);
        assert_eq!(n_left, 4);
        assert_eq!(run.iter().map(|p| p.1).collect::<Vec<_>>(), [4, 6, 2, 4, 1, 3, 5, 1]);
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn memorizes_simple_classification() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            Task::Classification { n_classes: 2 },
            TreeParams::default(),
            &mut rng(),
        );
        for i in 0..20 {
            assert_eq!(t.predict(&[i as f64]), if i < 10 { 0.0 } else { 1.0 });
        }
    }

    #[test]
    fn fits_step_regression() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 5.0 } else { 11.0 }).collect();
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        assert!((t.predict(&[3.0]) - 5.0).abs() < 1e-9);
        assert!((t.predict(&[33.0]) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 1.0];
        let params = TreeParams { max_depth: 0, ..Default::default() };
        let t = DecisionTree::fit(&x, &y, Task::Regression, params, &mut rng());
        assert_eq!(t.size(), 1);
        assert!((t.predict(&[0.0]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_target_is_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        assert_eq!(t.size(), 1);
        assert_eq!(t.predict(&[100.0]), 7.0);
    }

    #[test]
    fn nonlinear_regression_beats_constant() {
        let x: Vec<Vec<f64>> = (1..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (1..100).map(|i| (i as f64).sqrt() * 3.0).collect();
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        let preds: Vec<f64> = x.iter().map(|r| t.predict(r)).collect();
        let r2 = crate::metrics::r2_score(&preds, &y);
        assert!(r2 > 0.95, "tree should fit sqrt well, r2={r2}");
    }

    #[test]
    fn multiclass_three_way() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| (i / 10) as f64).collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            Task::Classification { n_classes: 3 },
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(t.predict(&[5.0]), 0.0);
        assert_eq!(t.predict(&[15.0]), 1.0);
        assert_eq!(t.predict(&[25.0]), 2.0);
    }
}
