//! CART decision trees (classification and regression).
//!
//! The building block for the random forests Libra's profiler uses
//! (§4.3.1). Splits minimize Gini impurity (classification) or sum of
//! squared errors (regression); every midpoint between consecutive distinct
//! feature values is a candidate threshold, so the tree is the exact CART
//! tree.
//!
//! A tree sorts nothing. A fit ranks each leading feature (below) once
//! (`Ranks`): one stable sort of the dataset's rows gives every row the rank
//! of its value among the column's distinct values. `Layout::lay_out` then
//! lays a sample (a forest's bootstrap, repeats and all) out per leader as
//! the `(value, row)` pairs sorted by value, stably, so ties stand in sample
//! order: a counting sort by rank places one rank's pairs in sample order,
//! which is that stable sort exactly, in O(n + distinct values) instead of
//! O(n log n). A forest fitting several targets on one bootstrap
//! (`RandomForest::fit_many`) lays it out once and grows each target's tree
//! from a copy. These runs, and for regression the `(target, row)` pairs in
//! sample order (the *sample*), are a tree's buffers, and a node is the same
//! range `lo..hi` of every one of them. The grower reads no feature value
//! outside them. A classification tree keeps no sample: Gini impurity, the
//! purity check and the majority vote count labels, which does not depend
//! on their order, so it reads them through the rows of feature 0's run
//! (feature 0 always leads), and a pure node is a leaf holding its label.
//!
//! Splitting a node partitions each range in place, stably, through one
//! spill buffer: the children are `lo..mid` and `mid..hi`. The chosen
//! feature's range is divided already — the sweep put the left side's pairs
//! first — so its rows are marked in a per-tree mask (`mark`) and the other
//! leaders' ranges and the sample are partitioned by the mark, without a
//! branch on the side. A classification tree on one leader (every forest the
//! profiler fits: `[s, ln s]`) so marks and partitions nothing. Regression
//! scores a candidate by marking it and partitioning a copy of the sample
//! (`best_sse_split`); a split at the candidate it scored last takes that
//! mark and that copy instead of making both again. A stable partition of a
//! sorted run is sorted, with ties in the order the parent had them, which
//! is the child's sample order; so a child's range holds exactly what
//! collecting the child's rows and stable-sorting them would, and everything
//! that sums floats in row order or in `entered` order — leaf means, a side's
//! SSE, the running sums of the sweep — adds the same numbers in the same
//! order as a search that re-sorts every node.
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
//!
//! Order twins share a layout. A feature that on every row is finite, ties
//! and rises exactly where an earlier one does — `ln s` of `s` — and that,
//! like that one, has no adjacent values `a < b` whose midpoint `(a + b) / 2`
//! rounds up to `b`, reads that *leader*'s sorted run (`Ranks`). Checked on
//! the pairs adjacent over all rows, the midpoint holds for every pair a node
//! meets: for `a ≤ c < b` monotone rounding gives `(a + b) / 2 ≤ (c + b) / 2
//! < b`. So each boundary moves one value's rows in both features, and a
//! twin's candidates are its leader's partitions, scores and gains at its own
//! thresholds: only leaders are sorted and partitioned, and `grow` sweeps the
//! first feature of a group (`offer`'s strict `>` would keep it anyway) on
//! its leader's run; a twin picked gets its own midpoint (`threshold`). The
//! sort that ranks a leader also finds its twins, so a fit sorts each leader
//! once. A fit grows every tree in one `Scratch` and lays every sample out in
//! one `Layout`; a tree's one allocation is the copy of its nodes it keeps.
//!
//! A node's node-wide work is done once: a classification node's one tally
//! serves its purity check, search and leaf, and a regression node's
//! `Moments` come from its parent's slow evaluation of the chosen split.

use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;

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
}

/// What a regression node's split search reads of its targets, each a float
/// sum in sample order: the mean, and of the node-centred targets
/// `z = y − mean` their sum and sum of squares (the node's SSE), and the
/// largest `|y|`. A split's slow evaluation computes them for both sides,
/// which are its children's samples in their order, so a child inherits
/// them rather than summing again.
#[derive(Clone, Copy, Debug, Default)]
struct Moments {
    mean: f64,
    z_sum: f64,
    sse: f64,
    y_max: f64,
}

impl Moments {
    /// The moments of `ys`: the mean as `Iterator::sum` adds, then the rest.
    fn of(ys: &[Pair]) -> Self {
        Moments::about(ys, ys.iter().map(|p| p.0).sum::<f64>() / ys.len() as f64)
    }

    /// The moments of `ys` whose mean is `mean`: `z`, `z²` and `|y|` summed
    /// in order from zero.
    fn about(ys: &[Pair], mean: f64) -> Self {
        let mut m = Moments { mean, ..Moments::default() };
        for &(y, _) in ys {
            let z = y - mean;
            m.z_sum += z;
            m.sse += z * z;
            m.y_max = m.y_max.max(y.abs());
        }
        m
    }
}

/// The best split of a node so far: its gain, feature, threshold and left
/// side's size, and for regression the moments of its two sides.
#[derive(Clone, Copy, Debug)]
struct Choice {
    gain: f64,
    feature: usize,
    threshold: f64,
    n_left: usize,
    sides: [Moments; 2],
}

type Best = Option<Choice>;

/// A candidate split of the node at hand: `(score, feature, threshold, n_left)`.
type Scored = (f64, usize, f64, usize);

/// An element of a per-tree buffer: a float and the dataset row it belongs to.
pub(crate) type Pair = (f64, usize);

/// Keep `best` unless `gain` is strictly greater: of equal gains the first
/// enumerated wins.
fn offer(best: &mut Best, gain: f64, (_, feature, threshold, n_left): Scored, sides: [Moments; 2]) {
    if best.is_none_or(|b| gain > b.gain) {
        *best = Some(Choice { gain, feature, threshold, n_left, sides });
    }
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
/// side's size. The left side is `value <= thr`: at the boundary before
/// pair `k` it is the first `k` pairs, unless the midpoint of two adjacent
/// floats rounds up to the right one, whose rows are then on the left too
/// (and the next boundary may add none).
#[expect(
    clippy::float_cmp,
    reason = "a boundary lies between distinct values: equal means bit-equal"
)]
fn sweep(vals: &[Pair], mut visit: impl FnMut(f64, &[Pair], usize)) {
    let mut start = 0; // the left side is `vals[..start]`
    for (k, pair) in (1..).zip(vals.windows(2)) {
        let (prev, cur) = (pair[0].0, pair[1].0);
        if cur == prev {
            continue; // no boundary
        }
        let thr = (cur + prev) / 2.0;
        if thr.is_nan() {
            continue; // −∞ | +∞: no midpoint, and no row `<=` it
        }
        let mut end = k;
        if thr >= cur {
            // Rounded up to `cur`: its rows are on the left too.
            end += vals[k..].iter().take_while(|v| v.0 <= thr).count();
            if end == vals.len() {
                break; // no right side, at this or any later (never lower) threshold
            }
        }
        visit(thr, &vals[start..end], end);
        start = end;
    }
}

/// The features of a dataset ranked once for every tree a forest grows on
/// it: per feature its leader (see the module doc), and per leader every
/// row's rank among the column's distinct values.
pub(crate) struct Ranks {
    /// Per feature, the first feature it is an order twin of, or itself.
    leader: Vec<usize>,
    /// Per leader, per dataset row, how many distinct values of the column
    /// lie below the row's (values that compare equal tie); a twin's is empty.
    rank: Vec<Vec<usize>>,
}

impl Ranks {
    /// Rank every leading column of `x`: one stable sort of the rows per
    /// leader, which also decides which later features are its twins.
    #[expect(
        clippy::float_cmp,
        reason = "a twin ties where its leader ties, and a rank rises where a value does"
    )]
    pub(crate) fn new(x: &[Vec<f64>]) -> Self {
        let below = |a: f64, b: f64| (a + b) / 2.0 < b;
        let twins = |order: &[usize], g: usize, f: usize| {
            x.iter().all(|r| r[g].is_finite() && r[f].is_finite())
                && order.windows(2).all(|w| {
                    let (a, b, tie) = (&x[w[0]], &x[w[1]], x[w[0]][g] == x[w[1]][g]);
                    (tie && a[f] == b[f])
                        || (!tie && a[f] < b[f] && below(a[g], b[g]) && below(a[f], b[f]))
                })
        };
        let mut ranks = Ranks { leader: Vec::new(), rank: Vec::new() };
        let mut orders: Vec<Vec<usize>> = Vec::new();
        for f in 0..x[0].len() {
            let first = (0..f).find(|&g| ranks.leader[g] == g && twins(&orders[g], g, f));
            ranks.leader.push(first.unwrap_or(f));
            let (mut order, mut rank) = (Vec::new(), Vec::new());
            if first.is_none() {
                order = (0..x.len()).collect();
                order.sort_by(|&i, &j| x[i][f].partial_cmp(&x[j][f]).unwrap_or(Ordering::Equal));
                rank = vec![0; x.len()];
                for w in order.windows(2) {
                    rank[w[1]] = rank[w[0]] + usize::from(x[w[0]][f] != x[w[1]][f]);
                }
            }
            orders.push(order);
            ranks.rank.push(rank);
        }
        ranks
    }
}

/// A sample (a forest's bootstrap, repeats and all, in draw order) laid out
/// once for every tree a forest grows on it; one layout serves each of a
/// forest's samples in turn.
pub(crate) struct Layout<'a> {
    x: &'a [Vec<f64>],
    ranks: &'a Ranks,
    /// The sample's rows, in draw order.
    rows: Vec<usize>,
    /// Per leader, the sample's `(value, row)` pairs sorted by value, stably,
    /// so ties stand in sample order; a twin's run is empty.
    sorted: Vec<Vec<Pair>>,
    /// Per rank of the leader being laid out, where its next pair goes.
    next: Vec<usize>,
}

impl<'a> Layout<'a> {
    /// An empty layout for samples of `x`, ranked as `ranks`.
    pub(crate) fn of(x: &'a [Vec<f64>], ranks: &'a Ranks) -> Self {
        let sorted = vec![Vec::new(); ranks.leader.len()];
        Layout { x, ranks, rows: Vec::new(), sorted, next: Vec::new() }
    }

    /// Lay out the sample `rows`: per leader, a counting sort of the sample
    /// by rank, which places the pairs of one rank in sample order, as a
    /// stable sort by value does.
    pub(crate) fn lay_out(&mut self, rows: impl IntoIterator<Item = usize>) {
        self.rows.clear();
        self.rows.extend(rows);
        let Layout { x, ranks, rows, sorted, next } = self;
        for (f, run) in sorted.iter_mut().enumerate().filter(|&(f, _)| ranks.leader[f] == f) {
            let rank = &ranks.rank[f];
            next.clear();
            next.resize(x.len() + 1, 0); // a rank is below the row count
            for &i in rows.iter() {
                next[rank[i] + 1] += 1;
            }
            let mut below = 0;
            for slot in next.iter_mut() {
                below += *slot;
                *slot = below;
            }
            run.resize(rows.len(), (0.0, 0));
            for &i in rows.iter() {
                let slot = &mut next[rank[i]];
                run[*slot] = (x[i][f], i);
                *slot += 1;
            }
        }
    }
}

/// The buffers a tree's growth needs, one set per fit; `fit_sorted` resets
/// what a tree reads.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The nodes of the tree growing; the tree keeps a copy of their final
    /// length, so a kept tree holds no spare capacity.
    nodes: Vec<NodeKind>,
    /// Regression only: `(target, row)` of the sample; a node's range is in
    /// sample order.
    sample: Vec<Pair>,
    /// This tree's copy of its layout's runs.
    sorted: Vec<Vec<Pair>>,
    /// Right-hand side of the range `partition` is dividing.
    spill: Vec<Pair>,
    /// A candidate's node sample, divided into its two sides (`best_sse_split`).
    sides: Vec<Pair>,
    /// Per dataset row, whether it is on the left of the candidate `mark`ed
    /// last (a row is read only after `mark` wrote it).
    goes_left: Vec<bool>,
    /// The candidate `(feature, n_left)` of the regression node at hand that
    /// `goes_left` and `sides` hold, if `best_sse_split` evaluated it last.
    marked: Option<(usize, usize)>,
    /// The features the node at hand may split on.
    feats: Vec<usize>,
    /// Candidates of the node at hand, in enumeration order.
    scored: Vec<Scored>,
    /// Classification only: per dataset row, its class.
    class: Vec<usize>,
    /// Class counts of the node at hand (`tally`; all zero between nodes), of
    /// a candidate's left side, and the classes the node holds, ascending.
    total: Vec<usize>,
    left: Vec<usize>,
    present: Vec<usize>,
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

/// One tree's growth over a sample laid out once: every node owns the same
/// range `lo..hi` of the scratch's sample and runs.
struct Grower<'a> {
    layout: &'a Layout<'a>,
    y: &'a [f64],
    task: Task,
    params: TreeParams,
    s: &'a mut Scratch,
}

impl<'a> Grower<'a> {
    /// A grower of a tree for targets `y` on the sample `layout` lays out,
    /// with `s` reset to what the tree reads.
    fn new(
        layout: &'a Layout<'a>,
        y: &'a [f64],
        task: Task,
        params: TreeParams,
        s: &'a mut Scratch,
    ) -> Self {
        s.nodes.clear();
        s.sample.clear();
        s.class.clear();
        match task {
            Task::Regression => s.sample.extend(layout.rows.iter().map(|&i| (y[i], i))),
            Task::Classification { n_classes } => {
                s.class.extend(y.iter().map(|&v| v as usize));
                s.total.resize(n_classes, 0); // all zero between trees, as between nodes
                s.left.resize(n_classes, 0);
            }
        }
        s.sorted.clone_from(&layout.sorted);
        s.marked = None;
        s.goes_left.resize(y.len(), false);
        Grower { layout, y, task, params, s }
    }

    /// Count the classes of node `lo..hi` into `total` and list them in
    /// `present`, reading the labels through the rows of feature 0's run
    /// (feature 0 always leads): a count does not depend on order. One tally
    /// serves the node's purity check, split search and leaf.
    fn tally(&mut self, lo: usize, hi: usize) {
        let Scratch { sorted, class, total, present, .. } = &mut *self.s;
        for &(_, row) in &sorted[0][lo..hi] {
            let c = class[row];
            if total[c] == 0 {
                present.push(c);
            }
            total[c] += 1;
        }
        present.sort_unstable();
    }

    fn clear_tally(&mut self) {
        for c in self.s.present.drain(..) {
            self.s.total[c] = 0;
        }
    }

    /// Record which rows go left at candidate `(f, n_left)` of node `lo..hi`:
    /// the first `n_left` pairs of the range of `f`'s leader, which the sweep
    /// put there.
    fn mark(&mut self, f: usize, lo: usize, hi: usize, n_left: usize) {
        let (left, right) = self.s.sorted[self.layout.ranks.leader[f]][lo..hi].split_at(n_left);
        for &(_, row) in left {
            self.s.goes_left[row] = true;
        }
        for &(_, row) in right {
            self.s.goes_left[row] = false;
        }
    }

    /// Best Gini split of node `lo..hi`, tallied, over `feats`: the split,
    /// and the gain, that `parent − gini_n(left) − gini_n(right)` at every
    /// candidate would give, each side's impurity over the classes the node
    /// holds.
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
    /// same strict `>`, their left counts rebuilt by walking the range of each
    /// feature's leader once more. The sweep keeps the top score so far and
    /// drops a candidate below its band at once: the top only rises, so the
    /// kept ones hold every candidate of the final band.
    fn best_gini_split(&mut self, lo: usize, hi: usize) -> Best {
        let n = hi - lo;
        let (layout, s) = (self.layout, &mut *self.s);
        let parent = gini_n(s.present.iter().map(|&c| s.total[c]), n);
        let sq_total: usize = s.present.iter().map(|&c| s.total[c] * s.total[c]).sum();
        let tol = (8.0 * s.present.len() as f64 + 32.0) * f64::EPSILON * n as f64;
        s.scored.clear();
        let mut top = f64::NEG_INFINITY;
        for &f in &s.feats {
            for &c in &s.present {
                s.left[c] = 0;
            }
            let (mut sq_left, mut sq_right) = (0usize, sq_total);
            let run = &s.sorted[layout.ranks.leader[f]][lo..hi];
            sweep(run, |thr, entered, n_left| {
                for &(_, i) in entered {
                    let c = s.class[i];
                    let (cl, cr) = (s.left[c], s.total[c] - s.left[c]);
                    sq_left += 2 * cl + 1;
                    sq_right -= 2 * cr - 1;
                    s.left[c] = cl + 1;
                }
                let score = sq_left as f64 / n_left as f64 + sq_right as f64 / (n - n_left) as f64;
                top = top.max(score);
                if score < top - 2.0 * tol {
                    return; // below the band of the top so far, so below the band
                }
                s.scored.push((score, f, thr, n_left));
            });
        }
        let line = top - 2.0 * tol;

        let mut best = None;
        let mut at = (usize::MAX, 0); // `left` counts the first `at.1` pairs of feature `at.0`
        for &cand @ (score, f, _, n_left) in &s.scored {
            if score < line {
                continue;
            }
            if at.0 != f {
                for &c in &s.present {
                    s.left[c] = 0;
                }
                at = (f, 0);
            }
            let run = &s.sorted[layout.ranks.leader[f]][lo..hi];
            for &(_, i) in &run[at.1..n_left] {
                s.left[s.class[i]] += 1;
            }
            at.1 = n_left;
            let left = s.present.iter().map(|&c| s.left[c]);
            let right = s.present.iter().map(|&c| s.total[c] - s.left[c]);
            let gain = parent - gini_n(left, n_left) - gini_n(right, n - n_left);
            offer(&mut best, gain, cand, [Moments::default(); 2]);
        }
        best
    }

    /// Best SSE split of node `lo..hi`, whose moments are `m`, over `feats`:
    /// the split, and the gain, that evaluating `parent − sse(left) −
    /// sse(right)` at every candidate would give. `parent` is the node's SSE,
    /// the sum of its squared node-centred targets.
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
    /// and more to spare, which also absorbs the few ulps by which `n·√n`
    /// (no libm call) misses `n^1.5`. Evaluating just those candidates the
    /// slow way, in enumeration order under the same strict `>`, returns `w`
    /// with `Ĝ_w` — the first of the maxima is the first in any subset that
    /// holds it. As in `best_gini_split`, the sweep drops a candidate below
    /// the band of the top so far. A score not provably below the line (NaN,
    /// or a non-finite `tol`) is evaluated; its sides are gathered in sample order through
    /// `mark`, their moments are what the chosen split's children
    /// inherit, and the last one evaluated stays in `sides` for `split`.
    fn best_sse_split(&mut self, lo: usize, hi: usize, m: Moments) -> Best {
        let n = hi - lo;
        let (layout, y, s) = (self.layout, self.y, &mut *self.s);
        let Moments { mean: centre, z_sum, sse: parent, y_max } = m;
        let nf = n as f64;
        let tol = 64.0 * f64::EPSILON * (nf * nf.sqrt()) * parent
            + 4.0 * (f64::EPSILON * y_max).powi(2) * nf.powi(3);

        s.scored.clear();
        let mut top = f64::NEG_INFINITY;
        for &f in &s.feats {
            let mut sl = 0.0f64;
            let run = &s.sorted[layout.ranks.leader[f]][lo..hi];
            sweep(run, |thr, entered, n_left| {
                for &(_, i) in entered {
                    sl += y[i] - centre;
                }
                let sr = z_sum - sl;
                let (nl, nr) = (n_left as f64, (n - n_left) as f64);
                let score = sl * (sl / nl) + sr * (sr / nr);
                top = top.max(score);
                if score < top - 2.0 * tol {
                    return; // below the band of the top so far, so below the band
                }
                s.scored.push((score, f, thr, n_left));
            });
        }
        let line = top - 2.0 * tol;

        let mut best = None;
        s.marked = None;
        for k in 0..self.s.scored.len() {
            let cand @ (score, f, _, n_left) = self.s.scored[k];
            if score < line {
                continue;
            }
            self.mark(f, lo, hi, n_left);
            let s = &mut *self.s;
            s.sides.clear();
            s.sides.extend_from_slice(&s.sample[lo..hi]);
            let goes_left = &s.goes_left;
            partition(&mut s.sides, &mut s.spill, |row| goes_left[row]);
            s.marked = Some((f, n_left));
            let (left, right) = s.sides.split_at(n_left);
            let sides = [Moments::of(left), Moments::of(right)];
            offer(&mut best, parent - sides[0].sse - sides[1].sse, cand, sides);
        }
        best
    }

    /// The class most rows of the tallied node hold; of equal counts the
    /// largest.
    fn majority(&self) -> f64 {
        let (present, total) = (&self.s.present, &self.s.total);
        present.iter().max_by_key(|&&c| total[c]).map_or(0.0, |&c| c as f64)
    }

    /// The threshold of split `b` of node `lo..hi`: the sweep's, which is
    /// the leader's, or a twin's own midpoint of the values of the two rows
    /// its leader's run puts either side.
    fn threshold(&self, b: Choice, lo: usize, hi: usize) -> f64 {
        let leader = self.layout.ranks.leader[b.feature];
        let (left, right) = self.s.sorted[leader][lo..hi].split_at(b.n_left);
        match (leader == b.feature, left.last(), right.first()) {
            (false, Some(&(_, prev)), Some(&(_, cur))) => {
                let x = |row: usize| self.layout.x[row][b.feature];
                (x(cur) + x(prev)) / 2.0
            }
            _ => b.threshold,
        }
    }

    /// Divide node `lo..hi` at its candidate `(f, n_left)` and return where:
    /// the range of `f`'s leader is divided already (its first `n_left` pairs
    /// are the left side), and every other leader's range and, in regression,
    /// the sample's are partitioned stably by the rows `mark` puts left, so
    /// `lo..mid` and `mid..hi` are the children's, in the orders the buffers
    /// promise. A classification tree with one leader partitions nothing. A
    /// regression split at the candidate `best_sse_split` divided last takes
    /// that candidate's mark and divided sample.
    fn split(&mut self, lo: usize, hi: usize, f: usize, n_left: usize) -> usize {
        let (leader, chosen) = (&self.layout.ranks.leader, self.layout.ranks.leader[f]);
        let regression = self.task == Task::Regression;
        let kept = regression && self.s.marked == Some((f, n_left));
        let mut others = (0..leader.len()).filter(|&g| leader[g] == g && g != chosen).peekable();
        if !regression && others.peek().is_none() {
            return lo + n_left;
        }
        if !kept {
            self.mark(f, lo, hi, n_left);
        }
        let Scratch { sample, sorted, spill, sides, goes_left, .. } = &mut *self.s;
        for g in others {
            let moved = partition(&mut sorted[g][lo..hi], spill, |row| goes_left[row]);
            debug_assert_eq!(moved, n_left);
        }
        if kept {
            sample[lo..hi].copy_from_slice(sides);
        } else if regression {
            let moved = partition(&mut sample[lo..hi], spill, |row| goes_left[row]);
            debug_assert_eq!(moved, n_left);
        }
        lo + n_left
    }

    /// The features node `lo..hi` may split on: a subsample drawn from `rng`,
    /// each group of order twins by its first feature.
    fn pick_features(&mut self, rng: &mut impl Rng) {
        let (leader, feats) = (&self.layout.ranks.leader, &mut self.s.feats);
        let d = leader.len();
        feats.clear();
        feats.extend(0..d);
        if let Some(k) = self.params.feature_subsample {
            feats.shuffle(rng);
            feats.truncate(k.clamp(1, d));
        }
        // A twin's candidates repeat those of its group's first feature.
        for k in (1..feats.len()).rev() {
            if feats[..k].iter().any(|&g| leader[g] == leader[feats[k]]) {
                feats.remove(k);
            }
        }
    }

    /// Grow node `lo..hi` at `depth` and return its id. In regression `m`
    /// holds the node's moments, which its parent's split search computed;
    /// classification reads none.
    #[expect(
        clippy::float_cmp,
        reason = "a node is pure when every target is the same value, bit for bit"
    )]
    fn grow(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        m: Moments,
        rng: &mut impl Rng,
    ) -> usize {
        let node_id = self.s.nodes.len();
        self.s.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

        let regression = self.task == Task::Regression;
        let pure = if regression {
            let ys = &self.s.sample[lo..hi];
            ys.iter().all(|p| p.0 == ys[0].0)
        } else {
            self.tally(lo, hi);
            self.s.present.len() == 1
        };
        let stop =
            pure || depth >= self.params.max_depth || hi - lo < self.params.min_samples_split;
        let best = match (stop, regression) {
            (true, _) => None,
            (false, true) => {
                self.pick_features(rng);
                self.best_sse_split(lo, hi, m)
            }
            (false, false) => {
                self.pick_features(rng);
                self.best_gini_split(lo, hi)
            }
        };
        let leaf = if regression { m.mean } else { self.majority() };
        self.clear_tally();

        self.s.nodes[node_id] = match best {
            Some(b) if b.gain > 1e-12 => {
                let threshold = self.threshold(b, lo, hi);
                let mid = self.split(lo, hi, b.feature, b.n_left);
                let left = self.grow(lo, mid, depth + 1, b.sides[0], rng);
                let right = self.grow(mid, hi, depth + 1, b.sides[1], rng);
                NodeKind::Split { feature: b.feature, threshold, left, right }
            }
            _ => NodeKind::Leaf { value: leaf },
        };
        node_id
    }
}

impl DecisionTree {
    /// Fit a tree for targets `y` on the sample `layout` lays out, growing
    /// in the scratch `s`: the grower reads features only through the layout,
    /// so a forest lays out one bootstrap for every target it fits on those
    /// rows, and a fit's trees reuse one scratch.
    pub(crate) fn fit_sorted(
        layout: &Layout<'_>,
        y: &[f64],
        task: Task,
        params: TreeParams,
        rng: &mut impl Rng,
        s: &mut Scratch,
    ) -> Self {
        let mut grower = Grower::new(layout, y, task, params, s);
        let root = match task {
            Task::Regression => Moments::of(&grower.s.sample),
            Task::Classification { .. } => Moments::default(),
        };
        grower.grow(0, layout.rows.len(), 0, root, rng);
        DecisionTree { nodes: grower.s.nodes.to_vec() }
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

    /// Per feature, its leader.
    fn leaders(x: &[Vec<f64>]) -> Vec<usize> {
        Ranks::new(x).leader
    }

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
            let ranks = Ranks::new(x);
            let mut layout = Layout::of(x, &ranks);
            layout.lay_out(rows.iter().copied());
            Self::fit_sorted(&layout, y, task, params, rng, &mut Scratch::default())
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
            let mut tree = DecisionTree { nodes: Vec::new() };
            let idx: Vec<usize> = (0..x.len()).collect();
            tree.grow_oracle(x, y, &idx, 0, task, params, rng);
            tree
        }

        fn leaf_value_oracle(task: Task, y: &[f64], idx: &[usize]) -> f64 {
            match task {
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

        fn impurity_oracle(task: Task, y: &[f64], idx: &[usize]) -> f64 {
            match task {
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

        #[expect(
            clippy::too_many_arguments,
            reason = "the oracle recursion carries the whole fit, as the tree keeps no task"
        )]
        fn grow_oracle(
            &mut self,
            x: &[Vec<f64>],
            y: &[f64],
            idx: &[usize],
            depth: usize,
            task: Task,
            params: TreeParams,
            rng: &mut impl Rng,
        ) -> usize {
            let node_id = self.nodes.len();
            self.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

            let pure = idx.iter().all(|&i| y[i] == y[idx[0]]);
            if depth >= params.max_depth || idx.len() < params.min_samples_split || pure {
                self.nodes[node_id] =
                    NodeKind::Leaf { value: Self::leaf_value_oracle(task, y, idx) };
                return node_id;
            }

            let d = x[0].len();
            let mut feats: Vec<usize> = (0..d).collect();
            if let Some(k) = params.feature_subsample {
                feats.shuffle(rng);
                feats.truncate(k.clamp(1, d));
            }

            let parent = Self::impurity_oracle(task, y, idx);
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
                    let gain = parent
                        - Self::impurity_oracle(task, y, &l)
                        - Self::impurity_oracle(task, y, &r);
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, f, thr));
                    }
                }
            }

            match best {
                Some((gain, f, thr)) if gain > 1e-12 => {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        idx.iter().partition(|&&i| x[i][f] <= thr);
                    let left = self.grow_oracle(x, y, &l, depth + 1, task, params, rng);
                    let right = self.grow_oracle(x, y, &r, depth + 1, task, params, rng);
                    self.nodes[node_id] =
                        NodeKind::Split { feature: f, threshold: thr, left, right };
                }
                _ => {
                    self.nodes[node_id] =
                        NodeKind::Leaf { value: Self::leaf_value_oracle(task, y, idx) };
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
    /// (ties abound), feature 0 sometimes on adjacent floats above 1 (whose
    /// midpoints round either way), feature 1 sometimes a monotone map of
    /// feature 0 — affine, decreasing, or an increasing non-affine one, which
    /// `leaders` makes an order twin when the midpoints allow — both tasks,
    /// with and without feature subsampling, regression targets on 2–40
    /// levels or continuous, offset by 10⁰…10¹³ over spreads of 10⁰…10⁻⁷. The
    /// oracle knows no twins, so it referees the shared layout.
    #[test]
    fn sweep_grows_the_oracles_trees_bit_for_bit() {
        let maps: [fn(f64) -> f64; 5] =
            [|v| v * 3.0 + 1.0, |v| -v, |v| (v + 1.0).ln(), |v| v * v * v, f64::sqrt];
        let mut twinned = 0;
        for case in 0..2400u64 {
            let mut g = ChaCha8Rng::seed_from_u64(0x5eed_0000 + case);
            let n = g.gen_range(2..=160usize);
            let d = g.gen_range(1..=3usize);
            let levels = g.gen_range(2..=40u32);
            let twin = g.gen_range(0..=maps.len()); // `maps.len()`: no twin column
            let adjacent = g.gen_bool(0.2);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut row: Vec<f64> =
                        (0..d).map(|_| f64::from(g.gen_range(0..levels)) * 0.37).collect();
                    if adjacent {
                        row[0] = 1.0 + (row[0] / 0.37).round() * f64::EPSILON;
                    }
                    if d > 1 && twin < maps.len() {
                        row[1] = maps[twin](row[0]);
                    }
                    row
                })
                .collect();
            twinned += usize::from(leaders(&x).iter().enumerate().any(|(f, &l)| l != f));
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
        assert!(twinned >= 700, "{twinned} of 2,400 cases share a layout");
    }

    /// `leaders` pairs a feature with an earlier one only when both are
    /// finite, tie together, rise together and split every adjacent pair
    /// below its right value.
    #[test]
    fn leaders_are_exact_order_twins() {
        let e = f64::EPSILON;
        let sizes = [7.0, 1.0, 300.0, 7.0, 42.0, 1.0, 5.0e6, 2.0];
        let with = |map: fn(f64) -> f64| -> Vec<Vec<f64>> {
            sizes.iter().map(|&s| vec![s, map(s)]).collect()
        };
        assert_eq!(leaders(&with(f64::ln)), [0, 0], "[s, ln s]");
        assert_eq!(leaders(&with(|v| 3.0 * v + 1.0)), [0, 0], "[x, 3x + 1]");
        assert_eq!(leaders(&with(|v| -v)), [0, 1], "[x, −x]");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for col in 0..2 {
                let mut x = with(f64::ln);
                x[2][col] = bad;
                assert_eq!(leaders(&x), [0, 1], "{bad} in column {col}");
            }
        }
        // Column 1 parts rows 0 and 1, which column 0 ties; then the reverse.
        assert_eq!(leaders(&[vec![1.0, 1.0], vec![1.0, 2.0], vec![2.0, 3.0]]), [0, 1]);
        assert_eq!(leaders(&[vec![1.0, 1.0], vec![2.0, 1.0], vec![3.0, 2.0]]), [0, 1]);
        // The midpoint of 1 + ε and 1 + 2ε rounds up to 1 + 2ε, in either column.
        let adjacent = [1.0 + e, 1.0 + 2.0 * e, 5.0];
        let x: Vec<Vec<f64>> =
            adjacent.iter().zip([0.0, 1.0, 2.0]).map(|(&a, b)| vec![a, b]).collect();
        assert_eq!(leaders(&x), [0, 1]);
        let x: Vec<Vec<f64>> = x.iter().map(|r| vec![r[1], r[0]]).collect();
        assert_eq!(leaders(&x), [0, 1]);
        // A third column leads with the first column's group, past a non-twin.
        let x: Vec<Vec<f64>> = sizes.iter().map(|&s| vec![s, -s, s.sqrt(), -2.0 * s]).collect();
        assert_eq!(leaders(&x), [0, 1, 0, 1]);
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

    /// The layout a comparison sort gives, as `Layout` had it before it laid
    /// samples out by rank: per leader, the sample's `(value, row)` pairs
    /// sorted by value, stably; a twin's run empty.
    fn sorted_by_comparison(x: &[Vec<f64>], leader: &[usize], rows: &[usize]) -> Vec<Vec<Pair>> {
        let sorted_run = |f: usize| {
            let mut run: Vec<Pair> = rows.iter().map(|&i| (x[i][f], i)).collect();
            run.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            run
        };
        let leads = leader.iter().enumerate();
        leads.map(|(f, &g)| if g == f { sorted_run(f) } else { Vec::new() }).collect()
    }

    /// The counting sort by rank lays every sample out as the stable
    /// comparison sort does, bit for bit: 400 random bootstraps (rows drawn
    /// with replacement, some far more often than others) of 1–60 rows on
    /// 1–4 features whose values come from a few levels (ties), include
    /// `-0.0` beside `0.0` (equal, so tied, yet not the same bits) and ±∞,
    /// and sometimes an order twin of feature 0. One layout serves all of a
    /// case's samples in turn, as in a forest.
    #[test]
    fn counting_sort_lays_out_what_the_stable_sort_does() {
        let levels = [f64::NEG_INFINITY, -3.5, -0.0, 0.0, 0.25, 1.0, 7.0, f64::INFINITY];
        let mut twinned = 0;
        for case in 0..100u64 {
            let mut g = ChaCha8Rng::seed_from_u64(0x1a70_0000 + case);
            let n = g.gen_range(1..=60usize);
            let d = g.gen_range(1..=4usize);
            let spread = g.gen_range(1..=levels.len());
            let twin = d > 1 && g.gen_bool(0.4);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut row: Vec<f64> =
                        (0..d).map(|_| levels[g.gen_range(0..spread)]).collect();
                    if twin {
                        row[0] = f64::from(g.gen_range(1..=9u32));
                        row[d - 1] = row[0].ln();
                    }
                    row
                })
                .collect();
            let ranks = Ranks::new(&x);
            twinned += usize::from(ranks.leader.iter().enumerate().any(|(f, &l)| l != f));
            let mut layout = Layout::of(&x, &ranks);
            for _ in 0..4 {
                let hot = g.gen_range(0..n);
                let rows: Vec<usize> =
                    (0..n).map(|_| if g.gen_bool(0.3) { hot } else { g.gen_range(0..n) }).collect();
                layout.lay_out(rows.iter().copied());
                let want = sorted_by_comparison(&x, &ranks.leader, &rows);
                let bits = |runs: &[Vec<Pair>]| -> Vec<Vec<(u64, usize)>> {
                    runs.iter()
                        .map(|r| r.iter().map(|&(v, i)| (v.to_bits(), i)).collect())
                        .collect()
                };
                assert_eq!(layout.rows, rows, "case {case}");
                assert_eq!(bits(&layout.sorted), bits(&want), "case {case}: {x:?} {rows:?}");
            }
        }
        assert!(twinned >= 20, "{twinned} of 100 cases lay out a twin");
    }

    /// A regression node whose winner is not the candidate `best_sse_split`
    /// divided last: rows `0, 3, 3, 3, 0` on `0..5` score and gain exactly
    /// alike split after the first row and after the fourth, both in the
    /// band; the first enumerated wins, the last is what `goes_left` and
    /// `sides` hold, so `split` marks and partitions again. The tree, with a
    /// second, independent feature whose run that mark divides, is the
    /// oracle's.
    #[test]
    fn a_split_at_an_earlier_candidate_marks_and_partitions_again() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![f64::from(i), f64::from(i * 3 % 5)]).collect();
        let y = [0.0, 3.0, 3.0, 3.0, 0.0];
        let ranks = Ranks::new(&x);
        assert_eq!(ranks.leader, [0, 1]);
        let mut layout = Layout::of(&x, &ranks);
        layout.lay_out(0..5);
        let mut s = Scratch::default();
        let mut grower = Grower::new(&layout, &y, Task::Regression, TreeParams::default(), &mut s);
        grower.s.feats.extend([0]);
        let root = Moments::of(&grower.s.sample);
        let best = grower.best_sse_split(0, 5, root).map(|b| (b.feature, b.n_left));
        assert_eq!(best, Some((0, 1)));
        assert_eq!(grower.s.marked, Some((0, 4)));

        let rows: Vec<usize> = (0..5).collect();
        let params = TreeParams { feature_subsample: Some(1), ..TreeParams::default() };
        for params in [TreeParams::default(), params] {
            let t = assert_same_tree(&x, &y, &rows, Task::Regression, params, "earlier winner");
            assert!(t.size() > 3);
        }
        let drawn = [4, 0, 1, 1, 3, 2, 0, 4, 3];
        assert_same_tree(&x, &y, &drawn, Task::Regression, TreeParams::default(), "drawn");
    }

    /// A classification tree on two independent leaders, `[i, i % 7]` as in
    /// the forest's step data: a split on either partitions the other's run,
    /// which the splits below read. The trees are the oracle's.
    #[test]
    fn a_classification_split_partitions_the_other_leaders_run() {
        let x: Vec<Vec<f64>> = (0..120).map(|i| vec![f64::from(i), f64::from(i % 7)]).collect();
        assert_eq!(leaders(&x), [0, 1]);
        // Four steps of `i`, and inside them the class moves with `i % 7`.
        let y: Vec<f64> = (0..120).map(|i| f64::from(i / 30 + u32::from(i % 7 < 2))).collect();
        let task = Task::Classification { n_classes: 5 };
        let rows: Vec<usize> = (0..120).collect();
        let drawn: Vec<usize> = (0..120).map(|k| (k * 53 + k / 7) % 120).collect();
        for (rows, subsample) in [(&rows, None), (&drawn, None), (&drawn, Some(1))] {
            let params = TreeParams { feature_subsample: subsample, ..TreeParams::default() };
            let what = format!("{} rows, subsample {subsample:?}", rows.len());
            let t = assert_same_tree(&x, &y, rows, task, params, &what);
            let s = splits(&t);
            let (on_0, on_1) = (s.iter().any(|&(_, f)| f == 0), s.iter().any(|&(_, f)| f == 1));
            assert!(on_0 && on_1, "{what}: {s:?}");
            assert!(s.iter().any(|&(depth, _)| depth >= 2), "{what}: {s:?}");
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
