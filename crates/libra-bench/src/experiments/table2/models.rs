//! Table 2's three baseline families, which only this experiment fits:
//! one-vs-rest logistic regression and linear SVM (the "LR" and "SVM"
//! classifiers), ridge linear regression (their duration regressor) and a
//! one-hidden-layer MLP ("NN"). Libra's profiler runs only `libra-ml`'s
//! forests and histograms; these exist to show that RF wins (§8.6).
//!
//! Every model is built by its fit, on features it standardizes itself
//! (input sizes span orders of magnitude), and is deterministic: the SVM
//! shuffles and the MLP initialises from fixed seeds. The study sets no
//! hyperparameter but the regressor's ridge, so the rest are constants.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// Logistic regression: gradient-descent step size and epochs.
const LOGISTIC_LR: f64 = 0.5;
const LOGISTIC_EPOCHS: usize = 200;
/// Linear SVM: regularization strength λ, epochs and shuffle seed.
const SVM_LAMBDA: f64 = 1e-3;
const SVM_EPOCHS: usize = 60;
const SVM_SEED: u64 = 0x5b1;
/// MLP: hidden units, gradient-descent step size, epochs and init seed.
const HIDDEN: usize = 12;
const MLP_LR: f64 = 0.05;
const MLP_EPOCHS: usize = 400;
const MLP_SEED: u64 = 0x1111;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The index of the largest score. The last of several equal maxima wins,
/// and a NaN compares equal to everything.
fn argmax(scores: impl Iterator<Item = f64>) -> usize {
    scores
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
        .map_or(0, |m| m.0)
}

/// Per-feature `(x − mean) / std` from the training rows; a constant
/// feature is centred but not scaled.
struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// The scaler fitted on `x`, and `x` standardized by it.
    fn standardize(x: &[Vec<f64>]) -> (Self, Vec<Vec<f64>>) {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let n = x.len() as f64;
        let mut mean = vec![0.0; x[0].len()];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; mean.len()];
        for row in x {
            for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m).powi(2);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt()).map(|s| if s < 1e-12 { 1.0 } else { s });
        let scaler = Scaler { mean, std: std.collect() };
        let xs = x.iter().map(|row| scaler.transform(row)).collect();
        (scaler, xs)
    }

    fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter().zip(self.mean.iter().zip(&self.std)).map(|(v, (m, s))| (v - m) / s).collect()
    }
}

/// `w · x + b`: one class's scorer, a regression line or one unit of a layer.
#[derive(Clone)]
struct Affine {
    w: Vec<f64>,
    b: f64,
}

impl Affine {
    fn zeros(d: usize) -> Self {
        Affine { w: vec![0.0; d], b: 0.0 }
    }

    fn at(&self, x: &[f64]) -> f64 {
        dot(&self.w, x) + self.b
    }

    /// Add `k · (x, 1)`: one row's share of a gradient, or an SVM step.
    fn add(&mut self, k: f64, x: &[f64]) {
        for (w, v) in self.w.iter_mut().zip(x) {
            *w += k * v;
        }
        self.b += k;
    }

    /// One gradient-descent step down the mean `g / n` of a summed gradient.
    fn descend(&mut self, g: &Affine, lr: f64, n: f64) {
        for (w, gw) in self.w.iter_mut().zip(&g.w) {
            *w -= lr * gw / n;
        }
        self.b -= lr * g.b / n;
    }
}

/// One scorer per class over standardized features; predicts the class
/// whose scorer is highest. Table 2's "LR" and "SVM" classifiers.
pub struct OneVsRest {
    scaler: Scaler,
    classes: Vec<Affine>,
}

impl OneVsRest {
    /// Logistic regression on labels `0..n_classes`: each class's scorer by
    /// full-batch gradient descent on the log loss.
    pub fn logistic(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        Self::fit(x, y, n_classes, |xs, is_class| {
            let n = xs.len() as f64;
            let mut a = Affine::zeros(xs[0].len());
            for _ in 0..LOGISTIC_EPOCHS {
                let mut g = Affine::zeros(a.w.len());
                for (row, &t) in xs.iter().zip(is_class) {
                    let p = 1.0 / (1.0 + (-a.at(row)).exp());
                    g.add(p - if t { 1.0 } else { 0.0 }, row);
                }
                a.descend(&g, LOGISTIC_LR, n);
            }
            a
        })
    }

    /// A linear SVM on labels `0..n_classes`: each class's scorer by
    /// Pegasos-style stochastic subgradient descent on the L2-regularized
    /// hinge loss, the rows shuffled every epoch.
    pub fn svm(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(SVM_SEED);
        Self::fit(x, y, n_classes, |xs, is_class| {
            let mut a = Affine::zeros(xs[0].len());
            let mut order: Vec<usize> = (0..xs.len()).collect();
            let mut step = 0usize;
            for _ in 0..SVM_EPOCHS {
                order.shuffle(&mut rng);
                for &i in &order {
                    step += 1;
                    let eta = 1.0 / (SVM_LAMBDA * step as f64);
                    let t = if is_class[i] { 1.0 } else { -1.0 };
                    let z = a.at(&xs[i]);
                    for w in &mut a.w {
                        *w *= 1.0 - eta * SVM_LAMBDA;
                    }
                    if t * z < 1.0 {
                        a.add(eta * t, &xs[i]);
                    }
                }
            }
            a
        })
    }

    /// Standardize `x`, then fit each class's scorer in class order from the
    /// standardized rows and which of them hold that class.
    fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        mut scorer: impl FnMut(&[Vec<f64>], &[bool]) -> Affine,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let (scaler, xs) = Scaler::standardize(x);
        let classes = (0..n_classes)
            .map(|c| scorer(&xs, &y.iter().map(|&l| l == c).collect::<Vec<_>>()))
            .collect();
        OneVsRest { scaler, classes }
    }

    /// The class with the highest score.
    pub fn predict(&self, row: &[f64]) -> usize {
        let xs = self.scaler.transform(row);
        argmax(self.classes.iter().map(|a| a.at(&xs)))
    }
}

/// Least squares over standardized features with a `ridge` penalty on the
/// weights (not the intercept), solved exactly by the normal equations.
pub struct LinearRegression {
    scaler: Scaler,
    line: Affine,
}

impl LinearRegression {
    /// Fit `(x, y)`; a `ridge` above 0 keeps near-singular designs solvable.
    pub fn fit(x: &[Vec<f64>], y: &[f64], ridge: f64) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let (scaler, xs) = Scaler::standardize(x);
        // X'X and X'y, with an intercept column of ones.
        let d = scaler.mean.len();
        let mut a = vec![vec![0.0; d + 1]; d + 1];
        let mut b = vec![0.0; d + 1];
        for (row, &t) in xs.iter().zip(y) {
            let aug: Vec<f64> = row.iter().copied().chain([1.0]).collect();
            for ((ai, bi), u) in a.iter_mut().zip(&mut b).zip(&aug) {
                *bi += u * t;
                for (aij, v) in ai.iter_mut().zip(&aug) {
                    *aij += u * v;
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate().take(d) {
            row[i] += ridge;
        }
        let mut w = solve(a, b);
        let b = w[d];
        w.truncate(d);
        LinearRegression { scaler, line: Affine { w, b } }
    }

    /// Predict one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.line.at(&self.scaler.transform(row))
    }
}

/// Gaussian elimination with partial pivoting. Panics on a singular system
/// (prevented in practice by the ridge term).
#[expect(clippy::needless_range_loop, reason = "Gaussian elimination reads naturally with indices")]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // A NaN pivot orders last and fails the singularity assert below.
        let pivot =
            (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs())).unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        assert!(p.abs() > 1e-12, "singular system in linear regression");
        for row in (col + 1)..n {
            let f = a[row][col] / p;
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in (col + 1)..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    x
}

/// A one-hidden-layer perceptron of `HIDDEN` tanh units, trained by
/// full-batch gradient descent on standardized features: Table 2's "NN".
/// It is small on purpose: the duplicator's per-function datasets are tiny,
/// which is why the paper finds NN unreliable for duration R².
pub struct Mlp {
    scaler: Scaler,
    hidden: Vec<Affine>,
    out: Vec<Affine>,
    /// A regressor's target mean and standard deviation (0 and 1 for a
    /// classifier): its output unit predicts the standardized target.
    y_mean: f64,
    y_std: f64,
}

impl Mlp {
    /// A classifier on labels `0..n_classes`: one output per class,
    /// softmax and cross-entropy.
    pub fn classifier(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        Self::fit(x, y, n_classes, |&label, o| {
            let p = softmax(o);
            p.iter().enumerate().map(|(k, pk)| pk - if k == label { 1.0 } else { 0.0 }).collect()
        })
    }

    /// A regressor: one linear output, squared error on targets standardized
    /// so that the fixed step size works across target scales.
    pub fn regressor(x: &[Vec<f64>], y: &[f64]) -> Self {
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y.len() as f64;
        let y_std = var.sqrt().max(1e-12);
        let t: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        Mlp { y_mean, y_std, ..Self::fit(x, &t, 1, |&t, o| vec![o[0] - t]) }
    }

    /// Train on `(x, y)` with `out` output units; `loss_grad(target, outputs)`
    /// is the loss's gradient at the outputs (softmax-CE and MSE share the
    /// form "prediction − truth").
    fn fit<T>(
        x: &[Vec<f64>],
        y: &[T],
        out: usize,
        loss_grad: impl Fn(&T, &[f64]) -> Vec<f64>,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let (scaler, xs) = Scaler::standardize(x);
        let d = scaler.mean.len();
        let mut rng = ChaCha8Rng::seed_from_u64(MLP_SEED);
        let mut layer = |n_in: usize, n_out: usize| -> Vec<Affine> {
            let scale = (1.0 / n_in as f64).sqrt();
            (0..n_out)
                .map(|_| Affine {
                    w: (0..n_in).map(|_| rng.gen_range(-scale..scale)).collect(),
                    b: 0.0,
                })
                .collect()
        };
        let (hidden, out) = (layer(d, HIDDEN), layer(HIDDEN, out));
        let mut m = Mlp { scaler, hidden, out, y_mean: 0.0, y_std: 1.0 };

        let n = xs.len() as f64;
        for _ in 0..MLP_EPOCHS {
            let mut g_hidden = vec![Affine::zeros(d); HIDDEN];
            let mut g_out = vec![Affine::zeros(HIDDEN); m.out.len()];
            for (row, target) in xs.iter().zip(y) {
                let (h, o) = m.forward(row);
                let delta = loss_grad(target, &o);
                for (g, &dk) in g_out.iter_mut().zip(&delta) {
                    g.add(dk, &h);
                }
                for (j, (g, hj)) in g_hidden.iter_mut().zip(&h).enumerate() {
                    let up: f64 = m.out.iter().zip(&delta).map(|(a, dk)| dk * a.w[j]).sum();
                    g.add(up * (1.0 - hj * hj), row); // tanh'
                }
            }
            for (a, g) in m.hidden.iter_mut().zip(&g_hidden).chain(m.out.iter_mut().zip(&g_out)) {
                a.descend(g, MLP_LR, n);
            }
        }
        m
    }

    /// The hidden activations and the outputs for a standardized row.
    fn forward(&self, xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h: Vec<f64> = self.hidden.iter().map(|a| a.at(xs).tanh()).collect();
        let o = self.out.iter().map(|a| a.at(&h)).collect();
        (h, o)
    }

    /// A regressor's prediction.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let (_, o) = self.forward(&self.scaler.transform(row));
        o[0] * self.y_std + self.y_mean
    }

    /// A classifier's prediction.
    pub fn predict_class(&self, row: &[f64]) -> usize {
        let (_, o) = self.forward(&self.scaler.transform(row));
        argmax(o.into_iter())
    }
}

fn softmax(z: &[f64]) -> Vec<f64> {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_ml::metrics::{accuracy, r2_score};

    fn r2_of(x: &[Vec<f64>], y: &[f64], m: impl Fn(&[f64]) -> f64) -> f64 {
        let preds: Vec<f64> = x.iter().map(|r| m(r)).collect();
        r2_score(&preds, y)
    }

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 10.0 + 5.0]).collect();
        let (_, xs) = Scaler::standardize(&x);
        let t: Vec<f64> = xs.iter().map(|r| r[0]).collect();
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        let var = t.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / t.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let (s, _) = Scaler::standardize(&[vec![3.0], vec![3.0], vec![3.0]]);
        assert_eq!(s.transform(&[3.0]), vec![0.0]);
        assert_eq!(s.transform(&[4.0]), vec![1.0]);
    }

    #[test]
    fn argmax_keeps_the_last_of_equal_maxima() {
        assert_eq!(argmax([1.0, 3.0, 2.0].into_iter()), 1);
        assert_eq!(argmax([3.0, 1.0, 3.0].into_iter()), 2);
        assert_eq!(argmax(std::iter::empty()), 0);
    }

    #[test]
    fn linear_recovers_exact_line() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 3.0 * i as f64 + 7.0).collect();
        let m = LinearRegression::fit(&x, &y, 1e-6);
        assert!(r2_of(&x, &y, |r| m.predict(r)) > 0.999999);
    }

    #[test]
    fn linear_two_features() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i * i % 17) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 1.0).collect();
        let m = LinearRegression::fit(&x, &y, 1e-6);
        assert!((m.predict(&[10.0, 5.0]) - (20.0 - 2.5 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn linear_underfits_sqrt() {
        // The point of Table 2: LR cannot capture nonlinear duration curves.
        let x: Vec<Vec<f64>> = (1..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (1..200).map(|i| (i as f64).sqrt()).collect();
        let m = LinearRegression::fit(&x, &y, 1e-6);
        let r2 = r2_of(&x, &y, |r| m.predict(r));
        assert!(r2 < 0.99, "sqrt should not be perfectly linear, r2={r2}");
        assert!(r2 > 0.5, "but still correlated, r2={r2}");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_empty_panics() {
        LinearRegression::fit(&[], &[], 1e-6);
    }

    #[test]
    fn logistic_separates_two_blobs() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 10.0, 0.0]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let m = OneVsRest::logistic(&x, &y, 2);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.9);
    }

    #[test]
    fn logistic_three_classes_ordered() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..60).map(|i| i / 20).collect();
        let m = OneVsRest::logistic(&x, &y, 3);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.8);
    }

    #[test]
    fn svm_separates_linearly_separable_data() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, -(i as f64) * 0.5]).collect();
        let y: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
        let m = OneVsRest::svm(&x, &y, 2);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.93, "acc {}", accuracy(&preds, &y));
    }

    #[test]
    fn svm_multiclass_bands() {
        let x: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..90).map(|i| i / 30).collect();
        let m = OneVsRest::svm(&x, &y, 3);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.75, "acc {}", accuracy(&preds, &y));
    }

    #[test]
    fn svm_deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| i / 20).collect();
        let (a, b) = (OneVsRest::svm(&x, &y, 2), OneVsRest::svm(&x, &y, 2));
        for i in 0..40 {
            assert_eq!(a.predict(&[i as f64]), b.predict(&[i as f64]));
        }
    }

    #[test]
    fn mlp_classifies_two_bands() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..80).map(|i| usize::from(i >= 40)).collect();
        let m = Mlp::classifier(&x, &y, 2);
        let preds: Vec<usize> = x.iter().map(|r| m.predict_class(r)).collect();
        assert!(accuracy(&preds, &y) > 0.9, "acc {}", accuracy(&preds, &y));
    }

    #[test]
    fn mlp_regression_learns_linear_trend() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| 2.0 * i as f64 + 5.0).collect();
        let m = Mlp::regressor(&x, &y);
        let r2 = r2_of(&x, &y, |r| m.predict(r));
        assert!(r2 > 0.95, "r2 {r2}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn mlp_deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let (a, b) = (Mlp::classifier(&x, &y, 2), Mlp::classifier(&x, &y, 2));
        for i in 0..50 {
            assert_eq!(a.predict_class(&[i as f64]), b.predict_class(&[i as f64]));
        }
    }
}
