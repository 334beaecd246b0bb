//! Linear and logistic regression.
//!
//! Two of the four model families the profiler's model study compares
//! (Table 2, "LR"). Linear regression is solved exactly via ridge-regularized
//! normal equations (feature dimension is tiny); logistic regression is
//! one-vs-rest with full-batch gradient descent on standardized features.

use crate::scaler::Scaler;

/// Ordinary least squares with a small ridge term for stability.
#[derive(Clone, Debug)]
pub struct LinearRegression {
    /// Learned weights, one per feature.
    weights: Vec<f64>,
    /// Learned intercept.
    bias: f64,
    scaler: Scaler,
    ridge: f64,
}

impl LinearRegression {
    /// Create an unfitted model (`ridge` ≥ 0 stabilizes near-singular designs).
    pub fn new(ridge: f64) -> Self {
        LinearRegression { weights: Vec::new(), bias: 0.0, scaler: Scaler::identity(0), ridge }
    }

    /// Fit on `(x, y)` by solving the normal equations.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let d = x[0].len();
        self.scaler = Scaler::fit(x);
        let xs: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();

        // Build X'X (d+1 × d+1, with intercept column) and X'y.
        let m = d + 1;
        let mut a = vec![vec![0.0; m]; m];
        let mut b = vec![0.0; m];
        for (row, &t) in xs.iter().zip(y) {
            let aug: Vec<f64> = row.iter().copied().chain(std::iter::once(1.0)).collect();
            for i in 0..m {
                b[i] += aug[i] * t;
                for j in 0..m {
                    a[i][j] += aug[i] * aug[j];
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate().take(d) {
            row[i] += self.ridge;
        }
        let w = solve(a, b);
        self.bias = w[d];
        self.weights = w[..d].to_vec();
    }

    /// Predict one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let xs = self.scaler.transform(row);
        self.weights.iter().zip(&xs).map(|(w, v)| w * v).sum::<f64>() + self.bias
    }
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new(1e-6)
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

/// One-vs-rest logistic regression trained by full-batch gradient descent.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// Per-class (weights, bias).
    classes: Vec<(Vec<f64>, f64)>,
    scaler: Scaler,
    /// Learning rate.
    pub lr: f64,
    /// Gradient-descent epochs.
    pub epochs: usize,
}

impl LogisticRegression {
    /// Create an unfitted model with default hyperparameters.
    pub fn new() -> Self {
        LogisticRegression {
            classes: Vec::new(),
            scaler: Scaler::identity(0),
            lr: 0.5,
            epochs: 200,
        }
    }

    /// Fit on labels `0..n_classes`.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let d = x[0].len();
        self.scaler = Scaler::fit(x);
        let xs: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();
        let n = xs.len() as f64;
        self.classes = (0..n_classes)
            .map(|c| {
                let t: Vec<f64> = y.iter().map(|&l| if l == c { 1.0 } else { 0.0 }).collect();
                let mut w = vec![0.0; d];
                let mut b = 0.0;
                for _ in 0..self.epochs {
                    let mut gw = vec![0.0; d];
                    let mut gb = 0.0;
                    for (row, &ti) in xs.iter().zip(&t) {
                        let z: f64 = w.iter().zip(row).map(|(wi, v)| wi * v).sum::<f64>() + b;
                        let p = 1.0 / (1.0 + (-z).exp());
                        let err = p - ti;
                        for (g, v) in gw.iter_mut().zip(row) {
                            *g += err * v;
                        }
                        gb += err;
                    }
                    for (wi, g) in w.iter_mut().zip(&gw) {
                        *wi -= self.lr * g / n;
                    }
                    b -= self.lr * gb / n;
                }
                (w, b)
            })
            .collect();
    }

    /// Predict the most likely class for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let xs = self.scaler.transform(row);
        self.classes
            .iter()
            .enumerate()
            .map(|(c, (w, b))| {
                let z: f64 = w.iter().zip(&xs).map(|(wi, v)| wi * v).sum::<f64>() + b;
                (c, z)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .unwrap_or_default()
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2_score};

    #[test]
    fn linear_recovers_exact_line() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 3.0 * i as f64 + 7.0).collect();
        let mut m = LinearRegression::default();
        m.fit(&x, &y);
        let preds: Vec<f64> = x.iter().map(|r| m.predict(r)).collect();
        assert!(r2_score(&preds, &y) > 0.999999);
    }

    #[test]
    fn linear_two_features() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i * i % 17) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 1.0).collect();
        let mut m = LinearRegression::default();
        m.fit(&x, &y);
        assert!((m.predict(&[10.0, 5.0]) - (20.0 - 2.5 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn linear_underfits_sqrt() {
        // The point of Table 2: LR cannot capture nonlinear duration curves.
        let x: Vec<Vec<f64>> = (1..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (1..200).map(|i| (i as f64).sqrt()).collect();
        let mut m = LinearRegression::default();
        m.fit(&x, &y);
        let preds: Vec<f64> = x.iter().map(|r| m.predict(r)).collect();
        let r2 = r2_score(&preds, &y);
        assert!(r2 < 0.99, "sqrt should not be perfectly linear, r2={r2}");
        assert!(r2 > 0.5, "but still correlated, r2={r2}");
    }

    #[test]
    fn logistic_separates_two_blobs() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            x.push(vec![i as f64 / 10.0, 0.0]);
            y.push(if i < 20 { 0 } else { 1 });
        }
        let mut m = LogisticRegression::new();
        m.fit(&x, &y, 2);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.9);
    }

    #[test]
    fn logistic_three_classes_ordered() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..60).map(|i| i / 20).collect();
        let mut m = LogisticRegression::new();
        m.fit(&x, &y, 3);
        let preds: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert!(accuracy(&preds, &y) > 0.8);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_empty_panics() {
        LinearRegression::default().fit(&[], &[]);
    }
}
