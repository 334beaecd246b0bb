//! A one-hidden-layer multilayer perceptron.
//!
//! The "NN" row of the profiler's model study (Table 2). Tanh hidden layer;
//! softmax/cross-entropy head for classification, linear/MSE head for
//! regression; full-batch gradient descent on standardized features.
//! Deliberately small — the duplicator produces tiny per-function datasets,
//! which is exactly why the paper finds NN unreliable for duration R².

use crate::scaler::Scaler;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The prediction head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MlpTask {
    /// Softmax over this many classes.
    Classification {
        /// Number of classes.
        n_classes: usize,
    },
    /// Single linear output trained with MSE.
    Regression,
}

/// A fitted (or unfitted) MLP.
#[derive(Clone, Debug)]
pub struct Mlp {
    task: MlpTask,
    hidden: usize,
    w1: Vec<Vec<f64>>, // hidden × d
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>, // out × hidden
    b2: Vec<f64>,
    scaler: Scaler,
    y_mean: f64,
    y_std: f64,
    /// Learning rate.
    pub lr: f64,
    /// Epochs of full-batch gradient descent.
    pub epochs: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl Mlp {
    /// Create an MLP with `hidden` units.
    pub fn new(task: MlpTask, hidden: usize) -> Self {
        Mlp {
            task,
            hidden,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: Vec::new(),
            scaler: Scaler::identity(0),
            y_mean: 0.0,
            y_std: 1.0,
            lr: 0.05,
            epochs: 400,
            seed: 0x1111,
        }
    }

    fn out_dim(&self) -> usize {
        match self.task {
            MlpTask::Classification { n_classes } => n_classes,
            MlpTask::Regression => 1,
        }
    }

    /// Fit on `(x, y)`. For classification, `y` holds class indices as f64.
    #[expect(clippy::needless_range_loop, reason = "index form mirrors the gradient math")]
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let d = x[0].len();
        let out = self.out_dim();
        self.scaler = Scaler::fit(x);
        let xs: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();

        // Standardize regression targets so the fixed learning rate works
        // across target scales.
        if self.task == MlpTask::Regression {
            self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
            let var = y.iter().map(|v| (v - self.y_mean).powi(2)).sum::<f64>() / y.len() as f64;
            self.y_std = var.sqrt().max(1e-12);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut init = |fan_in: usize| -> f64 {
            let scale = (1.0 / fan_in as f64).sqrt();
            rng.gen_range(-scale..scale)
        };
        self.w1 = (0..self.hidden).map(|_| (0..d).map(|_| init(d)).collect()).collect();
        self.b1 = vec![0.0; self.hidden];
        self.w2 = (0..out).map(|_| (0..self.hidden).map(|_| init(self.hidden)).collect()).collect();
        self.b2 = vec![0.0; out];

        let n = xs.len() as f64;
        for _ in 0..self.epochs {
            let mut gw1 = vec![vec![0.0; d]; self.hidden];
            let mut gb1 = vec![0.0; self.hidden];
            let mut gw2 = vec![vec![0.0; self.hidden]; out];
            let mut gb2 = vec![0.0; out];

            for (row, &target) in xs.iter().zip(y) {
                let (h, o) = self.forward(row);
                // d(loss)/d(logits): softmax-CE and MSE share the same form.
                let mut delta = vec![0.0; out];
                match self.task {
                    MlpTask::Classification { .. } => {
                        let probs = softmax(&o);
                        for (k, dk) in delta.iter_mut().enumerate() {
                            let t = if k == target as usize { 1.0 } else { 0.0 };
                            *dk = probs[k] - t;
                        }
                    }
                    MlpTask::Regression => {
                        let t = (target - self.y_mean) / self.y_std;
                        delta[0] = o[0] - t;
                    }
                }
                for k in 0..out {
                    gb2[k] += delta[k];
                    for j in 0..self.hidden {
                        gw2[k][j] += delta[k] * h[j];
                    }
                }
                for j in 0..self.hidden {
                    let up: f64 = (0..out).map(|k| delta[k] * self.w2[k][j]).sum();
                    let dh = up * (1.0 - h[j] * h[j]); // tanh'
                    gb1[j] += dh;
                    for i in 0..d {
                        gw1[j][i] += dh * row[i];
                    }
                }
            }

            for j in 0..self.hidden {
                self.b1[j] -= self.lr * gb1[j] / n;
                for i in 0..d {
                    self.w1[j][i] -= self.lr * gw1[j][i] / n;
                }
            }
            for k in 0..out {
                self.b2[k] -= self.lr * gb2[k] / n;
                for j in 0..self.hidden {
                    self.w2[k][j] -= self.lr * gw2[k][j] / n;
                }
            }
        }
    }

    fn forward(&self, row: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| (w.iter().zip(row).map(|(wi, v)| wi * v).sum::<f64>() + b).tanh())
            .collect();
        let o: Vec<f64> = self
            .w2
            .iter()
            .zip(&self.b2)
            .map(|(w, b)| w.iter().zip(&h).map(|(wi, v)| wi * v).sum::<f64>() + b)
            .collect();
        (h, o)
    }

    /// Regression prediction (de-standardized).
    pub fn predict(&self, row: &[f64]) -> f64 {
        let xs = self.scaler.transform(row);
        let (_, o) = self.forward(&xs);
        match self.task {
            MlpTask::Regression => o[0] * self.y_std + self.y_mean,
            MlpTask::Classification { .. } => self.predict_class_inner(&o) as f64,
        }
    }

    /// Classification prediction.
    pub fn predict_class(&self, row: &[f64]) -> usize {
        let xs = self.scaler.transform(row);
        let (_, o) = self.forward(&xs);
        self.predict_class_inner(&o)
    }

    fn predict_class_inner(&self, o: &[f64]) -> usize {
        o.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(k, _)| k)
            .unwrap_or_default()
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
    use crate::metrics::{accuracy, r2_score};

    #[test]
    fn classifies_two_bands() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..80).map(|i| if i < 40 { 0.0 } else { 1.0 }).collect();
        let mut m = Mlp::new(MlpTask::Classification { n_classes: 2 }, 8);
        m.fit(&x, &y);
        let preds: Vec<usize> = x.iter().map(|r| m.predict_class(r)).collect();
        let truth: Vec<usize> = y.iter().map(|&v| v as usize).collect();
        assert!(accuracy(&preds, &truth) > 0.9, "acc {}", accuracy(&preds, &truth));
    }

    #[test]
    fn regression_learns_linear_trend() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| 2.0 * i as f64 + 5.0).collect();
        let mut m = Mlp::new(MlpTask::Regression, 8);
        m.epochs = 800;
        m.fit(&x, &y);
        let preds: Vec<f64> = x.iter().map(|r| m.predict(r)).collect();
        let r2 = r2_score(&preds, &y);
        assert!(r2 > 0.95, "r2 {r2}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let mut a = Mlp::new(MlpTask::Classification { n_classes: 2 }, 4);
        let mut b = Mlp::new(MlpTask::Classification { n_classes: 2 }, 4);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for i in 0..50 {
            assert_eq!(a.predict_class(&[i as f64]), b.predict_class(&[i as f64]));
        }
    }
}
