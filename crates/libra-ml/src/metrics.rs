//! Model-quality metrics: accuracy (classification) and R² (regression).
//!
//! These are the two numbers the profiler uses to decide whether a function
//! is input size-related (§8.6: "we may use a 0.9 accuracy and a 0.9 R²
//! score as indicators").

/// Fraction of predictions equal to the truth.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "accuracy length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

/// Coefficient of determination: `1 − SS_res / SS_tot`. A score of 1.0 means
/// perfect prediction; scores can be arbitrarily negative for models worse
/// than predicting the mean (Table 2 reports R² as low as −254).
pub fn r2_score(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "r2 length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).powi(2)).sum();
    if ss_tot.abs() < f64::EPSILON {
        // Constant target: perfect iff residuals are zero.
        return if ss_res.abs() < f64::EPSILON { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 4]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    fn r2_perfect_and_mean_baseline() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        assert!((r2_score(&truth, &truth) - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r2_score(&mean_pred, &truth).abs() < 1e-12, "mean predictor scores 0");
    }

    #[test]
    fn r2_can_go_negative() {
        let truth = [1.0, 2.0, 3.0];
        let awful = [100.0, -50.0, 7.0];
        assert!(r2_score(&awful, &truth) < -10.0);
    }

    #[test]
    fn r2_constant_target() {
        assert_eq!(r2_score(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2_score(&[4.0, 6.0], &[5.0, 5.0]), 0.0);
    }
}
