//! Logistic special functions: the sigmoid and its inverse.
//!
//! These are the link functions of the IRT learning-curve models; each is
//! evaluated in a form that stays finite for extreme arguments.

/// The logistic sigmoid `1 / (1 + e^{-x})`, evaluated in a numerically stable way.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The logit function `ln(p / (1 - p))`, the inverse of [`sigmoid`].
///
/// Inputs are clamped to `[eps, 1 - eps]` with `eps = 1e-12` so that accuracies of
/// exactly 0 or 1 (common for very small answer batches) stay finite.
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_and_logit_are_inverses() {
        for &x in &[-5.0, -1.0, 0.0, 0.5, 3.0] {
            assert!((logit(sigmoid(x)) - x).abs() < 1e-8);
        }
        for &p in &[0.01, 0.3, 0.5, 0.9, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
    }

    #[test]
    fn logit_clamps_degenerate_probabilities() {
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
        assert!(logit(0.0) < -20.0);
        assert!(logit(1.0) > 20.0);
    }

    #[test]
    fn sigmoid_is_point_symmetric_about_one_half() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(logit(0.5), 0.0);
        for &x in &[0.1, 1.0, 4.0, 25.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-15);
            assert!(sigmoid(x) > sigmoid(x - 0.05));
        }
    }
}
