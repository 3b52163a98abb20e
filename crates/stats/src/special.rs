//! Logistic special functions: the sigmoid, its inverse and the softplus.
//!
//! These are the link functions of the IRT learning-curve models; each is
//! evaluated in a form that stays finite for extreme arguments.

/// Numerically stable `log(1 + exp(x))` (softplus), used by the logistic IRT model.
pub fn log1p_exp(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

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
    fn log1p_exp_matches_naive_in_safe_range() {
        for &x in &[-5.0, -1.0, 0.0, 1.0, 5.0] {
            assert!((log1p_exp(x) - (1.0 + x.exp()).ln()).abs() < 1e-10);
        }
        // Large arguments stay finite and approximately linear.
        assert!((log1p_exp(100.0) - 100.0).abs() < 1e-9);
        assert!(log1p_exp(-100.0) > 0.0);
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

    #[test]
    fn log1p_exp_is_continuous_across_its_branches() {
        for x in [-30.0 - 1e-9, -30.0, 30.0, 30.0 + 1e-9] {
            let exact = f64::exp(x).ln_1p();
            assert!((log1p_exp(x) - exact).abs() <= 1e-12 * exact, "{x}");
        }
        assert_eq!(log1p_exp(f64::NEG_INFINITY), 0.0);
    }
}
