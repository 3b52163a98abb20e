//! The central-difference gradient behind [`CpeGradient::FiniteDifference`],
//! the cross-check of the closed-form Eq. 6–7 gradient.
//!
//! [`CpeGradient::FiniteDifference`]: crate::CpeGradient::FiniteDifference

/// Central-difference gradient with a caller-supplied absolute step per coordinate.
///
/// The input slice is copied once; with the tiny dimensionalities in this
/// workspace that cost is irrelevant and it keeps `f` a plain `Fn(&[f64])`.
pub fn gradient_with_step(f: impl Fn(&[f64]) -> f64, x: &[f64], step: f64) -> Vec<f64> {
    let step = step.abs().max(f64::MIN_POSITIVE);
    let mut grad = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let orig = work[i];
        work[i] = orig + step;
        let plus = f(&work);
        work[i] = orig - step;
        let minus = f(&work);
        work[i] = orig;
        grad[i] = (plus - minus) / (2.0 * step);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_quadratic_bowl() {
        // f(x, y) = (x-1)^2 + 2(y+3)^2, grad = [2(x-1), 4(y+3)]
        let f = |v: &[f64]| (v[0] - 1.0).powi(2) + 2.0 * (v[1] + 3.0).powi(2);
        let g = gradient_with_step(f, &[2.0, -1.0], 1e-5);
        assert!((g[0] - 2.0).abs() < 1e-6);
        assert!((g[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_is_zero_at_minimum() {
        let f = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let g = gradient_with_step(f, &[0.0, 0.0, 0.0], 1e-5);
        assert!(g.iter().all(|v| v.abs() < 1e-8));
    }

    #[test]
    fn gradient_of_empty_input_is_empty() {
        let g = gradient_with_step(|_| 0.0, &[], 1e-5);
        assert!(g.is_empty());
    }

    #[test]
    fn gradient_step_sign_is_ignored() {
        let f = |v: &[f64]| v[0].sin() * v[1].exp();
        let x = [0.4, -0.3];
        assert_eq!(
            gradient_with_step(f, &x, 1e-6),
            gradient_with_step(f, &x, -1e-6)
        );
        let g = gradient_with_step(f, &x, 1e-6);
        assert!((g[0] - 0.4f64.cos() * (-0.3f64).exp()).abs() < 1e-8);
    }
}
