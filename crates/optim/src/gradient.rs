//! Numerical differentiation by central differences.
//!
//! The CPE estimator (Eq. 5–7 of the paper) takes closed-form gradients by
//! default and keeps [`gradient_with_step`] over the marginal log-likelihood
//! as their cross-check; the scalar stencils drive the Newton polish of the
//! Eq. 11 fit in [`minimize_scalar`](crate::minimize_scalar).

/// Relative step of the scalar stencils: `h = EPS_SCALE * max(1, |x|)`.
const EPS_SCALE: f64 = 1e-5;

/// Central-difference derivative of a scalar function at `x`.
pub fn derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = EPS_SCALE * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Second derivative of a scalar function at `x` (three-point stencil), with
/// the centre value `fx = f(x)` already known so the stencil costs two
/// evaluations.
pub(crate) fn second_derivative_given(f: impl Fn(f64) -> f64, x: f64, fx: f64) -> f64 {
    let h = (EPS_SCALE.sqrt()) * x.abs().max(1.0);
    (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)
}

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
    fn derivative_of_polynomial() {
        // d/dx (x^3 - 2x) = 3x^2 - 2
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            let d = derivative(|t| t * t * t - 2.0 * t, x);
            assert!((d - (3.0 * x * x - 2.0)).abs() < 1e-6, "x={x} d={d}");
        }
    }

    #[test]
    fn derivative_of_exponential() {
        let d = derivative(f64::exp, 1.0);
        assert!((d - std::f64::consts::E).abs() < 1e-6);
    }

    #[test]
    fn second_derivative_of_quadratic() {
        let f = |t: f64| 3.0 * t * t + t;
        let d2 = second_derivative_given(f, 0.7, f(0.7));
        assert!((d2 - 6.0).abs() < 1e-4, "d2={d2}");
    }

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
    fn derivative_step_scales_with_the_argument() {
        // An absolute step of 1e-5 would be lost in rounding at x = 1e12.
        let d = derivative(f64::ln, 1e12);
        assert!((d * 1e12 - 1.0).abs() < 1e-6, "d={d}");
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
