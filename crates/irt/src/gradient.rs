//! Central-difference stencils for the Newton polish of the Eq. 11 fit in
//! [`minimize_scalar`](crate::minimize_scalar).

/// Relative step of the scalar stencils: `h = EPS_SCALE * max(1, |x|)`.
const EPS_SCALE: f64 = 1e-5;

/// Central-difference derivative of a scalar function at `x`.
pub(crate) fn derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
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
    fn derivative_step_scales_with_the_argument() {
        // An absolute step of 1e-5 would be lost in rounding at x = 1e12.
        let d = derivative(f64::ln, 1e12);
        assert!((d * 1e12 - 1.0).abs() < 1e-6, "d={d}");
    }
}
