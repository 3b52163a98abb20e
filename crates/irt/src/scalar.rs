//! One-dimensional minimisation: golden-section search with optional Newton polish.
//!
//! The Learning Gain Estimation step (Eq. 11 of the paper) fits a single scalar
//! learning parameter `alpha_i` per worker by least squares. The objective is smooth
//! and unimodal over the relevant range, so a bracketed golden-section search
//! followed by a few safeguarded Newton steps gives machine-precision minima at
//! negligible cost (the regression is re-run for every remaining worker in every
//! elimination round).

use crate::gradient::{derivative, second_derivative_given};
use crate::IrtError;

/// Result of a scalar minimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarMinimum {
    /// Location of the minimum found.
    pub x: f64,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations used.
    pub evaluations: usize,
}

/// Minimises `f` over the bracket `[lo, hi]` by golden-section search.
///
/// `tol` is the absolute width at which the bracket search stops; the returned point
/// is the best of the final bracket endpoints and interior probes. An endpoint
/// that is a former probe reuses that probe's value, so only an endpoint still
/// at `lo` or `hi` costs a final evaluation.
fn golden_section_minimize(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<ScalarMinimum, IrtError> {
    if lo >= hi || !lo.is_finite() || !hi.is_finite() {
        return Err(IrtError::InvalidParameter {
            what: "golden-section bracket must be finite with lo < hi",
            value: hi - lo,
        });
    }
    if tol.is_nan() || tol <= 0.0 {
        return Err(IrtError::InvalidParameter {
            what: "golden-section tolerance must be > 0",
            value: tol,
        });
    }
    let inv_phi: f64 = (5.0_f64.sqrt() - 1.0) / 2.0; // 1/φ ≈ 0.618
    let mut a = lo;
    let mut b = hi;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    let mut evaluations = 2;
    if !fc.is_finite() || !fd.is_finite() {
        return Err(IrtError::Calibration(format!(
            "objective evaluated to a non-finite value at golden-section probes {c} / {d}"
        )));
    }

    // An endpoint that moved onto a former probe keeps that probe's value.
    let (mut fa, mut fb) = (None, None);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            fb = Some(fd);
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            fa = Some(fc);
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
        evaluations += 1;
        if evaluations > 10_000 {
            break;
        }
    }

    let mut value_at = |x: f64, known: Option<f64>| {
        known.unwrap_or_else(|| {
            evaluations += 1;
            f(x)
        })
    };
    let candidates = [(a, value_at(a, fa)), (b, value_at(b, fb)), (c, fc), (d, fd)];
    let best = candidates
        .iter()
        .filter(|(_, v)| v.is_finite())
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
        .copied()
        .ok_or_else(|| {
            IrtError::Calibration(
                "objective evaluated to a non-finite value at golden-section final bracket"
                    .to_string(),
            )
        })?;
    Ok(ScalarMinimum {
        x: best.0,
        value: best.1,
        evaluations,
    })
}

/// Polishes a minimum candidate `x`, whose value `f(x)` is already known, with
/// safeguarded Newton steps on the derivative.
///
/// Steps are taken only while they stay inside `[lo, hi]` and actually reduce
/// the objective, so a poor curvature estimate can never make the result worse
/// than the input candidate. The current `f(x)` serves as the centre of the
/// second-derivative stencil, so a step costs four evaluations plus the
/// candidate.
fn polish_from(
    f: impl Fn(f64) -> f64,
    mut x: f64,
    mut value: f64,
    lo: f64,
    hi: f64,
    iterations: usize,
) -> ScalarMinimum {
    let mut evaluations = 0;
    for _ in 0..iterations {
        let d1 = derivative(&f, x);
        let d2 = second_derivative_given(&f, x, value);
        evaluations += 4;
        if !d1.is_finite() || !d2.is_finite() || d2.abs() < 1e-18 {
            break;
        }
        let candidate = (x - d1 / d2).clamp(lo, hi);
        let candidate_value = f(candidate);
        evaluations += 1;
        if candidate_value.is_finite() && candidate_value < value {
            x = candidate;
            value = candidate_value;
        } else {
            break;
        }
    }
    ScalarMinimum {
        x,
        value,
        evaluations,
    }
}

/// Convenience wrapper: golden-section search followed by Newton polish.
///
/// The polish starts from the golden-section minimum's already-known value, so
/// it costs no extra evaluation of the candidate.
pub fn minimize_scalar(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<ScalarMinimum, IrtError> {
    let coarse = golden_section_minimize(&f, lo, hi, tol)?;
    let polished = polish_from(&f, coarse.x, coarse.value, lo, hi, 8);
    Ok(ScalarMinimum {
        x: polished.x,
        value: polished.value,
        evaluations: coarse.evaluations + polished.evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Wraps `f` so that every call bumps `calls`.
    fn counted<'a>(
        f: impl Fn(f64) -> f64 + 'a,
        calls: &'a Cell<usize>,
    ) -> impl Fn(f64) -> f64 + 'a {
        move |x| {
            calls.set(calls.get() + 1);
            f(x)
        }
    }

    #[test]
    fn reported_evaluations_match_actual_calls() {
        let calls = Cell::new(0);
        let f = counted(
            |x: f64| (x - 1.3).powi(2) + 0.25 * (x - 1.3).powi(4),
            &calls,
        );
        let golden = golden_section_minimize(&f, -20.0, 20.0, 1e-7).unwrap();
        assert_eq!(golden.evaluations, calls.replace(0));
        let polished = polish_from(&f, golden.x, golden.value, -20.0, 20.0, 8);
        assert_eq!(polished.evaluations, calls.replace(0));
        let combined = minimize_scalar(&f, -20.0, 20.0, 1e-7).unwrap();
        assert_eq!(combined.evaluations, calls.replace(0));
        assert_eq!(combined.x.to_bits(), polished.x.to_bits());
        assert_eq!(combined.value.to_bits(), polished.value.to_bits());
        // 2 probes, 42 bracket steps, both final endpoints former probes; then
        // three Newton steps, the last rejected: 3 * (4 + 1) calls, starting
        // from the golden-section value.
        assert_eq!((golden.evaluations, polished.evaluations), (44, 15));
        assert_eq!(combined.evaluations, 59);
    }

    #[test]
    fn golden_section_finds_quadratic_minimum() {
        let m = golden_section_minimize(|x| (x - 2.5).powi(2) + 1.0, 0.0, 10.0, 1e-8).unwrap();
        assert!((m.x - 2.5).abs() < 1e-6);
        assert!((m.value - 1.0).abs() < 1e-10);
        assert!(m.evaluations > 2);
    }

    #[test]
    fn golden_section_validation() {
        assert!(golden_section_minimize(|x| x, 1.0, 0.0, 1e-6).is_err());
        assert!(golden_section_minimize(|x| x, 0.0, 1.0, 0.0).is_err());
        assert!(golden_section_minimize(|x| x, f64::NEG_INFINITY, 1.0, 1e-6).is_err());
        assert!(golden_section_minimize(|_| f64::NAN, 0.0, 1.0, 1e-6).is_err());
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        // Monotone increasing: minimum at the left edge.
        let m = golden_section_minimize(|x| x, 0.0, 5.0, 1e-8).unwrap();
        assert!(m.x < 1e-6);
        // Monotone decreasing: minimum at the right edge.
        let m = golden_section_minimize(|x| -x, 0.0, 5.0, 1e-8).unwrap();
        assert!((m.x - 5.0).abs() < 1e-6);
    }

    #[test]
    fn newton_polish_improves_precision() {
        let f = |x: f64| (x - 1.234_567).powi(2);
        let coarse = golden_section_minimize(f, 0.0, 3.0, 1e-2).unwrap();
        let polished = polish_from(f, coarse.x, coarse.value, 0.0, 3.0, 10);
        assert!((polished.x - 1.234_567).abs() < 1e-7);
        assert!(polished.value <= coarse.value + 1e-15);
    }

    #[test]
    fn newton_polish_never_worsens() {
        // A nasty non-smooth objective: polish should return something at least as
        // good as the starting point.
        let f = |x: f64| x.abs().sqrt();
        let start = 0.3;
        let polished = polish_from(f, start, f(start), -1.0, 1.0, 10);
        assert!(polished.value <= f(start) + 1e-15);
        assert!((-1.0..=1.0).contains(&polished.x));
    }

    #[test]
    fn minimize_scalar_on_quartic() {
        // f(x) = (x^2 - 1)^2 has minima at ±1; restricted to [0, 3] the minimum is 1.
        let m = minimize_scalar(|x| (x * x - 1.0).powi(2), 0.0, 3.0, 1e-6).unwrap();
        assert!((m.x - 1.0).abs() < 1e-5);
        assert!(m.value < 1e-9);
    }

    #[test]
    fn minimize_scalar_on_irt_style_objective() {
        // Shape of the Eq. 11 objective: fit alpha so that sigmoid(alpha*ln(K+1))
        // matches a target accuracy.
        let k = 20.0_f64;
        let target = 0.8;
        let f = |alpha: f64| {
            let p = 1.0 / (1.0 + (-(alpha * (k + 1.0_f64).ln())).exp());
            (p - target).powi(2)
        };
        let m = minimize_scalar(f, -5.0, 5.0, 1e-8).unwrap();
        let expected = (target / (1.0 - target)).ln() / (k + 1.0_f64).ln();
        assert!(
            (m.x - expected).abs() < 1e-4,
            "got {} want {}",
            m.x,
            expected
        );
    }

    #[test]
    fn minimum_outside_the_bracket_lands_on_the_edge() {
        let m = minimize_scalar(|x| (x - 10.0).powi(2), 0.0, 3.0, 1e-9).unwrap();
        assert!((3.0 - m.x).abs() < 1e-6 && m.x <= 3.0, "x={}", m.x);
        let m = minimize_scalar(|x| (x + 10.0).powi(2), 0.0, 3.0, 1e-9).unwrap();
        assert!(m.x >= 0.0 && m.x < 1e-6, "x={}", m.x);
    }

    #[test]
    fn golden_section_meets_its_tolerance() {
        for tol in [1e-2, 1e-4, 1e-6] {
            let m = golden_section_minimize(|x| (x - 0.3).abs(), -1.0, 2.0, tol).unwrap();
            assert!((m.x - 0.3).abs() <= tol, "tol {tol}: x={}", m.x);
            assert_eq!(m.value, (m.x - 0.3).abs());
        }
    }
}
