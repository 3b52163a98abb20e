//! Bit-identity pin of the Eq. 11 fit.
//!
//! `calibrate_alpha` fits over a precomputed `LearningTerm` table, and the scalar
//! minimiser reuses values it already has (former probes as final bracket
//! endpoints, the golden-section minimum as the Newton stencil centre). These
//! are pure rewrites, so the fitted `alpha` and residual must equal, bit for
//! bit, the plain golden-section search and Newton polish (transcribed below,
//! evaluating every point afresh) on `learning_objective`, which recomputes
//! `ln(K + 1)` at every evaluation.

use c4u_irt::{
    calibrate_alpha, learning_objective, minimize_scalar, PriorDomainObservation,
    TargetStageObservation,
};
use proptest::prelude::*;

/// Golden-section search that evaluates the final bracket endpoints afresh;
/// returns the best point of the final bracket.
fn plain_golden_section(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> f64 {
    let inv_phi: f64 = (5.0_f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    let mut evaluations = 2;
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
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
    [(a, f(a)), (b, f(b)), (c, fc), (d, fd)]
        .into_iter()
        .filter(|(_, v)| v.is_finite())
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap()
        .0
}

/// Central-difference first derivative, step `1e-5 * max(1, |x|)`.
fn derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = 1e-5 * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Three-point second derivative, step `sqrt(1e-5) * max(1, |x|)`, with the
/// centre evaluated afresh.
fn second_derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = 1e-5_f64.sqrt() * x.abs().max(1.0);
    (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
}

/// Newton polish with every stencil point evaluated afresh; returns `(x, f(x))`.
fn plain_newton_polish(
    f: impl Fn(f64) -> f64,
    mut x: f64,
    lo: f64,
    hi: f64,
    iterations: usize,
) -> (f64, f64) {
    let mut value = f(x);
    for _ in 0..iterations {
        let d1 = derivative(&f, x);
        let d2 = second_derivative(&f, x);
        if !d1.is_finite() || !d2.is_finite() || d2.abs() < 1e-18 {
            break;
        }
        let candidate = (x - d1 / d2).clamp(lo, hi);
        let candidate_value = f(candidate);
        if candidate_value.is_finite() && candidate_value < value {
            x = candidate;
            value = candidate_value;
        } else {
            break;
        }
    }
    (x, value)
}

/// The plain golden-section search plus the plain polish from its minimum.
fn plain_minimize(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    let coarse = plain_golden_section(&f, lo, hi, tol);
    plain_newton_polish(&f, coarse, lo, hi, 8)
}

/// A task count: mostly moderate, with `K = 0` and very large counts mixed in.
fn tasks() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0..300.0f64).prop_map(|(pick, k)| match pick {
        0 => 0.0,
        1 => 1e7,
        2 => k.floor(),
        _ => k,
    })
}

/// An accuracy in `[0, 1]`, with the endpoints drawn often.
fn accuracy() -> impl Strategy<Value = f64> {
    (0u8..6, 0.0..1.0f64).prop_map(|(pick, a)| match pick {
        0 => 0.0,
        1 => 1.0,
        _ => a,
    })
}

/// A difficulty, exactly 0 (`a = 0.5`) a quarter of the time.
fn difficulty() -> impl Strategy<Value = f64> {
    (0u8..4, -3.0..3.0f64).prop_map(|(pick, beta)| if pick == 0 { 0.0 } else { beta })
}

fn priors() -> impl Strategy<Value = Vec<PriorDomainObservation>> {
    prop::collection::vec(
        (difficulty(), tasks(), accuracy()).prop_map(|(difficulty, tasks_completed, accuracy)| {
            PriorDomainObservation {
                difficulty,
                tasks_completed,
                accuracy,
            }
        }),
        0..=4,
    )
}

fn stages() -> impl Strategy<Value = Vec<TargetStageObservation>> {
    prop::collection::vec(
        (tasks(), accuracy()).prop_map(|(cumulative_tasks_before, estimated_accuracy)| {
            TargetStageObservation {
                cumulative_tasks_before,
                estimated_accuracy,
            }
        }),
        0..=5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn calibrate_alpha_matches_the_reference_fit_bit_for_bit(
        target_difficulty in difficulty(),
        priors in priors(),
        stages in stages(),
    ) {
        let fitted = calibrate_alpha(target_difficulty, &priors, &stages);
        if priors.is_empty() && stages.is_empty() {
            prop_assert!(fitted.is_err());
        } else {
            let fitted = fitted.unwrap();
            let (alpha, residual) = plain_minimize(
                |a| learning_objective(a, target_difficulty, &priors, &stages),
                -20.0,
                20.0,
                1e-7,
            );
            prop_assert_eq!(fitted.alpha.to_bits(), alpha.to_bits());
            prop_assert_eq!(fitted.residual.to_bits(), residual.to_bits());
        }
    }

    #[test]
    fn minimize_scalar_matches_the_plain_polish_bit_for_bit(
        centre in -4.0..4.0f64,
        bowl in (0.01..5.0f64, 0.0..2.0f64),
        ripple in (0.0..0.2f64, 0.1..3.0f64),
        bracket in (-10.0..-5.0f64, 6.0..20.0f64),
        tol in 1e-9..1e-3f64,
    ) {
        let (quadratic, quartic) = bowl;
        let (amplitude, frequency) = ripple;
        let (lo, width) = bracket;
        let f = |x: f64| {
            let u = x - centre;
            quadratic * u * u + quartic * u.powi(4) + amplitude * (frequency * x).sin()
        };
        let hi = lo + width;
        let m = minimize_scalar(f, lo, hi, tol).unwrap();
        let (x, value) = plain_minimize(f, lo, hi, tol);
        prop_assert_eq!(m.x.to_bits(), x.to_bits());
        prop_assert_eq!(m.value.to_bits(), value.to_bits());
    }
}
