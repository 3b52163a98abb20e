//! Property-based cross-check of the closed-form Eq. 6–7 gradient against the
//! central-difference stencil.
//!
//! For random models (diagonally dominant covariances, so every stencil
//! perturbation stays inside the PD cone and no projection kicks in) and random
//! observation sets — arbitrary missing-domain masks with the all-missing and
//! fully-observed masks force-included, counts from `(0, 0)` up to large-count
//! workers — the analytic `log_likelihood_gradient` must agree with central
//! finite differences of `log_likelihood` over the packed parameters (the
//! exact quantity the historical central-difference update of
//! `reference::ReferenceEstimator` consumes) to stencil accuracy.
//!
//! The tolerance is tied to the stencil: a central difference with step `h`
//! carries `O(h^2 |f'''|)` truncation error plus `O(eps |f| / h)` cancellation
//! error, so with `h = 1e-5` the agreement floor sits comfortably below
//! `1e-4 (1 + |g|)` per coordinate while a wrong backpropagation term (a
//! dropped factor of 2, a sign flip on `alpha`) misses by orders of magnitude.
//!
//! The stencil and the triangle packers the cross-check rests on live in
//! `tests/reference/mod.rs`; their own unit tests close this file.

mod reference;

use c4u_selection::{CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator};
use c4u_stats::{GaussLegendre, Matrix, MultivariateNormal, Vector};
use proptest::prelude::*;
use reference::{from_lower_triangle, gradient_with_step, lower_triangle, ReferenceEstimator};

const NUM_DOMAINS: usize = 3;
const DIM: usize = NUM_DOMAINS + 1;
/// Stencil step of the finite-difference cross-check (the step of
/// `ReferenceEstimator::update`).
const STEP: f64 = 1e-5;
/// Per-coordinate agreement bound, tied to `STEP` (see module docs).
const TOL: f64 = 1e-4;

/// A random model whose covariance is strictly diagonally dominant: variances
/// in `[0.04, 0.09]` against off-diagonal entries bounded by
/// `0.15 sqrt(v_i v_j)`, leaving a PD margin orders of magnitude wider than
/// the stencil perturbation.
fn model_strategy() -> impl Strategy<Value = (Vec<f64>, Matrix)> {
    (
        prop::collection::vec(0.25..0.75f64, DIM),
        prop::collection::vec(0.04..0.09f64, DIM),
        prop::collection::vec(-0.15..0.15f64, DIM * (DIM - 1) / 2),
    )
        .prop_map(|(means, vars, rhos)| {
            let mut cov = Matrix::zeros(DIM, DIM);
            let mut k = 0;
            for i in 0..DIM {
                cov[(i, i)] = vars[i];
                for j in 0..i {
                    let c = rhos[k] * (vars[i] * vars[j]).sqrt();
                    cov[(i, j)] = c;
                    cov[(j, i)] = c;
                    k += 1;
                }
            }
            (means, cov)
        })
}

/// One observation with a random observed-domain mask, accuracies, and counts.
fn observation_strategy() -> impl Strategy<Value = CpeObservation> {
    (
        0u8..8,
        0.05..0.95f64,
        0.05..0.95f64,
        0.05..0.95f64,
        0usize..21,
        0usize..21,
    )
        .prop_map(|(mask, a0, a1, a2, correct, wrong)| CpeObservation {
            prior_accuracies: [a0, a1, a2]
                .iter()
                .enumerate()
                .map(|(d, &a)| (mask & (1 << d) != 0).then_some(a))
                .collect(),
            correct,
            wrong,
        })
}

/// Forces the boundary masks plus a large-count worker into every case.
fn with_boundary_cases(mut observations: Vec<CpeObservation>) -> Vec<CpeObservation> {
    observations.push(CpeObservation {
        prior_accuracies: vec![None, None, None],
        correct: 4,
        wrong: 6,
    });
    observations.push(CpeObservation {
        prior_accuracies: vec![Some(0.75), Some(0.65), Some(0.55)],
        correct: 0,
        wrong: 0,
    });
    observations.push(CpeObservation {
        prior_accuracies: vec![Some(0.85), None, Some(0.6)],
        correct: 140,
        wrong: 2,
    });
    observations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn analytic_gradient_matches_central_differences(
        model_params in model_strategy(),
        observations in prop::collection::vec(observation_strategy(), 1..6),
    ) {
        let (means, cov) = model_params;
        let observations = with_boundary_cases(observations);
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);
        let model = MultivariateNormal::new(Vector::from_slice(&means), cov.clone()).unwrap();

        let analytic = kernel.log_likelihood_gradient(&model).unwrap();

        // The fused-sweep likelihood agrees with the quadrature-loop one (same
        // nodes, same shift; only the loop structure differs).
        let ll = kernel.log_likelihood(&model).unwrap();
        prop_assert!(
            (analytic.log_likelihood - ll).abs() < 1e-9 * (1.0 + ll.abs()),
            "fused log-likelihood {} vs integrate {}", analytic.log_likelihood, ll
        );

        // Central differences over the packed parameters, no PSD projection:
        // the perturbed matrices stay PD by diagonal dominance, so this is the
        // raw gradient the analytic oracle claims to compute.
        let mut params = means.clone();
        params.extend(lower_triangle(&cov));
        let objective = |p: &[f64]| {
            let m = Vector::from_slice(&p[..DIM]);
            let c = from_lower_triangle(&p[DIM..], DIM);
            kernel
                .log_likelihood(&MultivariateNormal::new(m, c).unwrap())
                .unwrap()
        };
        let fd = gradient_with_step(objective, &params, STEP);

        let packed = analytic.packed();
        prop_assert_eq!(packed.len(), fd.len());
        for (slot, (&a, &f)) in packed.iter().zip(&fd).enumerate() {
            prop_assert!(
                (a - f).abs() <= TOL * (1.0 + f.abs()),
                "slot {}: analytic {} vs stencil {}", slot, a, f
            );
        }
    }
}

/// Estimator-level agreement: a full multi-epoch `update()` through the
/// analytic gradient lands within stencil distance of the historical
/// central-difference update of [`ReferenceEstimator`], seeded from the same
/// estimator (the two share objective surface, learning rates, clamps, and
/// PSD projection; only the gradient differs, by `O(STEP^2)` per epoch).
#[test]
fn analytic_update_tracks_finite_difference_update() {
    use c4u_crowd_sim::HistoricalProfile;

    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    let observations = vec![
        CpeObservation {
            prior_accuracies: vec![Some(0.9), Some(0.9), Some(0.8)],
            correct: 9,
            wrong: 1,
        },
        CpeObservation {
            prior_accuracies: vec![Some(0.4), None, Some(0.3)],
            correct: 3,
            wrong: 7,
        },
        CpeObservation {
            prior_accuracies: vec![None, None, None],
            correct: 5,
            wrong: 5,
        },
    ];

    let config = CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 10,
        ..Default::default()
    };
    let mut analytic = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
    let mut stencil = ReferenceEstimator::from_estimator(&analytic, config);
    analytic.update(&observations).unwrap();
    stencil.update(&observations);

    for (a, f) in analytic.mean().iter().zip(&stencil.mean) {
        assert!((a - f).abs() < 1e-6, "mean {a} vs {f}");
    }
    for (a, f) in analytic
        .covariance()
        .as_slice()
        .iter()
        .zip(stencil.covariance.as_slice())
    {
        assert!((a - f).abs() < 1e-6, "covariance {a} vs {f}");
    }
    // Both end on the same likelihood surface point to high precision.
    let la = analytic.log_likelihood(&observations).unwrap();
    let lf = stencil.log_likelihood(&observations);
    assert!((la - lf).abs() < 1e-6, "log-likelihood {la} vs {lf}");
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

#[test]
fn triangle_packing_roundtrip() {
    let m = Matrix::from_rows(&[
        vec![1.0, 0.2, 0.3],
        vec![0.2, 2.0, 0.4],
        vec![0.3, 0.4, 3.0],
    ])
    .unwrap();
    let tri = lower_triangle(&m);
    assert_eq!(tri.len(), 6);
    let back = from_lower_triangle(&tri, 3);
    assert!(back.max_abs_diff(&m).unwrap() < 1e-12);
}
