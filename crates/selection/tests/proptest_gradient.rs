//! Property-based cross-check of the closed-form Eq. 6–7 gradient against the
//! central-difference stencil.
//!
//! For random models (diagonally dominant covariances, so every stencil
//! perturbation stays inside the PD cone and no projection kicks in) and random
//! observation sets — arbitrary missing-domain masks with the all-missing and
//! fully-observed masks force-included, counts from `(0, 0)` up to large-count
//! workers — the analytic `log_likelihood_gradient` must agree with central
//! finite differences of `log_likelihood` over the packed parameters (the
//! exact quantity `CpeGradient::FiniteDifference` consumes) to stencil
//! accuracy.
//!
//! The tolerance is tied to the stencil: a central difference with step `h`
//! carries `O(h^2 |f'''|)` truncation error plus `O(eps |f| / h)` cancellation
//! error, so with `h = 1e-5` the agreement floor sits comfortably below
//! `1e-4 (1 + |g|)` per coordinate while a wrong backpropagation term (a
//! dropped factor of 2, a sign flip on `alpha`) misses by orders of magnitude.

mod reference;

use c4u_selection::{
    CpeConfig, CpeGradient, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator,
};
use c4u_stats::{GaussLegendre, Matrix, MultivariateNormal, Vector};
use proptest::prelude::*;
use reference::{from_lower_triangle, lower_triangle};

const NUM_DOMAINS: usize = 3;
const DIM: usize = NUM_DOMAINS + 1;
/// Stencil step of the finite-difference cross-check (the default FD oracle
/// step).
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
        let quadrature = GaussLegendre::new(CpeConfig::default().quadrature_order);
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
        let fd = c4u_selection::gradient_with_step(objective, &params, STEP);

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
/// analytic oracle lands within stencil distance of the finite-difference one
/// (the two oracles share objective surface, learning rates, clamps, and PSD
/// projection; only the gradient differs, by `O(STEP^2)` per epoch).
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

    let base = CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 10,
        ..Default::default()
    };
    let mut analytic = CrossDomainEstimator::from_profiles(
        &refs,
        CpeConfig {
            gradient_oracle: CpeGradient::Analytic,
            ..base
        },
    )
    .unwrap();
    let mut stencil = CrossDomainEstimator::from_profiles(
        &refs,
        CpeConfig {
            gradient_oracle: CpeGradient::FiniteDifference { step: STEP },
            ..base
        },
    )
    .unwrap();
    analytic.update(&observations).unwrap();
    stencil.update(&observations).unwrap();

    for (a, f) in analytic.mean().iter().zip(stencil.mean()) {
        assert!((a - f).abs() < 1e-6, "mean {a} vs {f}");
    }
    for (a, f) in analytic
        .covariance()
        .as_slice()
        .iter()
        .zip(stencil.covariance().as_slice())
    {
        assert!((a - f).abs() < 1e-6, "covariance {a} vs {f}");
    }
    // Both end on the same likelihood surface point to high precision.
    let la = analytic.log_likelihood(&observations).unwrap();
    let lf = stencil.log_likelihood(&observations).unwrap();
    assert!((la - lf).abs() < 1e-6, "log-likelihood {la} vs {lf}");
}
