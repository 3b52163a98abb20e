//! Property-based cross-check of the batched SoA quadrature path against the
//! scalar `binomial_normal_moments` oracle, at the mask-group level.
//!
//! Where `proptest_kernel.rs` fuzzes realistic small answer counts, this suite
//! drives the kernel into the regimes the structure-of-arrays sweep must
//! survive bit-for-bit: random observed-domain masks (the all-missing and
//! fully-observed masks force-included), **boundary-peaked** cells (`X = 0`
//! with a large `C`, and `C = 0` with a large `X`, whose integrand peak hugs an
//! end of the unit interval), and **large-count** cells (hundreds of thousands
//! of answers, including pairs extreme enough to underflow the normaliser).
//!
//! Every comparison is `prop_assert_eq!` on raw `f64`s — the batched kernel is
//! the same arithmetic as the scalar oracle, merely reorganised, so there is
//! no accepted non-bit-exactness. Underflowed likelihood terms must agree on
//! `-inf` exactly; a prediction whose scalar-oracle moment is non-finite is
//! the member's conditional mean clamped to `[0, 1]` (the `sigma -> 0` limit
//! of the Eq. 8 posterior mean), and every other prediction matches the
//! oracle bit for bit.
//!
//! The reference integrates with the scalar oracle, so the kernel runs in
//! `QuadratureMath::Exact`, the mode that is bit-identical to it.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{
    binomial_normal_moments, observed_domains, CpeConfig, CpeLikelihoodKernel, CpeObservation,
    CrossDomainEstimator, QuadratureMath,
};
use c4u_stats::{GaussLegendre, MultivariateNormal};
use proptest::prelude::*;
use reference::reference_worker_log_likelihood;

const NUM_DOMAINS: usize = 3;

fn estimator() -> CrossDomainEstimator {
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap()
}

/// One observation with a random mask and **large** answer counts — up to
/// 300k answers per side, far beyond anything the small-count fuzz covers.
fn large_count_observation() -> impl Strategy<Value = CpeObservation> {
    (
        0u8..8,
        0.05..0.95f64,
        0.05..0.95f64,
        0.05..0.95f64,
        0usize..300_000,
        0usize..300_000,
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

/// Force-includes the hard mask/count combinations in every case: the two
/// boundary masks, boundary-peaked counts on both ends, and an underflow-grade
/// count pair.
fn with_edge_observations(mut observations: Vec<CpeObservation>) -> Vec<CpeObservation> {
    let obs = |mask: &[Option<f64>], correct: usize, wrong: usize| CpeObservation {
        prior_accuracies: mask.to_vec(),
        correct,
        wrong,
    };
    // All-missing mask with boundary-peaked counts (X = 0).
    observations.push(obs(&[None, None, None], 200_000, 0));
    // Fully-observed mask with the opposite boundary peak (C = 0).
    observations.push(obs(&[Some(0.75), Some(0.65), Some(0.55)], 0, 200_000));
    // A large balanced pair: the integrand is a near-delta at 1/2, sharp
    // enough to underflow between quadrature nodes.
    observations.push(obs(&[Some(0.45), None, Some(0.35)], 300_000, 300_000));
    // Zero counts under a partial mask: the pure truncated-normal cell.
    observations.push(obs(&[None, Some(0.6), None], 0, 0));
    observations
}

/// The scalar oracle's `(log Z, E[h], mu)` for one observation —
/// per-observation conditioning plus one `binomial_normal_moments` call,
/// exactly as the pre-kernel code did it, and the conditional mean `mu`.
fn scalar_moments(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    obs: &CpeObservation,
) -> (f64, f64, f64) {
    let (idx, values) = observed_domains(obs, NUM_DOMAINS);
    let cond = model.condition_on(NUM_DOMAINS, &idx, &values).unwrap();
    let (c, x) = (obs.correct as f64, obs.wrong as f64);
    let (log_z, mean) = binomial_normal_moments(quadrature, cond.mean, cond.std_dev(), c, x);
    (log_z, mean, cond.mean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn likelihood_over_extreme_mask_groups_matches_scalar_bitwise(
        observations in prop::collection::vec(large_count_observation(), 1..8),
    ) {
        let observations = with_edge_observations(observations);
        let est = estimator();
        let model = est.model().clone();
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );

        let per_obs = kernel.per_observation_log_likelihood(&model).unwrap();
        prop_assert_eq!(per_obs.len(), observations.len());
        for (i, obs) in observations.iter().enumerate() {
            // Bit-exact per term — `-inf` underflow included.
            prop_assert_eq!(
                per_obs[i],
                reference_worker_log_likelihood(&model, &quadrature, NUM_DOMAINS, obs),
                "observation {}", i
            );
        }
        prop_assert_eq!(
            kernel.log_likelihood(&model).unwrap(),
            per_obs.iter().sum::<f64>()
        );
    }

    #[test]
    fn predictions_over_extreme_mask_groups_match_scalar_bitwise(
        observations in prop::collection::vec(large_count_observation(), 1..8),
    ) {
        let observations = with_edge_observations(observations);
        let est = estimator();
        let model = est.model().clone();
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );

        let predictions = kernel.predict(&model).unwrap();
        prop_assert_eq!(predictions.len(), observations.len());
        for (i, (lz, mean, mu)) in observations
            .iter()
            .map(|obs| scalar_moments(&model, &quadrature, obs))
            .enumerate()
        {
            // Bit-exact against the scalar oracle; where the oracle
            // underflows, the conditional mean.
            let expected = if lz.is_finite() && mean.is_finite() { mean } else { mu };
            prop_assert_eq!(predictions[i], expected.clamp(0.0, 1.0), "observation {}", i);
        }
    }
}
