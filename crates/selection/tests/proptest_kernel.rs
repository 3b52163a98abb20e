//! Property-based tests of the batched likelihood kernel.
//!
//! For randomly generated observation sets — arbitrary missing-domain masks,
//! accuracies, and answer counts, with the all-missing and fully-observed
//! masks force-included in every case — the mask-grouped kernel must agree
//! with the shared per-observation reference (`tests/reference/mod.rs`)
//! **exactly** on:
//!
//! * the total and per-observation marginal log-likelihood (Eq. 5),
//! * the central-difference gradient (`reference::gradient_with_step`) of the
//!   packed-parameter objective (the quantity the historical Eq. 6–7 update
//!   consumed), and
//! * the batch predictions (Eq. 8).
//!
//! The reference integrates with the scalar oracle, so the kernel runs in
//! `QuadratureMath::Exact`, the mode that is bit-identical to it.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{
    observed_domains, CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator,
    QuadratureMath,
};
use c4u_stats::{nearest_positive_definite, GaussLegendre, MultivariateNormal, Vector};
use proptest::prelude::*;
use reference::{
    from_lower_triangle, gradient_with_step, lower_triangle, reference_log_likelihood,
    reference_predict, reference_worker_log_likelihood,
};

const NUM_DOMAINS: usize = 3;

/// A live estimator provides a realistic model (profile-derived moments plus
/// random correlations) for the kernel to evaluate against.
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

/// Strategy: one observation with a random observed-domain mask (3 mask bits),
/// random accuracies, and random answer counts.
fn observation_strategy() -> impl Strategy<Value = CpeObservation> {
    (
        0u8..8,
        0.05..0.95f64,
        0.05..0.95f64,
        0.05..0.95f64,
        0usize..11,
        0usize..11,
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

/// Appends the two boundary masks so every case exercises them.
fn with_boundary_masks(mut observations: Vec<CpeObservation>) -> Vec<CpeObservation> {
    observations.push(CpeObservation {
        prior_accuracies: vec![None, None, None],
        correct: 4,
        wrong: 6,
    });
    observations.push(CpeObservation {
        prior_accuracies: vec![Some(0.75), Some(0.65), Some(0.55)],
        correct: 7,
        wrong: 3,
    });
    observations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_log_likelihood_matches_reference(observations in prop::collection::vec(observation_strategy(), 1..8)) {
        let observations = with_boundary_masks(observations);
        let est = estimator();
        let model = est.model().clone();
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );

        let batched = kernel.log_likelihood(&model).unwrap();
        let expected = reference_log_likelihood(&model, &quadrature, NUM_DOMAINS, &observations);
        prop_assert_eq!(batched, expected);

        // Per-observation terms agree too (and therefore so does any
        // reordering-sensitive consumer).
        let per_obs = kernel.per_observation_log_likelihood(&model).unwrap();
        prop_assert_eq!(per_obs.len(), observations.len());
        for (i, obs) in observations.iter().enumerate() {
            prop_assert_eq!(
                per_obs[i],
                reference_worker_log_likelihood(&model, &quadrature, NUM_DOMAINS, obs)
            );
        }
    }

    #[test]
    fn kernel_gradient_matches_reference(observations in prop::collection::vec(observation_strategy(), 1..6)) {
        let observations = with_boundary_masks(observations);
        let est = estimator();
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );

        let mut params = est.mean().to_vec();
        params.extend(lower_triangle(est.covariance()));

        let unpack = |p: &[f64]| -> Option<MultivariateNormal> {
            let mean = &p[..NUM_DOMAINS + 1];
            let cov = from_lower_triangle(&p[NUM_DOMAINS + 1..], NUM_DOMAINS + 1);
            let cov = nearest_positive_definite(&cov, CpeConfig::MIN_VARIANCE).ok()?;
            MultivariateNormal::new(Vector::from_slice(mean), cov).ok()
        };
        let batched_objective = |p: &[f64]| {
            unpack(p)
                .and_then(|model| kernel.log_likelihood(&model).ok())
                .map_or(1e12, |ll| -ll)
        };
        let reference_objective = |p: &[f64]| {
            unpack(p).map_or(1e12, |model| {
                -reference_log_likelihood(&model, &quadrature, NUM_DOMAINS, &observations)
            })
        };

        let batched = gradient_with_step(batched_objective, &params, 1e-5);
        let expected = gradient_with_step(reference_objective, &params, 1e-5);
        prop_assert_eq!(batched, expected);
    }

    #[test]
    fn kernel_predictions_match_reference(
        observations in prop::collection::vec(observation_strategy(), 1..8),
    ) {
        let observations = with_boundary_masks(observations);
        let est = estimator();
        let model = est.model().clone();
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );

        let batched = kernel.predict(&model).unwrap();
        let expected = reference_predict(&model, &quadrature, NUM_DOMAINS, &observations);
        prop_assert_eq!(batched, expected);
    }

    #[test]
    fn grouping_partitions_the_observations(observations in prop::collection::vec(observation_strategy(), 1..10)) {
        let observations = with_boundary_masks(observations);
        let quadrature = GaussLegendre::new(8);
        let kernel = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);
        let groups = kernel.groups();
        prop_assert_eq!(groups.num_observations(), observations.len());
        // Every observation appears exactly once, in the group whose mask it has.
        let mut seen = vec![false; observations.len()];
        for group in groups.groups() {
            for (j, &member) in group.members().iter().enumerate() {
                prop_assert!(!seen[member]);
                seen[member] = true;
                let (idx, vals) = observed_domains(&observations[member], NUM_DOMAINS);
                prop_assert_eq!(group.observed_idx(), idx.as_slice());
                let values: Vec<f64> = (0..idx.len()).map(|k| group.column(k)[j]).collect();
                prop_assert_eq!(values, vals);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert!(groups.num_unique_masks() <= observations.len());
        prop_assert!(groups.num_unique_masks() >= 1);
    }
}
