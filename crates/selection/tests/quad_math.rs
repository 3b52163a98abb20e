//! Exact-vs-FastVector agreement of the CPE likelihood kernel.
//!
//! The `c4u_stats::batch` math-mode contract (~1e-12 relative per quadrature
//! cell) must survive the kernel's conditioning and mask-grouping layers: for
//! randomly generated observation sets and a realistic profile-derived model,
//! a [`QuadratureMath::FastVector`] kernel must track the pinned
//! [`QuadratureMath::Exact`] kernel on every per-observation log-likelihood,
//! prediction, and E-step posterior moment to well inside any
//! selection-relevant tolerance.

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{
    CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator, QuadratureMath,
};
use c4u_stats::GaussLegendre;
use proptest::prelude::*;

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

fn observation_strategy() -> impl Strategy<Value = CpeObservation> {
    (
        0u8..8,
        0.05..0.95f64,
        0.05..0.95f64,
        0.05..0.95f64,
        0usize..40,
        0usize..40,
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

/// Relative agreement helper: `|a - b| <= tol * (1 + max(|a|, |b|))`.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fast_vector_kernel_tracks_exact(
        observations in prop::collection::vec(observation_strategy(), 1..10),
        order in 2usize..48,
    ) {
        let est = estimator();
        let model = est.model().clone();
        let quadrature = GaussLegendre::new(order);
        let exact = CpeLikelihoodKernel::new_with_math(
            &observations,
            NUM_DOMAINS,
            &quadrature,
            QuadratureMath::Exact,
        );
        let fast = CpeLikelihoodKernel::new(&observations, NUM_DOMAINS, &quadrature);
        prop_assert_eq!(QuadratureMath::default(), QuadratureMath::FastVector);

        // Per-observation log-likelihood: these cells are well inside the
        // dynamic range (bounded counts, clamped accuracies), so plain
        // relative agreement applies — no shifted-mass machinery needed.
        let ll_e = exact.per_observation_log_likelihood(&model).unwrap();
        let ll_f = fast.per_observation_log_likelihood(&model).unwrap();
        for (i, (&e, &f)) in ll_e.iter().zip(&ll_f).enumerate() {
            prop_assert!(close(e, f, 1e-11), "obs {}: log Z {} vs {}", i, e, f);
        }
        prop_assert!(close(
            exact.log_likelihood(&model).unwrap(),
            fast.log_likelihood(&model).unwrap(),
            1e-11
        ));

        // Predictions.
        let p_e = exact.predict(&model).unwrap();
        let p_f = fast.predict(&model).unwrap();
        for (i, (&e, &f)) in p_e.iter().zip(&p_f).enumerate() {
            prop_assert!((e - f).abs() <= 1e-11, "obs {}: prediction {} vs {}", i, e, f);
        }

        // The E-step: fused log-likelihood and per-member posterior moments.
        let s_e = exact.e_step(&model).unwrap();
        let s_f = fast.e_step(&model).unwrap();
        prop_assert!(close(s_e.log_likelihood, s_f.log_likelihood, 1e-11));
        for (i, (e, f)) in s_e.moments.iter().zip(&s_f.moments).enumerate() {
            prop_assert!(close(e.mean, f.mean, 1e-9), "obs {}: E[h] {} vs {}", i, e.mean, f.mean);
            prop_assert!(
                close(e.variance, f.variance, 1e-9),
                "obs {}: Var[h] {} vs {}", i, e.variance, f.variance
            );
        }
    }
}
