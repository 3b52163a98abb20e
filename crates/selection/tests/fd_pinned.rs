//! Pins the historical central-difference CPE update bit-for-bit to the
//! values it produced when the gradient seam landed, before the closed-form
//! Eq. 6–7 gradient became the estimator's update.
//!
//! That update now lives test-side as [`reference::ReferenceEstimator::update`]
//! (a literal transcription of the historical per-observation loop over the
//! `reference::gradient_with_step` stencil), seeded here from a live
//! [`CrossDomainEstimator`]. It is the cross-check for the closed-form
//! gradient, so its numbers must never drift: the pinned bits below were
//! captured from the tree where the estimator itself ran this update, and
//! must survive every later change to what the reference shares with the
//! estimator — the initial model, the `c4u_stats` binomial×normal integrand
//! (the near-endpoint peak-bracketing points never win the max for
//! interior-peaked integrands, so `log Z` is unchanged), the
//! conditional-variance floor on the Schur-complement path (inactive for
//! well-conditioned covariances) and the PSD projection.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{CpeConfig, CpeObservation, CrossDomainEstimator};
use reference::ReferenceEstimator;

/// Exact `f64` bits of the post-`update()` mean captured on the PR-2 tree.
const PINNED_MEAN_BITS: [u64; 4] = [
    4603808213621252576,
    4605077693793012777,
    4602898294314389516,
    4602690248533233632,
];

/// Exact `f64` bits of the post-`update()` covariance (row-major 4x4).
const PINNED_COV_BITS: [u64; 16] = [
    4591156436142000206,
    4584085846805277720,
    4586391035903731276,
    4568758629588779087,
    4584085846805277720,
    4589234965452294322,
    4581313044257155419,
    4580086048590941910,
    4586391035903731276,
    4581313044257155419,
    4590930767946597966,
    4586045058611892352,
    4568758629588779087,
    4580086048590941910,
    4586045058611892352,
    4590081273077219440,
];

/// Exact `f64` bits of the post-`update()` total log-likelihood.
const PINNED_LL_BITS: u64 = 13851409114548962196;

#[test]
fn finite_difference_update_is_unchanged_from_pr2() {
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    let config = CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 3,
        ..Default::default()
    };
    let est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
    let mut reference = ReferenceEstimator::from_estimator(&est, config);
    let observations = vec![
        CpeObservation {
            prior_accuracies: vec![Some(0.9), Some(0.9), Some(0.8)],
            correct: 9,
            wrong: 1,
        },
        CpeObservation {
            prior_accuracies: vec![Some(0.7), Some(0.8), Some(0.6)],
            correct: 7,
            wrong: 3,
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
    reference.update(&observations);

    let mean_bits: Vec<u64> = reference.mean.iter().map(|m| m.to_bits()).collect();
    assert_eq!(
        mean_bits, PINNED_MEAN_BITS,
        "mean drifted from the PR-2 pin"
    );
    let cov_bits: Vec<u64> = reference
        .covariance
        .as_slice()
        .iter()
        .map(|c| c.to_bits())
        .collect();
    assert_eq!(
        cov_bits, PINNED_COV_BITS,
        "covariance drifted from the PR-2 pin"
    );
    let ll = reference.log_likelihood(&observations);
    assert_eq!(
        ll.to_bits(),
        PINNED_LL_BITS,
        "log-likelihood drifted from the PR-2 pin (value {ll})"
    );
}
