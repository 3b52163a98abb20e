//! Pins the batched-quadrature contract of the CPE hot paths, mirroring the
//! factorisation-count pin in `kernel_equivalence.rs`.
//!
//! The `c4u_stats` sweep counters must show that a likelihood evaluation and a
//! `predict_batch` pass cost `O(unique_masks)` batched structure-of-arrays
//! sweeps — one per mask group, **not** one scalar
//! `binomial_normal_moments`/`binomial_normal_log_z` call per worker — that a
//! CPE stage round costs one E-step sweep per mask group per evaluated model
//! and no separate prediction sweep, and that the scalar functions survive
//! purely as the cross-check oracle (zero scalar evaluations on the hot
//! paths). Output equality with the scalar
//! per-observation path is pinned bit for bit against the shared reference
//! transcription; there is no accepted non-bit-exactness.

mod reference;

use c4u_crowd_sim::{generate, DatasetConfig, HistoricalProfile, Platform};
use c4u_selection::{
    num_prior_domains, CpeConfig, CpeObservation, CpeStage, CrossDomainEstimator, EstimationStage,
    MaskGroups, QuadratureMath, RoundContext, RoundHeader, StageInit,
};
use c4u_stats::{batched_quadrature_sweeps, scalar_quadrature_evaluations};
use reference::{ReferenceConfig, ReferenceEstimator};

fn profiles() -> Vec<HistoricalProfile> {
    vec![
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ]
}

/// Observation set with 7 workers over 4 distinct masks — fully-observed
/// (repeated), two partial masks, and the all-missing mask — so per-worker and
/// per-mask costs are distinguishable.
fn mixed_observations() -> Vec<CpeObservation> {
    fn obs(mask: &[Option<f64>], correct: usize, wrong: usize) -> CpeObservation {
        CpeObservation {
            prior_accuracies: mask.to_vec(),
            correct,
            wrong,
        }
    }
    vec![
        obs(&[Some(0.9), Some(0.9), Some(0.8)], 9, 1),
        obs(&[Some(0.7), Some(0.8), Some(0.6)], 7, 3),
        obs(&[Some(0.4), None, Some(0.3)], 3, 7),
        obs(&[None, None, None], 5, 5),
        obs(&[Some(0.5), Some(0.6), Some(0.4)], 5, 5),
        obs(&[Some(0.8), None, Some(0.7)], 8, 2),
        obs(&[None, Some(0.6), None], 4, 6),
    ]
}

const UNIQUE_MASKS: u64 = 4;

fn estimator(config: CpeConfig) -> CrossDomainEstimator {
    let profiles = profiles();
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config).unwrap()
}

fn counters() -> (u64, u64) {
    (batched_quadrature_sweeps(), scalar_quadrature_evaluations())
}

#[test]
fn likelihood_costs_one_batched_sweep_per_unique_mask() {
    let est = estimator(CpeConfig::default());
    let observations = mixed_observations();
    let workers = observations.len() as u64;
    assert!(UNIQUE_MASKS < workers);

    let (sweeps_before, scalar_before) = counters();
    est.log_likelihood(&observations).unwrap();
    let (sweeps_after, scalar_after) = counters();

    // One batched E-step sweep per mask group — the empty mask included — and
    // no scalar fallback anywhere on the path.
    assert_eq!(sweeps_after - sweeps_before, UNIQUE_MASKS);
    assert_eq!(scalar_after, scalar_before);
}

#[test]
fn predict_batch_costs_one_batched_sweep_per_unique_mask() {
    let est = estimator(CpeConfig::default());
    let observations = mixed_observations();

    let (sweeps_before, scalar_before) = counters();
    est.predict_batch(&observations).unwrap();
    let (sweeps_after, scalar_after) = counters();

    assert_eq!(sweeps_after - sweeps_before, UNIQUE_MASKS);
    assert_eq!(scalar_after, scalar_before);
}

#[test]
fn a_cpe_stage_round_costs_one_sweep_per_mask_per_e_step() {
    // RW-1's first round, every mask group within one sweep block, so every
    // sweep runs (and is counted) on this thread.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 5).unwrap();
    let ids = platform.worker_ids();
    let mut stage = CpeStage::new(CpeConfig::default());
    let d = {
        let profiles = platform.profiles();
        let d = num_prior_domains(&profiles);
        stage
            .initialize(&StageInit {
                profiles: &profiles,
                num_prior_domains: d,
                initial_target_accuracy: 0.5,
            })
            .unwrap();
        d
    };
    let record = platform.assign_learning_batch(&ids, 6).unwrap();
    let profiles: Vec<&HistoricalProfile> = record
        .sheets
        .iter()
        .map(|s| platform.profile(s.worker).unwrap())
        .collect();
    let ctx = RoundContext {
        header: RoundHeader {
            round: 1,
            total_rounds: 3,
            delta: 0.1,
            sheets: &record.sheets,
        },
        profiles: &profiles,
        cumulative_tasks: &[0.0, 6.0],
        num_shards: 2,
    };
    let observations: Vec<CpeObservation> = record
        .sheets
        .iter()
        .zip(&profiles)
        .map(|(sheet, profile)| {
            CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
        })
        .collect();
    let masks = MaskGroups::build(&observations, d).num_unique_masks() as u64;

    let (sweeps_before, scalar_before) = counters();
    let scores = stage.estimate(&ctx, &[]).unwrap();
    let (sweeps_after, scalar_after) = counters();

    // The start's E-step and one per epoch; the scores are the kept
    // model's E-step means, not a further sweep.
    let estimator = stage.estimator().unwrap();
    let epochs = estimator.last_fit().unwrap().epochs as u64;
    assert!(epochs >= 1, "{epochs} epochs");
    assert_eq!(sweeps_after - sweeps_before, (epochs + 1) * masks);
    assert_eq!(scalar_after, scalar_before);
    assert_eq!(scores, estimator.predict_batch(&observations).unwrap());
}

#[test]
fn analytic_update_costs_one_batched_sweep_per_mask_per_epoch() {
    let config = CpeConfig {
        epochs: 3,
        ..CpeConfig::default()
    };
    let mut est = estimator(config);
    let observations = mixed_observations();

    let (sweeps_before, scalar_before) = counters();
    est.update(&observations).unwrap();
    let (sweeps_after, scalar_after) = counters();

    // One E-step sweep per mask group at the start and after every epoch's
    // M-step.
    let epochs = est.last_fit().unwrap().epochs as u64;
    assert!(
        (1..=config.epochs as u64).contains(&epochs),
        "{epochs} epochs"
    );
    assert_eq!(sweeps_after - sweeps_before, (epochs + 1) * UNIQUE_MASKS);
    assert_eq!(scalar_after, scalar_before);
}

#[test]
fn batched_outputs_equal_scalar_reference_bit_for_bit() {
    // The batched path's counter discipline would be worthless if it bought
    // speed with drift: re-pin exact equality against the per-observation
    // scalar transcription right next to the counter pins, in the math that
    // is bit-identical to the scalar oracle.
    let config = CpeConfig {
        quadrature_math: QuadratureMath::Exact,
        ..CpeConfig::default()
    };
    let est = estimator(config);
    let observations = mixed_observations();
    let reference = ReferenceEstimator::from_estimator(&est, ReferenceConfig::PAPER);

    assert_eq!(
        est.log_likelihood(&observations).unwrap(),
        reference.log_likelihood(&observations)
    );
    assert_eq!(
        est.predict_batch(&observations).unwrap(),
        reference.predict_batch(&observations)
    );
    // The reference ran the scalar oracle: the counter must have moved.
    assert!(scalar_quadrature_evaluations() > 0);
}
