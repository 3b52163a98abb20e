//! Regression tests proving the batched mask-grouped likelihood kernel
//! preserved the CPE estimator's numerics **bit-for-bit**.
//!
//! [`reference::ReferenceEstimator`] is a literal transcription of the
//! historical per-observation code path: `condition_on` once per observation
//! per model evaluation and per-observation prediction. The tests seed it with
//! the exact state of a [`CrossDomainEstimator`] and require exact `f64`
//! equality of the log-likelihood and `predict_batch` on observation sets that
//! mix fully-observed, partially-missing, and all-missing masks.
//!
//! A further test pins the *factorisation count*: one observed-block Cholesky
//! per unique non-empty mask per objective evaluation — one evaluation per
//! epoch for the closed-form gradient, i.e. `epochs x unique_masks` per
//! `update()` — the acceptance criterion of the batched-kernel refactor.
//!
//! The last test pins the analytic oracle's blocked gradient sweep on a pool
//! whose largest mask group spans several blocks: gradient, log-likelihood and
//! post-`update` state must equal a transcription of the serial per-member
//! loop, bit for bit, whatever the machine's thread count.

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_linalg::PackedLowerTriangle;
use c4u_selection::{
    observed_domains, CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator,
};
use c4u_stats::{
    conditioning_factorizations, nearest_positive_definite, BinomialNormalBatch, GaussLegendre,
    Matrix, MultivariateNormal, Vector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{from_lower_triangle, lower_triangle, ReferenceEstimator};

fn profiles() -> Vec<HistoricalProfile> {
    vec![
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::new(vec![Some(0.4), None, Some(0.3)], vec![10, 0, 10]).unwrap(),
    ]
}

/// Observation set mixing every mask shape the kernel has to group: the
/// fully-observed mask (repeated), two distinct partial masks (one repeated),
/// and the all-missing mask.
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

fn fast_config() -> CpeConfig {
    CpeConfig {
        // Larger rates and few epochs: real parameter movement, fast test.
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 4,
        ..Default::default()
    }
}

fn estimator(config: CpeConfig) -> CrossDomainEstimator {
    let profiles = profiles();
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config).unwrap()
}

#[test]
fn log_likelihood_matches_reference_bit_for_bit() {
    let config = fast_config();
    let est = estimator(config);
    let reference = ReferenceEstimator::from_estimator(&est, config);
    let observations = mixed_observations();
    // Exact f64 equality: the kernel must not change a single bit.
    assert_eq!(
        est.log_likelihood(&observations).unwrap(),
        reference.log_likelihood(&observations)
    );
}

#[test]
fn predict_batch_matches_reference_bit_for_bit() {
    for use_posterior in [true, false] {
        let config = CpeConfig {
            use_posterior_prediction: use_posterior,
            ..fast_config()
        };
        let mut est = estimator(config);
        let observations = mixed_observations();
        // Exercise the post-update model, not just the initial one.
        est.update(&observations).unwrap();
        let reference = ReferenceEstimator::from_estimator(&est, config);
        assert_eq!(
            est.predict_batch(&observations).unwrap(),
            reference.predict_batch(&observations)
        );
        // The single-observation path is the batch path.
        for obs in &observations {
            assert_eq!(est.predict(obs).unwrap(), reference.predict(obs));
        }
    }
}

#[test]
fn update_factorizes_once_per_unique_mask_per_objective_evaluation() {
    let config = fast_config();
    let mut est = estimator(config);
    let observations = mixed_observations();

    // mixed_observations: 4 distinct masks ({0,1,2}, {0,2}, {}, {1}), of which
    // 3 are non-empty (the all-missing mask conditions on nothing and never
    // factorises).
    let non_empty_masks = 3u64;
    let workers = observations.len() as u64;
    assert!(non_empty_masks < workers);

    let before = conditioning_factorizations();
    est.update(&observations).unwrap();
    let spent = conditioning_factorizations() - before;

    // The closed-form gradient evaluates the model once per epoch; each
    // evaluation factorises once per unique non-empty mask — not once per
    // worker, which is the entire point of the batched kernel.
    let expected = config.epochs as u64 * non_empty_masks;
    assert_eq!(spent, expected);
    let per_worker_cost = config.epochs as u64 * workers;
    assert!(spent < per_worker_cost);

    // predict_batch: one factorisation per unique non-empty mask, total.
    let before = conditioning_factorizations();
    est.predict_batch(&observations).unwrap();
    assert_eq!(conditioning_factorizations() - before, non_empty_masks);
}

/// A pool large enough that its fully-observed mask group spans several
/// gradient-sweep blocks (1024 members each) with a ragged last block, plus
/// partial and all-missing masks.
fn large_mixed_observations() -> Vec<CpeObservation> {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut accuracy = move || Some(0.05 + 0.9 * rng.gen::<f64>());
    (0..6000)
        .map(|i| {
            let full = [accuracy(), accuracy(), accuracy()];
            let prior_accuracies = match i % 10 {
                7 => vec![full[0], None, full[2]],
                8 => vec![None, None, None],
                9 => vec![None, full[1], None],
                _ => full.to_vec(),
            };
            let correct = (i * 7) % 17;
            CpeObservation {
                prior_accuracies,
                correct,
                wrong: 16 - correct,
            }
        })
        .collect()
}

/// Transcription of the serial per-member gradient loop that the blocked
/// sweep replaced: every member conditioned with
/// [`c4u_stats::Conditioner::condition_full`], one
/// [`BinomialNormalBatch::log_z_gradients`] sweep over the whole mask group,
/// then the group reduction in member order. Returns the packed gradient and
/// the log-likelihood, or `None` where the estimator's oracle falls back to
/// the zero gradient.
fn serial_gradient(
    model: &MultivariateNormal,
    batch: &BinomialNormalBatch,
    d: usize,
    observations: &[CpeObservation],
) -> Option<(Vec<f64>, f64)> {
    // Mask groups in first-occurrence order.
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (position, obs) in observations.iter().enumerate() {
        let (idx, _) = observed_domains(obs, d);
        match groups.iter_mut().find(|(mask, _)| *mask == idx) {
            Some((_, members)) => members.push(position),
            None => groups.push((idx, vec![position])),
        }
    }
    let mut d_mean = vec![0.0; d + 1];
    let mut d_cov = PackedLowerTriangle::zeros(d + 1);
    let mut per_obs_log_z = vec![0.0; observations.len()];
    for (idx, members) in &groups {
        let conditioner = model.conditioner(d, idx).ok()?;
        let sigma = conditioner.variance().sqrt();
        let alpha = conditioner.weights();
        let mut obs = Vec::new();
        let mut solves = Vec::new();
        for &position in members {
            let (_, values) = observed_domains(&observations[position], d);
            let (cond, w) = conditioner.condition_full(&values).ok()?;
            let o = &observations[position];
            obs.push((cond.mean, o.correct as f64, o.wrong as f64));
            solves.push(w);
        }
        let grads = batch.log_z_gradients(sigma, &obs);
        let mut sum_d_mean = 0.0;
        let mut sum_d_var = 0.0;
        let mut dm_w = vec![0.0; idx.len()];
        for ((&position, grad), w) in members.iter().zip(&grads).zip(&solves) {
            per_obs_log_z[position] = grad.log_z;
            if !grad.is_finite() {
                continue;
            }
            sum_d_mean += grad.d_mean;
            sum_d_var += grad.d_variance;
            for (acc, &wi) in dm_w.iter_mut().zip(w.as_slice()) {
                *acc += grad.d_mean * wi;
            }
        }
        d_mean[d] += sum_d_mean;
        for (g, &gp) in idx.iter().enumerate() {
            d_mean[gp] -= sum_d_mean * alpha[g];
        }
        d_cov.add(d, d, sum_d_var).ok()?;
        for (g, &gp) in idx.iter().enumerate() {
            d_cov
                .add(d, gp, dm_w[g] - 2.0 * sum_d_var * alpha[g])
                .ok()?;
        }
        d_cov.add_sym_outer(-1.0, idx, alpha, &dm_w).ok()?;
        d_cov.add_sym_outer(sum_d_var, idx, alpha, alpha).ok()?;
    }
    let mut log_likelihood = 0.0;
    for term in &per_obs_log_z {
        log_likelihood += term;
    }
    d_mean.extend_from_slice(d_cov.as_slice());
    Some((d_mean, log_likelihood))
}

/// The analytic `update` loop over [`serial_gradient`]: same parameter
/// packing, PSD projection, clamps and learning rates as the estimator.
fn serial_analytic_update(
    est: &CrossDomainEstimator,
    config: CpeConfig,
    observations: &[CpeObservation],
) -> (Vec<f64>, Matrix) {
    let d = est.num_prior_domains();
    let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
    let batch = BinomialNormalBatch::new(&quadrature);
    let mut mean = est.mean().to_vec();
    let mut covariance = est.covariance().clone();
    for _ in 0..config.epochs {
        let mut params = mean.clone();
        params.extend(lower_triangle(&covariance));
        let model = nearest_positive_definite(
            &from_lower_triangle(&params[d + 1..], d + 1),
            CpeConfig::MIN_VARIANCE,
        )
        .ok()
        .and_then(|cov| MultivariateNormal::new(Vector::from_slice(&params[..d + 1]), cov).ok());
        let grad: Vec<f64> = match model.and_then(|m| serial_gradient(&m, &batch, d, observations))
        {
            Some((packed, _)) => packed.iter().map(|v| -v).collect(),
            None => vec![0.0; params.len()],
        };
        for (i, value) in mean.iter_mut().enumerate() {
            let g = grad[i].clamp(-1e6, 1e6);
            *value = (*value - config.mean_learning_rate * g).clamp(0.01, 0.99);
        }
        let mut tri = lower_triangle(&covariance);
        for (j, value) in tri.iter_mut().enumerate() {
            let g = grad[d + 1 + j].clamp(-1e6, 1e6);
            *value -= config.covariance_learning_rate * g;
        }
        covariance =
            nearest_positive_definite(&from_lower_triangle(&tri, d + 1), CpeConfig::MIN_VARIANCE)
                .unwrap();
    }
    (mean, covariance)
}

#[test]
fn blocked_gradient_sweep_matches_the_serial_member_loop_bit_for_bit() {
    let config = CpeConfig {
        mean_learning_rate: 1e-4,
        covariance_learning_rate: 1e-4,
        epochs: 3,
        ..Default::default()
    };
    let observations = large_mixed_observations();
    let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
    let kernel = CpeLikelihoodKernel::new(&observations, 3, &quadrature);
    let largest = kernel
        .groups()
        .groups()
        .iter()
        .map(|group| group.members().len())
        .max()
        .unwrap();
    assert!(
        largest > 2 * 1024 && largest % 1024 != 0,
        "{largest} members"
    );

    // One gradient evaluation: log-likelihood and every packed entry.
    let mut est = estimator(config);
    let model = est.model().clone();
    let blocked = kernel.log_likelihood_gradient(&model).unwrap();
    let batch = BinomialNormalBatch::new(&quadrature);
    let (packed, log_likelihood) = serial_gradient(&model, &batch, 3, &observations).unwrap();
    assert_eq!(blocked.packed(), packed);
    assert_eq!(blocked.log_likelihood, log_likelihood);

    // A whole update: mean and covariance after every epoch's blocked sweep.
    let (mean, covariance) = serial_analytic_update(&est, config, &observations);
    est.update(&observations).unwrap();
    assert_eq!(est.mean(), mean.as_slice());
    assert_eq!(est.covariance().as_slice(), covariance.as_slice());
    assert_ne!(
        mean,
        estimator(config).mean(),
        "the update must move the model"
    );
}
