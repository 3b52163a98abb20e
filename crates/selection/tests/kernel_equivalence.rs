//! Regression tests proving the batched mask-grouped likelihood kernel
//! preserved the CPE estimator's numerics **bit-for-bit**.
//!
//! [`reference::ReferenceEstimator`] is a literal transcription of the
//! historical per-observation code path: `condition_on` once per observation
//! per model evaluation and per-observation prediction. The tests seed it with
//! the exact state of a [`CrossDomainEstimator`] and require exact `f64`
//! equality of the log-likelihood and `predict_batch` on observation sets that
//! mix fully-observed, partially-missing, and all-missing masks. The E-step
//! is pinned against the same transcription: its posterior means are the
//! Eq. 8 predictions and its log-likelihood is Eq. 5's, bit for bit. The
//! transcription integrates with the scalar oracle, so these tests run the
//! kernel in `QuadratureMath::Exact`, the mode that is bit-identical to it.
//!
//! A further test pins the *factorisation count*: one observed-block Cholesky
//! per unique non-empty mask per objective evaluation — one E-step per EM
//! epoch plus the start — and one regression conditioner per missing domain
//! of each mask per M-step, never one per worker: the acceptance criterion of
//! the batched-kernel refactor.
//!
//! The last test pins the blocked E-step sweep on a pool whose largest mask
//! group spans several blocks: every posterior moment and the log-likelihood
//! must equal a transcription of the serial per-member loop, in the default
//! math and bit for bit,
//! whatever the machine's thread count (the kernel's unit tests pin thread
//! counts 1–8 against each other).

mod reference;

use c4u_crowd_sim::HistoricalProfile;
use c4u_selection::{
    observed_domains, CpeConfig, CpeLikelihoodKernel, CpeObservation, CrossDomainEstimator, EStep,
    PosteriorMoments, QuadratureMath,
};
use c4u_stats::{
    conditioning_factorizations, BinomialNormalBatch, BinomialNormalMoments, GaussLegendre,
    MultivariateNormal,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{reference_log_likelihood, reference_predict, ReferenceConfig, ReferenceEstimator};

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
        epochs: 4,
        ..Default::default()
    }
}

/// [`fast_config`] in the math the scalar reference transcription matches
/// bit for bit.
fn exact_config() -> CpeConfig {
    CpeConfig {
        quadrature_math: QuadratureMath::Exact,
        ..fast_config()
    }
}

fn estimator(config: CpeConfig) -> CrossDomainEstimator {
    let profiles = profiles();
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    CrossDomainEstimator::from_profiles(&refs, config).unwrap()
}

#[test]
fn log_likelihood_matches_reference_bit_for_bit() {
    let config = exact_config();
    let est = estimator(config);
    let reference = ReferenceEstimator::from_estimator(&est, ReferenceConfig::fast(config.epochs));
    let observations = mixed_observations();
    // Exact f64 equality: the kernel must not change a single bit.
    assert_eq!(
        est.log_likelihood(&observations).unwrap(),
        reference.log_likelihood(&observations)
    );
}

#[test]
fn predict_batch_matches_reference_bit_for_bit() {
    let config = exact_config();
    let mut est = estimator(config);
    let observations = mixed_observations();
    // Exercise the post-update model, not just the initial one.
    let updated = est.update(&observations).unwrap();
    let reference = ReferenceEstimator::from_estimator(&est, ReferenceConfig::fast(config.epochs));
    let expected = reference.predict_batch(&observations);
    assert_eq!(est.predict_batch(&observations).unwrap(), expected);
    // The update's own predictions are those of the model it keeps.
    assert_eq!(updated, expected);
    // The single-observation path is the batch path.
    for obs in &observations {
        assert_eq!(est.predict(obs).unwrap(), reference.predict(obs));
    }
}

#[test]
fn e_step_means_are_the_eq8_predictions_bit_for_bit() {
    let mut est = estimator(exact_config());
    let observations = mixed_observations();
    let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
    let kernel =
        CpeLikelihoodKernel::new_with_math(&observations, 3, &quadrature, QuadratureMath::Exact);
    let initial = est.model().clone();
    est.update(&observations).unwrap();
    for model in [&initial, est.model()] {
        let e_step = kernel.e_step(model).unwrap();
        let predictions = reference_predict(model, &quadrature, 3, &observations);
        for (moments, prediction) in e_step.moments.iter().zip(predictions) {
            assert_eq!(moments.mean, prediction);
        }
        assert_eq!(e_step.log_likelihood, kernel.log_likelihood(model).unwrap());
        assert_eq!(
            e_step.log_likelihood,
            reference_log_likelihood(model, &quadrature, 3, &observations)
        );
    }
}

#[test]
fn update_factorizes_once_per_unique_mask_per_objective_evaluation() {
    let config = fast_config();
    let mut est = estimator(config);
    let observations = mixed_observations();

    // mixed_observations: 4 distinct masks ({0,1,2}, {0,2}, {}, {1}), of which
    // 3 are non-empty (the all-missing mask conditions on nothing and never
    // factorises). They miss 0 + 1 + 3 + 2 = 6 prior domains in all.
    let non_empty_masks = 3u64;
    let missing_domains = 6u64;
    let workers = observations.len() as u64;
    assert!(non_empty_masks < workers);

    let before = conditioning_factorizations();
    est.update(&observations).unwrap();
    let spent = conditioning_factorizations() - before;

    // Every E-step (the start and one per epoch) factorises once per unique
    // non-empty mask, and every M-step once per missing domain of each mask
    // (its regression on the observed domains and h) — not once per worker,
    // which is the entire point of the batched kernel.
    let epochs = est.last_fit().unwrap().epochs as u64;
    assert!(
        (1..=config.epochs as u64).contains(&epochs),
        "{epochs} epochs"
    );
    let e_steps = (epochs + 1) * non_empty_masks;
    assert_eq!(spent, e_steps + epochs * missing_domains);
    assert!(e_steps < (epochs + 1) * workers);

    // predict_batch: one factorisation per unique non-empty mask, total.
    let before = conditioning_factorizations();
    est.predict_batch(&observations).unwrap();
    assert_eq!(conditioning_factorizations() - before, non_empty_masks);
}

/// A pool large enough that its fully-observed mask group spans several
/// E-step sweep blocks (1024 members each) with a ragged last block, plus
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

/// Transcription of the serial per-member E-step loop that the blocked sweep
/// runs: every member conditioned with
/// [`c4u_stats::Conditioner::condition`], one
/// [`BinomialNormalBatch::moments`] sweep over the whole mask group, the
/// posterior variance `E[(h - m)^2] - (E[h] - m)^2` per member (the
/// conditional prior for an underflowed one), and the log-likelihood summed
/// in observation order.
fn serial_e_step(
    model: &MultivariateNormal,
    batch: &BinomialNormalBatch,
    d: usize,
    observations: &[CpeObservation],
) -> EStep {
    // Mask groups in first-occurrence order.
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (position, obs) in observations.iter().enumerate() {
        let (idx, _) = observed_domains(obs, d);
        match groups.iter_mut().find(|(mask, _)| *mask == idx) {
            Some((_, members)) => members.push(position),
            None => groups.push((idx, vec![position])),
        }
    }
    let mut moments = vec![PosteriorMoments::default(); observations.len()];
    for (idx, members) in &groups {
        let conditioner = model.conditioner(d, idx).unwrap();
        let sigma = conditioner.variance().sqrt();
        let v = sigma * sigma;
        let (mut mu, mut c, mut x) = (Vec::new(), Vec::new(), Vec::new());
        for &position in members {
            let (_, values) = observed_domains(&observations[position], d);
            let o = &observations[position];
            mu.push(conditioner.condition(&values).unwrap().mean);
            c.push(o.correct as f64);
            x.push(o.wrong as f64);
        }
        let mut out = vec![BinomialNormalMoments::default(); members.len()];
        batch.moments(sigma, &mu, &c, &x, &mut out);
        for ((&position, out), &m) in members.iter().zip(&out).zip(&mu) {
            moments[position] = if out.log_z.is_finite() {
                PosteriorMoments {
                    log_z: out.log_z,
                    mean: out.mean,
                    variance: (out.second - (out.mean - m) * (out.mean - m)).max(0.0),
                }
            } else {
                PosteriorMoments {
                    log_z: out.log_z,
                    mean: m,
                    variance: v,
                }
            };
        }
    }
    let mut log_likelihood = 0.0;
    for term in &moments {
        log_likelihood += term.log_z;
    }
    EStep {
        log_likelihood,
        moments,
    }
}

#[test]
fn blocked_gradient_sweep_matches_the_serial_member_loop_bit_for_bit() {
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

    // The E-step at the initial model and at the model one update leaves:
    // the log-likelihood and every member's moments.
    let mut est = estimator(fast_config());
    let batch = BinomialNormalBatch::new(&quadrature);
    let initial = est.model().clone();
    est.update(&observations).unwrap();
    assert_ne!(
        est.mean(),
        initial.mean().as_slice(),
        "the update must move the model"
    );
    for model in [&initial, est.model()] {
        let blocked = kernel.e_step(model).unwrap();
        let serial = serial_e_step(model, &batch, 3, &observations);
        assert_eq!(blocked, serial);
        assert!(blocked.log_likelihood.is_finite());
    }
}
