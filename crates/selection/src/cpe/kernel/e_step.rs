//! The E-step sweep of the CPE EM fit: each worker's posterior moments of its
//! target-domain accuracy, with the fused Eq. 5 log-likelihood and the Eq. 8
//! predictions.
//!
//! The Eq. 5 objective is `L = Σ_i log Z_i` with
//! `Z_i = ∫_0^1 h^{C_i} (1-h)^{X_i} N(h; m_i, v) dh`, where `(m_i, v)` are the
//! conditional mean and variance of the target accuracy given worker `i`'s
//! observed prior domains. [`c4u_stats::BinomialNormalBatch::moments`] (over
//! the kernel's shared SoA node tables) integrates, in one vectorised sweep
//! per block of a mask group (the variance — and therefore the quadrature
//! tables — is shared by every member of a group), the normaliser and the
//! first two moments of `h` under `p(h) ∝ h^C (1-h)^X N(h; m, v)`:
//!
//! ```text
//! E[h]         = M1 / Z
//! Var[h]       = M2 / Z - (E[h] - m)^2,   M2 = ∫ (h - m)^2 · integrand
//! ```
//!
//! Those two moments per worker are everything the closed-form M-step of
//! `CrossDomainEstimator::update` needs, `Σ_i log Z_i` is the likelihood the
//! fit compares its iterates by, and `E[h]` is the Eq. 8 prediction
//! ([`EStep::predictions`]), bit for bit the value a separate prediction
//! sweep would integrate.
//!
//! An observation whose normaliser underflows (`log Z = -inf`) gets its
//! conditional prior `(m, v)` as its moments; the M-step skips it, as its
//! counts could not be weighed, and its prediction is its conditional mean.

use super::{BlockScratch, CpeLikelihoodKernel, SWEEP_BLOCK};
use crate::SelectionError;
use c4u_crowd_sim::parallel::{available_threads, run_indexed_jobs};
use c4u_stats::{BinomialNormalMoments, Conditioner, MultivariateNormal};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The posterior of one worker's target-domain accuracy `h`, given its
/// prior-domain profile and its answer counts, under one model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PosteriorMoments {
    /// `log Z` of Eq. 5 ([`f64::NEG_INFINITY`] when the normaliser
    /// underflows; the moments are then the conditional prior's).
    pub log_z: f64,
    /// Posterior mean `E[h]`.
    pub mean: f64,
    /// Posterior variance `Var[h]` (never negative).
    pub variance: f64,
}

/// One E-step: the fused Eq. 5 log-likelihood of a model and every worker's
/// posterior moments under it.
#[derive(Debug, Clone, PartialEq)]
pub struct EStep {
    /// `Σ_i log Z_i`, summed in observation order (may be `-inf` when some
    /// normaliser underflows): bit for bit
    /// [`CpeLikelihoodKernel::log_likelihood`], which reads it from here.
    pub log_likelihood: f64,
    /// Per-observation posterior moments, in original observation order.
    pub moments: Vec<PosteriorMoments>,
}

impl EStep {
    /// The Eq. 8 prediction of every observation, in original observation
    /// order: its posterior mean clamped to `[0, 1]`.
    ///
    /// A member whose normaliser underflowed — a conditional far narrower
    /// than the quadrature rule resolves, so the integrand underflows at
    /// every node — predicts its conditional mean `m`, the `sigma -> 0`
    /// limit of the posterior mean. Only a non-finite `m` is an error.
    pub fn predictions(&self) -> Result<Vec<f64>, SelectionError> {
        self.moments
            .iter()
            .map(|m| {
                if m.mean.is_finite() {
                    Ok(m.mean.clamp(0.0, 1.0))
                } else {
                    Err(SelectionError::Numerical(
                        "CPE prediction integral did not converge".to_string(),
                    ))
                }
            })
            .collect()
    }
}

impl CpeLikelihoodKernel {
    /// The E-step under `model`: one conditioning factorisation per unique
    /// mask and one vectorised quadrature sweep per block of ≤ 1024 members
    /// of a mask group.
    ///
    /// The per-member phase (conditional mean, observed-block solve, sweep) of
    /// a group with more than one block fans its blocks out over
    /// `min(available_threads(), blocks)` threads; the results are gathered
    /// afterwards on the calling thread, in member order, and the
    /// log-likelihood is summed in observation order. Only the cost per
    /// member is shared out, never a sum, so the result is bit-identical for
    /// every thread count. An error is the one the serial member loop would
    /// hit first.
    pub fn e_step(&self, model: &MultivariateNormal) -> Result<EStep, SelectionError> {
        self.e_step_on(model, available_threads)
    }

    /// [`Self::e_step`] with the fan-out's thread cap supplied by `threads`
    /// (asked only for groups that span more than one block).
    fn e_step_on(
        &self,
        model: &MultivariateNormal,
        threads: impl Fn() -> usize,
    ) -> Result<EStep, SelectionError> {
        let mut moments = vec![PosteriorMoments::default(); self.groups.num_observations()];
        let mut blocks = self.blocks.borrow_mut();

        for (group, counts) in self.groups.groups().iter().zip(&self.counts) {
            let conditioner: Conditioner = model.conditioner(self.target, group.observed_idx())?;
            let sigma = conditioner.variance().sqrt();
            // The conditional prior's variance (the sweep floors sigma at
            // 1e-6, which the conditioner's 1e-12 variance floor already
            // guarantees).
            let v = sigma * sigma;

            // Per-member phase, one job per block: the block's conditional
            // means, worker-major over the group's observed columns, then
            // one vectorised sweep (log Z, E[h], E[(h - m)^2]) over the
            // kernel's shared SoA node tables.
            let members = group.members().len();
            let num_blocks = members.div_ceil(SWEEP_BLOCK);
            if blocks.len() < num_blocks {
                blocks.resize_with(num_blocks, Default::default);
            }
            let blocks = &blocks[..num_blocks];
            let threads = if num_blocks > 1 { threads() } else { 1 };
            // The jobs borrow fields, not `self`: the kernel is `!Sync`.
            let (batch, conditioner) = (&self.batch, &conditioner);
            run_indexed_jobs(threads, num_blocks, |b| -> Result<(), SelectionError> {
                let range = b * SWEEP_BLOCK..((b + 1) * SWEEP_BLOCK).min(members);
                let mut block = lock(&blocks[b]);
                let block = &mut *block;
                block.mu.clear();
                block.mu.resize(range.len(), 0.0);
                conditioner.condition_columns(
                    group.block_columns(range.clone()),
                    &mut block.w,
                    &mut block.mu,
                )?;
                block.out.clear();
                block
                    .out
                    .resize(range.len(), BinomialNormalMoments::default());
                batch.moments_with_scratch(
                    sigma,
                    &block.mu,
                    &counts.correct[range.clone()],
                    &counts.wrong[range],
                    &mut block.out,
                    &mut block.quad,
                );
                Ok(())
            })?;

            let mut positions = group.members().iter();
            for block in blocks {
                let block = lock(block);
                for (out, (&m, &position)) in
                    block.out.iter().zip(block.mu.iter().zip(&mut positions))
                {
                    moments[position] = if out.log_z.is_finite() {
                        let shift = out.mean - m;
                        PosteriorMoments {
                            log_z: out.log_z,
                            mean: out.mean,
                            variance: (out.second - shift * shift).max(0.0),
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
        }

        let mut log_likelihood = 0.0;
        for term in &moments {
            log_likelihood += term.log_z;
        }
        Ok(EStep {
            log_likelihood,
            moments,
        })
    }
}

/// Locks one block's scratch. A poisoned lock is recovered: every block job
/// overwrites its buffers before reading them.
fn lock(block: &Mutex<BlockScratch>) -> MutexGuard<'_, BlockScratch> {
    block.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpe::CpeObservation;
    use c4u_linalg::{Matrix, Vector};
    use c4u_stats::{
        binomial_normal_moments, nearest_positive_definite, GaussLegendre, QuadratureMath,
    };

    fn observations() -> Vec<CpeObservation> {
        vec![
            CpeObservation {
                prior_accuracies: vec![Some(0.8), Some(0.6)],
                correct: 7,
                wrong: 3,
            },
            CpeObservation {
                prior_accuracies: vec![None, Some(0.4)],
                correct: 2,
                wrong: 8,
            },
        ]
    }

    /// A model projected the way the estimator projects its covariance.
    fn fixture() -> MultivariateNormal {
        let covariance = Matrix::from_rows(&[
            vec![0.04, 0.01, 0.012],
            vec![0.01, 0.05, 0.015],
            vec![0.012, 0.015, 0.03],
        ])
        .unwrap();
        let covariance = nearest_positive_definite(&covariance, 1e-4).unwrap();
        MultivariateNormal::new(Vector::from_slice(&[0.6, 0.55, 0.5]), covariance).unwrap()
    }

    /// A full mask of 2500 members (three sweep blocks, the last one ragged)
    /// and a partial mask of 100.
    fn multi_block_observations() -> Vec<CpeObservation> {
        (0..2600)
            .map(|i| CpeObservation {
                prior_accuracies: vec![
                    Some(0.05 + 0.9 * ((i * 37) % 101) as f64 / 100.0),
                    (i % 26 != 0).then_some(0.05 + 0.9 * ((i * 53) % 89) as f64 / 88.0),
                ],
                correct: (i * 7) % 13,
                wrong: 12 - (i * 7) % 13,
            })
            .collect()
    }

    /// The kernel in the math that is bit-identical to the scalar oracle.
    fn exact_kernel(obs: &[CpeObservation], quadrature: &GaussLegendre) -> CpeLikelihoodKernel {
        CpeLikelihoodKernel::new_with_math(obs, 2, quadrature, QuadratureMath::Exact)
    }

    /// The scalar oracle's `(log Z, E[h])` of one observation, conditioned
    /// per observation.
    fn scalar_moments(
        model: &MultivariateNormal,
        quadrature: &GaussLegendre,
        o: &CpeObservation,
    ) -> (f64, f64) {
        let (idx, values) = super::super::observed_domains(o, 2);
        let cond = model.condition_on(2, &idx, &values).unwrap();
        binomial_normal_moments(
            quadrature,
            cond.mean,
            cond.std_dev(),
            o.correct as f64,
            o.wrong as f64,
        )
    }

    #[test]
    fn fused_log_likelihood_equals_the_kernel_likelihood() {
        let quadrature = GaussLegendre::new(32);
        let model = fixture();
        for obs in [observations(), multi_block_observations()] {
            let kernel = exact_kernel(&obs, &quadrature);
            let e_step = kernel.e_step(&model).unwrap();
            assert_eq!(
                e_step.log_likelihood,
                kernel.log_likelihood(&model).unwrap()
            );
            let per_observation = kernel.per_observation_log_likelihood(&model).unwrap();
            // Both equal the scalar oracle's terms, summed in observation
            // order.
            let mut total = 0.0;
            for ((moments, log_z), o) in e_step.moments.iter().zip(per_observation).zip(&obs) {
                assert_eq!(moments.log_z, log_z);
                assert_eq!(log_z, scalar_moments(&model, &quadrature, o).0);
                total += log_z;
            }
            assert_eq!(e_step.log_likelihood, total);
        }
    }

    #[test]
    fn posterior_means_match_the_prediction_integral() {
        // The sweep's first moment is the Eq. 8 posterior mean that the
        // scalar oracle integrates, bit for bit.
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = exact_kernel(&obs, &quadrature);
        let model = fixture();
        let e_step = kernel.e_step(&model).unwrap();
        for (o, moments) in obs.iter().zip(&e_step.moments) {
            let (idx, values) = super::super::observed_domains(o, 2);
            let cond = model.condition_on(2, &idx, &values).unwrap();
            assert_eq!(moments.mean, scalar_moments(&model, &quadrature, o).1);
            // The counts narrow the posterior below the conditional prior.
            assert!(moments.variance > 0.0 && moments.variance < cond.variance);
        }
        assert_eq!(
            e_step.predictions().unwrap(),
            kernel.predict(&model).unwrap()
        );
    }

    #[test]
    fn underflowed_normalisers_fall_back_to_the_conditional_prior() {
        let obs = vec![CpeObservation {
            prior_accuracies: vec![Some(0.8), Some(0.6)],
            correct: 500_000,
            wrong: 500_000,
        }];
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        let model = fixture();
        let e_step = kernel.e_step(&model).unwrap();
        assert_eq!(e_step.log_likelihood, f64::NEG_INFINITY);
        let cond = model.condition_on(2, &[0, 1], &[0.8, 0.6]).unwrap();
        let moments = e_step.moments[0];
        assert_eq!(moments.mean, cond.mean);
        assert_eq!(moments.variance, cond.std_dev() * cond.std_dev());
    }

    #[test]
    fn blocked_sweep_is_identical_for_every_thread_count() {
        let obs = multi_block_observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        assert_eq!(kernel.groups().groups()[1].members().len(), 2500);
        let model = fixture();
        let serial = kernel.e_step_on(&model, || 1).unwrap();
        for threads in 2..=8 {
            assert_eq!(kernel.e_step_on(&model, || threads).unwrap(), serial);
        }
        assert_eq!(kernel.e_step(&model).unwrap(), serial);
    }

    #[test]
    fn members_match_their_lone_sweep_under_every_thread_count() {
        // Each member's moments carry the bits of an E-step over that member
        // alone, wherever its block and its lane put it, for every thread
        // count of the blocked fan-out.
        let obs = multi_block_observations();
        let quadrature = GaussLegendre::new(32);
        let model = fixture();
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        for threads in 1..=4 {
            let e_step = kernel.e_step_on(&model, || threads).unwrap();
            for (position, o) in obs.iter().enumerate().step_by(7) {
                let alone = CpeLikelihoodKernel::new(std::slice::from_ref(o), 2, &quadrature)
                    .e_step(&model)
                    .unwrap();
                assert_eq!(
                    e_step.moments[position], alone.moments[0],
                    "member {position} under {threads} threads"
                );
            }
        }
    }
}
