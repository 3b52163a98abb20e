//! Closed-form Eq. 6–7 gradients of the CPE marginal log-likelihood,
//! accumulated per mask group.
//!
//! The Eq. 5 objective is `L = Σ_i log Z_i` with
//! `Z_i = ∫_0^1 h^{C_i} (1-h)^{X_i} N(h; m_i, v) dh`, where `(m_i, v)` are the
//! conditional mean and variance of the target accuracy given worker `i`'s
//! observed prior domains. [`c4u_stats::BinomialNormalBatch::log_z_gradients`]
//! (over the kernel's shared SoA node tables) supplies `∂ log Z_i / ∂ m_i` and
//! `∂ log Z_i / ∂ v` in one vectorised sweep per block of a mask group (the
//! variance — and therefore the quadrature tables — is shared by every member
//! of a group); this module backpropagates those two
//! scalars through the conditioning map onto the model parameters the
//! estimator actually optimises: the mean vector and the packed lower triangle
//! of the covariance.
//!
//! With `T` the target coordinate, `G` the observed set,
//! `alpha = Sigma_GG^{-1} Sigma_GT` ([`Conditioner::weights`]) and
//! `w_i = Sigma_GG^{-1} (x_i - mu_G)` (the per-member solve from
//! [`Conditioner::condition_full`]):
//!
//! ```text
//! m_i = mu_T + Sigma_TG w_i          v = Sigma_TT - Sigma_TG alpha
//!
//! ∂ m_i / ∂ mu_T        = 1          ∂ v / ∂ Sigma_TT       = 1
//! ∂ m_i / ∂ mu_G        = -alpha     ∂ v / ∂ Sigma_Tg       = -2 alpha_g
//! ∂ m_i / ∂ Sigma_Tg    = w_{i,g}    ∂ v / ∂ Sigma_GG       = +alpha alpha^T
//! ∂ m_i / ∂ Sigma_GG    = -sym(alpha w_i^T)
//! ```
//!
//! where `sym` is the symmetric-parameter rule of
//! [`PackedLowerTriangle::add_sym_outer`] (the packed off-diagonal entry is one
//! parameter appearing at both mirror positions). Everything except the
//! `Sigma_Tg` term is linear in the per-member quantities, so a group costs one
//! accumulation of `Σ_i ∂L/∂m_i` and `Σ_i (∂L/∂m_i) w_i` plus an `O(g^2)`
//! rank-two packed update — per **group**, not per worker.
//!
//! An observation whose normaliser underflows (`log Z = -inf`) contributes zero
//! gradient: a central difference of the likelihood would see `∞ - ∞ = NaN`
//! there, and that NaN would poison the mean and covariance of
//! `CrossDomainEstimator::update`.

use super::{BlockScratch, CpeLikelihoodKernel, GRADIENT_BLOCK};
use crate::SelectionError;
use c4u_crowd_sim::parallel::run_indexed_jobs;
use c4u_linalg::PackedLowerTriangle;
use c4u_stats::{Conditioner, LogZGradient, MultivariateNormal};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The Eq. 5 log-likelihood together with its closed-form Eq. 6–7 gradient in
/// model coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct LikelihoodGradient {
    /// Total marginal log-likelihood `Σ_i log Z_i` (may be `-inf` when some
    /// normaliser underflows; the gradient stays finite regardless).
    pub log_likelihood: f64,
    /// `∂L/∂mu` — gradient with respect to the mean vector (length `D + 1`).
    pub d_mean: Vec<f64>,
    /// `∂L/∂Sigma` — gradient with respect to the packed lower triangle of the
    /// covariance (the estimator's covariance parameterisation).
    pub d_covariance: PackedLowerTriangle,
}

impl LikelihoodGradient {
    /// The gradient flattened into the packed parameter layout: mean entries
    /// first, then the row-major packed covariance triangle (the layout a
    /// central-difference stencil over the parameters differentiates over).
    pub fn packed(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.d_mean.len() + self.d_covariance.as_slice().len());
        out.extend_from_slice(&self.d_mean);
        out.extend_from_slice(self.d_covariance.as_slice());
        out
    }
}

impl CpeLikelihoodKernel<'_> {
    /// The marginal log-likelihood of every observation under `model` and its
    /// closed-form gradient with respect to the model parameters, accumulated
    /// per mask group.
    ///
    /// Cost per model evaluation: one conditioning factorisation per unique
    /// mask and one vectorised quadrature sweep per block of ≤ 1024 members
    /// of a mask group — `O(1)` likelihood sweeps per gradient, against the
    /// `2 x (D+1)(D+4)/2` full sweeps of the central-difference oracle.
    ///
    /// The per-member phase (conditional mean, observed-block solve, sweep) of
    /// a group with more than one block fans its blocks out over
    /// `min(available_threads(), blocks)` threads; the reduction over members
    /// runs afterwards on the calling thread, in member order. Only the cost
    /// per member is shared out, never a sum, so the result is bit-identical
    /// for every thread count. An error is the one the serial member loop
    /// would hit first.
    pub fn log_likelihood_gradient(
        &self,
        model: &MultivariateNormal,
    ) -> Result<LikelihoodGradient, SelectionError> {
        let dim = self.target + 1;
        let mut d_mean = vec![0.0; dim];
        let mut d_cov = PackedLowerTriangle::zeros(dim);
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        // Per-observation log Z in original observation order, so the reported
        // likelihood sums exactly like CpeLikelihoodKernel::log_likelihood.
        s.per_obs_log_z.clear();
        s.per_obs_log_z.resize(self.observations.len(), 0.0);

        for (group, counts) in self.groups.groups().iter().zip(&self.counts) {
            let conditioner: Conditioner = model.conditioner(self.target, group.observed_idx())?;
            let sigma = conditioner.variance().sqrt();
            let idx = group.observed_idx();
            let alpha = conditioner.weights();
            let g = idx.len();

            // Per-member phase, one job per block: conditional means and
            // observed-block solves staged into the block's reused buffers,
            // then one vectorised sweep (log Z, ∂/∂m, ∂/∂v) over the kernel's
            // shared SoA node tables.
            let members = group.members().len();
            let num_blocks = members.div_ceil(GRADIENT_BLOCK);
            if s.blocks.len() < num_blocks {
                s.blocks.resize_with(num_blocks, Default::default);
            }
            let blocks = &s.blocks[..num_blocks];
            let threads = if num_blocks > 1 { self.threads() } else { 1 };
            // The jobs borrow fields, not `self`: the kernel is `!Sync`.
            let (batch, values, conditioner) = (&self.batch, group.values(), &conditioner);
            run_indexed_jobs(threads, num_blocks, |b| -> Result<(), SelectionError> {
                let range = b * GRADIENT_BLOCK..((b + 1) * GRADIENT_BLOCK).min(members);
                let mut block = lock(&blocks[b]);
                let block = &mut *block;
                block.obs.clear();
                block.w.clear();
                block.w.resize(range.len() * g, 0.0);
                for (k, m) in range.clone().enumerate() {
                    let w = &mut block.w[k * g..(k + 1) * g];
                    let mean = conditioner.condition_into(&values[m], w)?;
                    block.obs.push((mean, counts.correct[m], counts.wrong[m]));
                }
                block.grads.clear();
                block.grads.resize(range.len(), LogZGradient::default());
                batch.log_z_gradients_into(sigma, &block.obs, &mut block.grads, &mut block.quad);
                Ok(())
            })?;

            // Group-level sufficient statistics of the backpropagation,
            // accumulated serially in member order.
            let mut sum_d_mean = 0.0;
            let mut sum_d_var = 0.0;
            s.dm_w.clear();
            s.dm_w.resize(g, 0.0);
            let mut positions = group.members().iter();
            for block in blocks {
                let block = lock(block);
                for (k, (grad, &position)) in block.grads.iter().zip(&mut positions).enumerate() {
                    s.per_obs_log_z[position] = grad.log_z;
                    if !grad.is_finite() {
                        // Underflowed normaliser: zero contribution, never NaN.
                        continue;
                    }
                    sum_d_mean += grad.d_mean;
                    sum_d_var += grad.d_variance;
                    for (acc, &wi) in s.dm_w.iter_mut().zip(&block.w[k * g..(k + 1) * g]) {
                        *acc += grad.d_mean * wi;
                    }
                }
            }

            // Mean backpropagation: ∂m/∂mu_T = 1, ∂m/∂mu_G = -alpha.
            d_mean[self.target] += sum_d_mean;
            for (g, &gp) in idx.iter().enumerate() {
                d_mean[gp] -= sum_d_mean * alpha[g];
            }

            // Covariance backpropagation onto the packed triangle.
            d_cov
                .add(self.target, self.target, sum_d_var)
                .map_err(cpe_linalg_error)?;
            for (g, &gp) in idx.iter().enumerate() {
                // ∂m/∂Sigma_Tg = w_g (per member) and ∂v/∂Sigma_Tg = -2 alpha_g.
                d_cov
                    .add(self.target, gp, s.dm_w[g] - 2.0 * sum_d_var * alpha[g])
                    .map_err(cpe_linalg_error)?;
            }
            // ∂m/∂Sigma_GG = -sym(alpha w^T), summed over members.
            d_cov
                .add_sym_outer(-1.0, idx, alpha, &s.dm_w)
                .map_err(cpe_linalg_error)?;
            // ∂v/∂Sigma_GG = +alpha alpha^T.
            d_cov
                .add_sym_outer(sum_d_var, idx, alpha, alpha)
                .map_err(cpe_linalg_error)?;
        }

        let mut log_likelihood = 0.0;
        for term in &s.per_obs_log_z {
            log_likelihood += term;
        }
        Ok(LikelihoodGradient {
            log_likelihood,
            d_mean,
            d_covariance: d_cov,
        })
    }
}

fn cpe_linalg_error(e: c4u_linalg::LinalgError) -> SelectionError {
    SelectionError::Numerical(e.to_string())
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
    use c4u_linalg::{packed_index, packed_length, Matrix, Vector};
    use c4u_stats::{nearest_positive_definite, GaussLegendre};

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

    /// Builds the model at `mean` and a valid covariance, projected the way
    /// the estimator projects its covariance before every evaluation.
    fn model(mean: &[f64], covariance: Matrix) -> MultivariateNormal {
        let covariance = nearest_positive_definite(&covariance, 1e-4).unwrap();
        MultivariateNormal::new(Vector::from_slice(mean), covariance).unwrap()
    }

    fn fixture() -> MultivariateNormal {
        let covariance = Matrix::from_rows(&[
            vec![0.04, 0.01, 0.012],
            vec![0.01, 0.05, 0.015],
            vec![0.012, 0.015, 0.03],
        ])
        .unwrap();
        model(&[0.6, 0.55, 0.5], covariance)
    }

    #[test]
    fn fused_log_likelihood_equals_the_kernel_likelihood() {
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        let model = fixture();
        let fused = kernel.log_likelihood_gradient(&model).unwrap();
        assert_eq!(fused.log_likelihood, kernel.log_likelihood(&model).unwrap());
    }

    #[test]
    fn underflowed_normalisers_leave_the_gradient_finite() {
        let obs = vec![CpeObservation {
            prior_accuracies: vec![Some(0.8), Some(0.6)],
            correct: 500_000,
            wrong: 500_000,
        }];
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        let fused = kernel.log_likelihood_gradient(&fixture()).unwrap();
        assert_eq!(fused.log_likelihood, f64::NEG_INFINITY);
        assert!(fused.packed().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn packed_gradient_is_the_mean_then_the_triangle() {
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        let fused = kernel.log_likelihood_gradient(&fixture()).unwrap();
        let packed = fused.packed();
        assert_eq!(packed.len(), 3 + packed_length(3));
        assert_eq!(packed[..3], fused.d_mean[..]);
        assert_eq!(packed[3..], *fused.d_covariance.as_slice());
    }

    #[test]
    fn a_small_step_along_the_gradient_raises_the_log_likelihood() {
        let obs = observations();
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&obs, 2, &quadrature);
        let start = fixture();
        let fused = kernel.log_likelihood_gradient(&start).unwrap();
        let norm = fused.packed().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm > 0.0);
        let eps = 1e-5 / norm;
        let mean: Vec<f64> = start
            .mean()
            .iter()
            .zip(&fused.d_mean)
            .map(|(m, g)| m + eps * g)
            .collect();
        let tri = fused.d_covariance.as_slice();
        let covariance = Matrix::from_fn(3, 3, |i, j| {
            start.covariance()[(i, j)] + eps * tri[packed_index(i, j)]
        });
        let stepped = model(&mean, covariance);
        assert!(kernel.log_likelihood(&stepped).unwrap() > kernel.log_likelihood(&start).unwrap());
    }
}
