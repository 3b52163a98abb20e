//! Cross-domain-aware Performance Estimation (CPE, Algorithm 1 of the paper).
//!
//! The estimator maintains a `(D+1)`-dimensional multivariate normal over worker
//! accuracies — `D` prior domains plus the target domain (Eq. 1–2). In every
//! elimination round it:
//!
//! 1. counts each remaining worker's correct/wrong answers on the round's golden
//!    questions (Eq. 3–4);
//! 2. fits the mean vector and covariance matrix by EM to the marginal
//!    likelihood of those counts (Eq. 5), where the target-domain accuracy is
//!    integrated out against its conditional normal given the worker's
//!    prior-domain profile;
//! 3. produces a per-worker predicted target-domain accuracy (Eq. 8) as the
//!    posterior mean of the target accuracy over `(0, 1)`, given the
//!    worker's profile and its counts: the E-step of the kept model has
//!    already integrated it, so [`CrossDomainEstimator::update`] returns it.
//!
//! Workers that lack a record on some prior domains are handled by conditioning only
//! on the domains they have actually worked on (Sec. IV-E).
//!
//! ## The EM fit
//!
//! The paper refines the model by `G` fixed-rate gradient steps (Eq. 6–7). At
//! its rates (`1e-7`, `1e-4`) those steps do not fit: the target mean stays at
//! its start value and the target variance of an accuracy in `[0, 1]` runs
//! past 100 (ARCHITECTURE.md, "Substitutions"). The model has one latent
//! coordinate per worker, the target accuracy `h`, seen through binomial
//! counts, so EM applies with a closed-form M-step (Dempster, Laird & Rubin,
//! 1977). Each epoch is
//!
//! * **E-step** — [`CpeLikelihoodKernel::e_step`]: every worker's posterior
//!   mean and variance of `h`, plus the fused Eq. 5 log-likelihood of the
//!   model, from one vectorised quadrature sweep per block of ≤ 1024 members
//!   of a mask group (a group spanning several blocks fans them out over the
//!   machine's threads, bit-identically for every thread count). The
//!   posterior means are the Eq. 8 predictions;
//! * **M-step** — the mean of the completed vectors `a = (profile, h)` and
//!   their second moments about it, with each worker's posterior variance of
//!   `h` added. A worker missing some prior domains gets them filled in by
//!   their Gaussian regression on its observed domains and `h` (Little &
//!   Rubin, *Statistical Analysis with Missing Data*, ch. 11). The means are
//!   clamped to `[0.01, 0.99]` and the covariance projected with the
//!   [`CpeConfig::MIN_VARIANCE`] floor.
//!
//! The update keeps the best iterate it evaluated, with its E-step, so no
//! update ends below its start, and stops once an epoch gains less than
//! [`CpeConfig::CONVERGENCE_TOLERANCE`] (relative) or after
//! [`CpeConfig::epochs`]. [`CrossDomainEstimator::last_fit`] reports what the
//! last update did. The paper's rule lives on test-side, in
//! `tests/reference/mod.rs`, where `tests/fd_pinned.rs` pins it bit-for-bit and
//! shows that at the paper's rates an update ends below its start.
//!
//! ## The likelihood-kernel layering
//!
//! Every likelihood-facing entry point (`log_likelihood`, `update`, `predict`,
//! `predict_batch`) is built on the batched [`kernel`] layer rather than a
//! per-observation loop: observations are grouped by observed-domain mask once
//! at entry ([`kernel::MaskGroups`]), and each model evaluation builds **one**
//! cached conditioning factorisation per unique mask
//! ([`c4u_stats::Conditioner`]) instead of one per worker.
//!
//! The estimator holds its model as one factorised [`MultivariateNormal`],
//! replaced at the end of every `update()`; predictions and likelihood
//! evaluations share it instead of refactorising it per call.

pub mod kernel;

use crate::SelectionError;
use c4u_crowd_sim::{HistoricalProfile, WorkerShards};
use c4u_linalg::{Matrix, Vector};
use c4u_stats::{
    mean as stat_mean, nearest_positive_definite, std_dev, GaussLegendre, MultivariateNormal,
    QuadratureMath, Uniform,
};
use kernel::e_step::PosteriorMoments;
use kernel::CpeLikelihoodKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the uniform-random initial correlations (Sec. V-C), so every
/// estimator built from the same profiles starts from the same model.
const CORRELATION_SEED: u64 = 21;

/// Configuration of the CPE estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpeConfig {
    /// Cap on the EM epochs per round (the paper's `G`, default 50). The fit
    /// stops earlier once an epoch gains less than
    /// [`CpeConfig::CONVERGENCE_TOLERANCE`].
    pub epochs: usize,
    /// Initial mean accuracy assumed for the target domain (`a_T`; paper default 0.5).
    pub initial_target_accuracy: f64,
    /// Arithmetic of the batched quadrature sweeps
    /// ([`c4u_stats::QuadratureMath`]). The default `FastVector` mode runs
    /// the worker-major polynomial-`exp` sweep (deterministic, ~1e-12
    /// relative of `Exact` per cell); `Exact` is bit-identical to the scalar
    /// oracle.
    pub quadrature_math: QuadratureMath,
}

impl Default for CpeConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            initial_target_accuracy: 0.5,
            quadrature_math: QuadratureMath::default(),
        }
    }
}

impl CpeConfig {
    /// Order of the Gauss–Legendre rule used for the `(0, 1)` integrals.
    pub const QUADRATURE_ORDER: usize = 32;
    /// Smallest variance allowed on any domain (keeps the covariance well-posed).
    pub const MIN_VARIANCE: f64 = 1e-4;
    /// The EM fit stops after an epoch that raises the log-likelihood by no
    /// more than this fraction of its magnitude (or lowers it).
    pub const CONVERGENCE_TOLERANCE: f64 = 1e-5;

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SelectionError> {
        if self.epochs == 0 {
            return Err(SelectionError::InvalidConfig {
                what: "epochs must be >= 1",
                value: 0.0,
            });
        }
        if !(0.0 < self.initial_target_accuracy && self.initial_target_accuracy < 1.0) {
            return Err(SelectionError::InvalidConfig {
                what: "initial target accuracy must lie in (0, 1)",
                value: self.initial_target_accuracy,
            });
        }
        Ok(())
    }
}

/// One worker's evidence for a CPE update: the prior-domain profile plus the
/// correct/wrong counts of the current round (Eq. 3–4).
#[derive(Debug, Clone, PartialEq)]
pub struct CpeObservation {
    /// Observed prior-domain accuracies (index = domain, `None` = no record).
    pub prior_accuracies: Vec<Option<f64>>,
    /// Number of correct answers in the current round (`C_{i,c}`).
    pub correct: usize,
    /// Number of wrong answers in the current round (`X_{i,c}`).
    pub wrong: usize,
}

impl CpeObservation {
    /// Builds an observation from a historical profile and the round counts.
    pub fn from_profile(profile: &HistoricalProfile, correct: usize, wrong: usize) -> Self {
        Self {
            prior_accuracies: (0..profile.num_domains())
                .map(|d| profile.accuracy(d))
                .collect(),
            correct,
            wrong,
        }
    }
}

/// What one [`CrossDomainEstimator::update`] did.
///
/// Every log-likelihood here is Eq. 5's, taken from the fused E-step sweep
/// ([`kernel::e_step::EStep::log_likelihood`]), the source
/// [`CrossDomainEstimator::log_likelihood`] reads too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpeFitSummary {
    /// Log-likelihood of the model the update started from.
    pub start_log_likelihood: f64,
    /// Log-likelihood of the best iterate, the model the update keeps.
    pub best_log_likelihood: f64,
    /// Log-likelihood of the last iterate evaluated.
    pub last_log_likelihood: f64,
    /// EM epochs run (at most [`CpeConfig::epochs`]).
    pub epochs: usize,
    /// Epochs whose iterate has a lower log-likelihood than the one before.
    pub falling_epochs: usize,
    /// Target-domain mean `mu_T` of the kept model.
    pub target_mean: f64,
    /// Target-domain variance `Sigma_TT` of the kept model.
    pub target_variance: f64,
}

/// The cross-domain performance estimator.
#[derive(Debug, Clone)]
pub struct CrossDomainEstimator {
    config: CpeConfig,
    /// The current model, factorised once per `update()` and shared by every
    /// prediction and likelihood evaluation until the next one.
    model: MultivariateNormal,
    quadrature: GaussLegendre,
    /// Summary of the last update that had observations.
    last_fit: Option<CpeFitSummary>,
}

impl CrossDomainEstimator {
    /// Initialises the estimator from the worker pool's historical profiles, exactly
    /// as described in Sec. V-C of the paper: prior-domain means/std-devs from the
    /// observed profiles, target mean `a_T`, target std-dev the average of the prior
    /// std-devs, and correlations drawn uniformly from `(0, 1)`.
    pub fn from_profiles(
        profiles: &[&HistoricalProfile],
        config: CpeConfig,
    ) -> Result<Self, SelectionError> {
        config.validate()?;
        if profiles.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let d = profiles.iter().map(|p| p.num_domains()).max().unwrap_or(0);
        if d == 0 {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }

        let mut means = Vec::with_capacity(d + 1);
        let mut stds = Vec::with_capacity(d + 1);
        for domain in 0..d {
            let values: Vec<f64> = profiles.iter().filter_map(|p| p.accuracy(domain)).collect();
            let m = if values.is_empty() {
                config.initial_target_accuracy
            } else {
                stat_mean(&values)
            };
            let s = if values.len() < 2 {
                0.15
            } else {
                std_dev(&values).max(CpeConfig::MIN_VARIANCE.sqrt())
            };
            means.push(m.clamp(0.01, 0.99));
            stds.push(s);
        }
        let target_std = (stds.iter().sum::<f64>() / d as f64).max(CpeConfig::MIN_VARIANCE.sqrt());
        means.push(config.initial_target_accuracy);
        stds.push(target_std);

        // Correlations uniformly random in (0, 1) (Sec. V-C).
        let mut rng = StdRng::seed_from_u64(CORRELATION_SEED);
        let uniform = Uniform::new(0.0, 1.0)?;
        let mut covariance = Matrix::zeros(d + 1, d + 1);
        for i in 0..(d + 1) {
            for j in 0..(d + 1) {
                if i == j {
                    covariance[(i, j)] = stds[i] * stds[i];
                } else if i < j {
                    let rho = uniform.sample(&mut rng);
                    covariance[(i, j)] = rho * stds[i] * stds[j];
                    covariance[(j, i)] = covariance[(i, j)];
                }
            }
        }
        let covariance = nearest_positive_definite(&covariance, CpeConfig::MIN_VARIANCE)?;

        Ok(Self {
            config,
            model: MultivariateNormal::new(Vector::from_vec(means), covariance)?,
            quadrature: GaussLegendre::new(CpeConfig::QUADRATURE_ORDER),
            last_fit: None,
        })
    }

    /// Number of prior domains `D`.
    pub fn num_prior_domains(&self) -> usize {
        self.model.dim() - 1
    }

    /// Current mean vector `[mu_1, ..., mu_D, mu_T]`.
    pub fn mean(&self) -> &[f64] {
        self.model.mean().as_slice()
    }

    /// Current covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        self.model.covariance()
    }

    /// Estimated correlation between prior domain `d` and the target domain — the
    /// quantity reported in the Sec. V-H discussion (P-F / F-F / E-F etc.).
    pub fn target_correlation(&self, d: usize) -> Result<f64, SelectionError> {
        Ok(self.model.correlation(d, self.num_prior_domains())?)
    }

    /// The current multivariate-normal model.
    pub fn model(&self) -> &MultivariateNormal {
        &self.model
    }

    /// Marginal log-likelihood of a set of observations under the current model
    /// (Eq. 5), evaluated through the batched mask-grouped kernel.
    pub fn log_likelihood(&self, observations: &[CpeObservation]) -> Result<f64, SelectionError> {
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains(),
            &self.quadrature,
            self.config.quadrature_math,
        );
        kernel.log_likelihood(&self.model)
    }

    /// What the last [`Self::update`] with observations did (`None` before
    /// the first one).
    pub fn last_fit(&self) -> Option<&CpeFitSummary> {
        self.last_fit.as_ref()
    }

    /// Fits the model to one round's observations by EM (see the module
    /// docs) and returns their Eq. 8 predictions under the fitted model: at
    /// most [`CpeConfig::epochs`] epochs of one E-step sweep and one
    /// closed-form M-step each, stopping once an epoch gains less than
    /// [`CpeConfig::CONVERGENCE_TOLERANCE`] of the log-likelihood or loses.
    /// The model kept is the best iterate evaluated, so the update never
    /// lowers the Eq. 5 log-likelihood of its observations.
    ///
    /// The predictions are read from the kept iterate's E-step (the start's
    /// when no iterate beats it), so they are bit for bit
    /// [`Self::predict_batch`] of the observations after the update, without
    /// a second sweep; see [`EStep::predictions`](kernel::e_step::EStep::predictions).
    ///
    /// The observations are mask-grouped **once** at entry; every E-step
    /// then factorises one conditioner per unique missing-domain mask
    /// instead of one per worker.
    ///
    /// An error in the first E-step is returned and leaves the model as it
    /// was; an iterate that fails to build or to evaluate ends the fit at
    /// the best one before it. A non-finite prediction is an error returned
    /// after the fitted model is kept.
    pub fn update(&mut self, observations: &[CpeObservation]) -> Result<Vec<f64>, SelectionError> {
        if observations.is_empty() {
            return Ok(Vec::new());
        }
        // One kernel serves every epoch, so its scratch buffers are grown once
        // and reused by every sweep.
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains(),
            &self.quadrature,
            self.config.quadrature_math,
        );
        // The kept iterate (`None`: the start) and its E-step. The fit only
        // goes on from an iterate that gained on the one before, which is
        // then the best so far, so each M-step starts from the kept one.
        let mut kept: Option<MultivariateNormal> = None;
        let mut e_step = kernel.e_step(&self.model)?;
        let start = e_step.log_likelihood;
        let mut fit = CpeFitSummary {
            start_log_likelihood: start,
            best_log_likelihood: start,
            last_log_likelihood: start,
            epochs: 0,
            falling_epochs: 0,
            target_mean: 0.0,
            target_variance: 0.0,
        };
        while fit.epochs < self.config.epochs {
            let model = kept.as_ref().unwrap_or(&self.model);
            let Ok(Some(next)) = m_step(&kernel, model, &e_step.moments) else {
                break;
            };
            let Ok(next_e_step) = kernel.e_step(&next) else {
                break;
            };
            fit.epochs += 1;
            let (previous, ll) = (fit.last_log_likelihood, next_e_step.log_likelihood);
            fit.last_log_likelihood = ll;
            if ll < previous {
                fit.falling_epochs += 1;
            }
            // A loss, a NaN gain (both iterates underflowed) and a small gain
            // all stop; a finite iterate after an underflowed one (an
            // infinite gain) continues.
            let gained = ll - previous > CpeConfig::CONVERGENCE_TOLERANCE * ll.abs();
            if ll > fit.best_log_likelihood {
                fit.best_log_likelihood = ll;
                (kept, e_step) = (Some(next), next_e_step);
            }
            if !gained {
                break;
            }
        }
        if let Some(kept) = kept {
            self.model = kept;
        }
        let target = self.num_prior_domains();
        fit.target_mean = self.model.mean()[target];
        fit.target_variance = self.model.covariance()[(target, target)];
        self.last_fit = Some(fit);
        e_step.predictions()
    }

    /// Predicted target-domain accuracy of a worker (Eq. 8): the posterior
    /// mean of the target accuracy given both the prior-domain profile and
    /// the worker's observed correct/wrong counts.
    pub fn predict(&self, obs: &CpeObservation) -> Result<f64, SelectionError> {
        let mut predictions = self.predict_batch(std::slice::from_ref(obs))?;
        Ok(predictions
            .pop()
            // c4u-lint: allow(no-unwrap-in-lib, reason = "predict_batch on one observation returns exactly one prediction")
            .expect("one observation yields one prediction"))
    }

    /// Predicted accuracies for a whole batch of observations, in order, sharing
    /// one conditioning factorisation per unique missing-domain mask.
    pub fn predict_batch(
        &self,
        observations: &[CpeObservation],
    ) -> Result<Vec<f64>, SelectionError> {
        let kernel = CpeLikelihoodKernel::new_with_math(
            observations,
            self.num_prior_domains(),
            &self.quadrature,
            self.config.quadrature_math,
        );
        kernel.predict(&self.model)
    }

    /// [`Self::predict_batch`] after checking that `shards` partitions
    /// exactly `observations.len()` positions.
    ///
    /// Every Eq. 8 prediction depends only on its own observation and the
    /// (shared, immutable) model, so the result is the unsharded one for
    /// every shard layout; the E-step under it already fans the blocks of a
    /// large mask group out over the machine's threads.
    pub fn predict_batch_sharded(
        &self,
        observations: &[CpeObservation],
        shards: &WorkerShards,
    ) -> Result<Vec<f64>, SelectionError> {
        if shards.len() != observations.len() {
            return Err(SelectionError::InvalidConfig {
                what: "shard partition must cover the observations exactly",
                value: shards.len() as f64,
            });
        }
        self.predict_batch(observations)
    }
}

/// One closed-form M-step from the E-step moments taken under `model`.
///
/// With `a = (profile, h)` completed per worker (observed domains as
/// recorded, `h` and each missing domain by its posterior mean), the new mean
/// is the mean of the completed vectors, clamped to `[0.01, 0.99]`, and the
/// new covariance their second moment about it plus the mean completion
/// variance: each worker's posterior variance of `h` along
/// `u = (∂a/∂h)`, and for a missing domain its residual covariance given the
/// observed domains and `h`. The covariance is then projected with the
/// [`CpeConfig::MIN_VARIANCE`] floor. Workers whose normaliser underflowed
/// are left out; `Ok(None)` when that leaves no worker.
///
/// A mask with missing domains costs one conditioner per missing domain
/// (its regression on the observed domains and `h`); the sums run over
/// groups in first-occurrence order and members in member order, reading
/// each group's observed-value columns.
fn m_step(
    kernel: &CpeLikelihoodKernel,
    model: &MultivariateNormal,
    moments: &[PosteriorMoments],
) -> Result<Option<MultivariateNormal>, SelectionError> {
    let mean = model.mean().as_slice();
    let cov = model.covariance();
    let dim = mean.len();
    let target = dim - 1;
    // Sums of the completed vectors' offsets from the current mean, of their
    // outer products (lower triangle) and of the completion variances.
    let mut sum = vec![0.0; dim];
    // The lower triangle row by row: `(i, k)` with `k <= i` at
    // `i * (i + 1) / 2 + k`.
    let mut scatter = vec![0.0; dim * (dim + 1) / 2];
    let mut completion = Matrix::zeros(dim, dim);
    let mut count = 0usize;
    let mut offset = vec![0.0; dim];
    for group in kernel.groups().groups() {
        let observed = group.observed_idx();
        let missing: Vec<usize> = (0..target).filter(|d| !observed.contains(d)).collect();
        // Regression weights of each missing domain on (observed..., h), in
        // that order.
        let mut given = observed.to_vec();
        given.push(target);
        let regressions = missing
            .iter()
            .map(|&j| Ok(model.conditioner(j, &given)?.weights().to_vec()))
            .collect::<Result<Vec<_>, SelectionError>>()?;

        let columns: Vec<&[f64]> = (0..observed.len()).map(|k| group.column(k)).collect();
        let mut members = 0usize;
        let mut posterior_variance = 0.0;
        for (j, &position) in group.members().iter().enumerate() {
            let m = moments[position];
            if !(m.log_z.is_finite() && m.mean.is_finite() && m.variance.is_finite()) {
                continue;
            }
            members += 1;
            posterior_variance += m.variance;
            offset.fill(0.0);
            for (&d, column) in observed.iter().zip(&columns) {
                offset[d] = column[j] - mean[d];
            }
            offset[target] = m.mean - mean[target];
            for (&j, weights) in missing.iter().zip(&regressions) {
                offset[j] = given
                    .iter()
                    .zip(weights)
                    .map(|(&d, w)| w * offset[d])
                    .sum::<f64>();
            }
            let mut pair = scatter.iter_mut();
            for (i, &o) in offset.iter().enumerate() {
                sum[i] += o;
                for (&ok, s) in offset[..=i].iter().zip(&mut pair) {
                    *s += o * ok;
                }
            }
        }
        if members == 0 {
            continue;
        }
        count += members;
        // u = ∂a/∂h: 1 on the target, the regression weight on h for each
        // missing domain, 0 on the observed ones.
        let mut u = vec![0.0; dim];
        u[target] = 1.0;
        for (&j, weights) in missing.iter().zip(&regressions) {
            u[j] = weights[observed.len()];
        }
        for i in 0..dim {
            for k in 0..=i {
                completion[(i, k)] += posterior_variance * u[i] * u[k];
            }
        }
        // Residual covariance of the missing domains given (observed, h).
        for (a, &j) in missing.iter().enumerate() {
            for (&l, weights) in missing.iter().zip(&regressions).take(a + 1) {
                let explained: f64 = given
                    .iter()
                    .zip(weights)
                    .map(|(&d, w)| w * cov[(d, j)])
                    .sum();
                completion[(j, l)] += members as f64 * (cov[(j, l)] - explained);
            }
        }
    }
    if count == 0 {
        return Ok(None);
    }

    let n = count as f64;
    let shift: Vec<f64> = sum.iter().map(|s| s / n).collect();
    let new_mean: Vec<f64> = mean
        .iter()
        .zip(&shift)
        .map(|(m, s)| (m + s).clamp(0.01, 0.99))
        .collect();
    // Second moments about the clamped mean: the scatter about the sample
    // mean plus the clamp's displacement.
    let clamp: Vec<f64> = mean
        .iter()
        .zip(&shift)
        .zip(&new_mean)
        .map(|((m, s), c)| m + s - c)
        .collect();
    let covariance = Matrix::from_fn(dim, dim, |i, k| {
        let (i, k) = (i.max(k), i.min(k));
        (scatter[i * (i + 1) / 2 + k] + completion[(i, k)]) / n - shift[i] * shift[k]
            + clamp[i] * clamp[k]
    });
    let covariance = nearest_positive_definite(&covariance, CpeConfig::MIN_VARIANCE)?;
    Ok(Some(MultivariateNormal::new(
        Vector::from_vec(new_mean),
        covariance,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::HistoricalProfile;

    fn profiles() -> Vec<HistoricalProfile> {
        vec![
            HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
            HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
        ]
    }

    fn estimator() -> CrossDomainEstimator {
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CpeConfig::default().validate().is_ok());
        assert!(CpeConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CpeConfig {
            initial_target_accuracy: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        for bad in [f64::NAN, 0.0] {
            let config = CpeConfig {
                initial_target_accuracy: bad,
                ..Default::default()
            };
            assert!(
                matches!(config.validate(), Err(SelectionError::InvalidConfig { .. })),
                "{config:?}"
            );
        }
    }

    #[test]
    fn initialisation_matches_profile_moments() {
        let est = estimator();
        assert_eq!(est.num_prior_domains(), 3);
        assert_eq!(est.mean().len(), 4);
        // Prior-domain means equal the observed pool means.
        assert!((est.mean()[0] - 0.6).abs() < 1e-9);
        assert!((est.mean()[1] - 0.7).abs() < 1e-9);
        assert!((est.mean()[2] - 0.5).abs() < 1e-9);
        // Target mean initialised to a_T = 0.5.
        assert!((est.mean()[3] - 0.5).abs() < 1e-9);
        // Covariance is usable (positive definite) and correlations lie in [0, 1].
        for d in 0..3 {
            let rho = est.target_correlation(d).unwrap();
            assert!((-0.01..=1.0).contains(&rho), "rho {rho}");
        }
        assert!(CrossDomainEstimator::from_profiles(&[], CpeConfig::default()).is_err());
    }

    #[test]
    fn strong_profile_predicts_higher_accuracy() {
        let est = estimator();
        let strong = CpeObservation {
            prior_accuracies: vec![Some(0.95), Some(0.95), Some(0.9)],
            correct: 0,
            wrong: 0,
        };
        let weak = CpeObservation {
            prior_accuracies: vec![Some(0.2), Some(0.3), Some(0.2)],
            correct: 0,
            wrong: 0,
        };
        let ps = est.predict(&strong).unwrap();
        let pw = est.predict(&weak).unwrap();
        assert!(ps > pw, "strong {ps} weak {pw}");
        assert!((0.0..=1.0).contains(&ps));
        assert!((0.0..=1.0).contains(&pw));
    }

    #[test]
    fn observed_answers_shift_the_posterior_prediction() {
        let est = estimator();
        let base = CpeObservation {
            prior_accuracies: vec![Some(0.6), Some(0.7), Some(0.5)],
            correct: 0,
            wrong: 0,
        };
        let good = CpeObservation {
            correct: 9,
            wrong: 1,
            ..base.clone()
        };
        let bad = CpeObservation {
            correct: 1,
            wrong: 9,
            ..base.clone()
        };
        let p_base = est.predict(&base).unwrap();
        let p_good = est.predict(&good).unwrap();
        let p_bad = est.predict(&bad).unwrap();
        assert!(p_good > p_base, "good {p_good} base {p_base}");
        assert!(p_bad < p_base, "bad {p_bad} base {p_base}");
    }

    #[test]
    fn missing_domains_are_conditioned_out() {
        let est = estimator();
        let partial = CpeObservation {
            prior_accuracies: vec![Some(0.9), None, None],
            correct: 5,
            wrong: 5,
        };
        let none = CpeObservation {
            prior_accuracies: vec![None, None, None],
            correct: 5,
            wrong: 5,
        };
        let p_partial = est.predict(&partial).unwrap();
        let p_none = est.predict(&none).unwrap();
        assert!((0.0..=1.0).contains(&p_partial));
        assert!((0.0..=1.0).contains(&p_none));
        // A strong record on the observed domain should still pull the estimate up.
        assert!(p_partial >= p_none - 1e-9);
    }

    #[test]
    fn update_improves_log_likelihood() {
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let config = CpeConfig {
            epochs: 10,
            ..Default::default()
        };
        let mut est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        // Evidence: the strong-profile workers also answer well, the weak ones badly.
        let observations: Vec<CpeObservation> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let correct = [9, 8, 4, 2][i];
                CpeObservation::from_profile(p, correct, 10 - correct)
            })
            .collect();
        let before = est.log_likelihood(&observations).unwrap();
        est.update(&observations).unwrap();
        let after = est.log_likelihood(&observations).unwrap();
        assert!(
            after >= before - 1e-6,
            "log-likelihood should not decrease: {before} -> {after}"
        );
        // The model stays usable after the update.
        for d in 0..3 {
            let rho = est.target_correlation(d).unwrap();
            assert!((-1.0..=1.0).contains(&rho), "rho {rho}");
        }
        let p = est.predict(&observations[0]).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn underflow_regime_update_stays_finite() {
        // Counts so large that the normaliser underflows: every log Z is -inf.
        // The M-step must skip the underflowed terms instead of poisoning the
        // model with NaN.
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let observations = vec![CpeObservation {
            prior_accuracies: vec![Some(0.6), Some(0.7), Some(0.5)],
            correct: 500_000,
            wrong: 500_000,
        }];
        let config = CpeConfig {
            epochs: 2,
            ..Default::default()
        };
        let mut est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        let before_mean = est.mean().to_vec();
        est.update(&observations).unwrap();
        assert!(
            est.mean().iter().all(|m| m.is_finite()),
            "NaN poisoned the mean: {:?}",
            est.mean()
        );
        assert!(
            est.covariance().as_slice().iter().all(|c| c.is_finite()),
            "NaN poisoned the covariance"
        );
        // The underflowed evidence moves nothing — and the model stays usable.
        assert_eq!(est.mean(), before_mean.as_slice());
        let fresh = CpeObservation {
            correct: 0,
            wrong: 0,
            ..observations[0].clone()
        };
        let p = est.predict(&fresh).unwrap();
        assert!((0.0..=1.0).contains(&p), "prediction {p}");
    }

    #[test]
    fn empty_update_is_a_noop() {
        let mut est = estimator();
        let mean_before = est.mean().to_vec();
        est.update(&[]).unwrap();
        assert_eq!(est.mean(), mean_before.as_slice());
    }

    #[test]
    fn log_likelihood_is_finite_for_large_counts() {
        let est = estimator();
        let obs = CpeObservation {
            prior_accuracies: vec![Some(0.8), Some(0.9), Some(0.7)],
            correct: 140,
            wrong: 2,
        };
        let ll = est.log_likelihood(std::slice::from_ref(&obs)).unwrap();
        assert!(ll.is_finite());
        let p = est.predict(&obs).unwrap();
        assert!(p > 0.8, "prediction {p} should reflect the strong record");
    }

    #[test]
    fn held_covariance_stays_exactly_symmetric() {
        // The M-step builds each entry once and mirrors it, so a round never
        // leaves the held covariance even a ulp asymmetric.
        let mut est = estimator();
        for _ in 0..2 {
            assert_eq!(*est.covariance(), est.covariance().transpose());
            est.update(&mixed_observations()).unwrap();
        }
    }

    #[test]
    fn observation_from_profile_copies_counts() {
        let p = HistoricalProfile::new(vec![Some(0.7), None], vec![10, 0]).unwrap();
        let obs = CpeObservation::from_profile(&p, 6, 4);
        assert_eq!(obs.prior_accuracies, vec![Some(0.7), None]);
        assert_eq!(obs.correct, 6);
        assert_eq!(obs.wrong, 4);
    }

    fn mixed_observations() -> Vec<CpeObservation> {
        (0..7)
            .map(|i| CpeObservation {
                prior_accuracies: vec![
                    Some(0.3 + 0.1 * i as f64),
                    (i % 2 == 0).then_some(0.7),
                    None,
                ],
                correct: i,
                wrong: 7 - i,
            })
            .collect()
    }

    /// A dense transcription of the M-step, worker by worker: complete
    /// `a = (profile, h)` by conditioning the full covariance on the observed
    /// domains and `h` (Cholesky solves, not the conditioners), add each
    /// worker's completion covariance, then clamp and project.
    fn dense_m_step(
        model: &MultivariateNormal,
        observations: &[CpeObservation],
        moments: &[PosteriorMoments],
    ) -> (Vec<f64>, Matrix) {
        let mu = model.mean().as_slice();
        let cov = model.covariance();
        let dim = mu.len();
        let t = dim - 1;
        let mut first = vec![0.0; dim];
        let mut second = Matrix::zeros(dim, dim);
        for (obs, m) in observations.iter().zip(moments) {
            let (mut given, values) = kernel::observed_domains(obs, t);
            let missing: Vec<usize> = (0..t).filter(|d| !given.contains(d)).collect();
            let mut offset: Vec<f64> = given.iter().zip(&values).map(|(&d, x)| x - mu[d]).collect();
            given.push(t);
            offset.push(m.mean - mu[t]);
            let mut a = vec![0.0; dim];
            for (&d, x) in given.iter().zip(&values) {
                a[d] = *x;
            }
            a[t] = m.mean;
            let mut v = Matrix::zeros(dim, dim);
            v[(t, t)] = m.variance;
            if !missing.is_empty() {
                // B = Sigma_mg Sigma_gg^{-1}, one row per missing domain.
                let observed = cov.submatrix(&given, &given).unwrap();
                let observed = c4u_linalg::Cholesky::new(&observed).unwrap();
                let cross = cov.submatrix(&missing, &given).unwrap();
                let rows: Vec<Vector> = (0..missing.len())
                    .map(|p| {
                        let row = Vector::from_fn(given.len(), |q| cross[(p, q)]);
                        observed.solve(&row).unwrap()
                    })
                    .collect();
                let b = Matrix::from_fn(missing.len(), given.len(), |p, q| rows[p][q]);
                let fill = b.matvec(&Vector::from_slice(&offset)).unwrap();
                let residual = cov
                    .submatrix(&missing, &missing)
                    .unwrap()
                    .add(
                        &b.matmul(&cov.submatrix(&given, &missing).unwrap())
                            .unwrap()
                            .scale(-1.0),
                    )
                    .unwrap();
                let slope = Vector::from_fn(missing.len(), |p| b[(p, given.len() - 1)]);
                for (p, &j) in missing.iter().enumerate() {
                    a[j] = mu[j] + fill[p];
                    v[(j, t)] = slope[p] * m.variance;
                    v[(t, j)] = v[(j, t)];
                    for (q, &l) in missing.iter().enumerate() {
                        v[(j, l)] = residual[(p, q)] + slope[p] * slope[q] * m.variance;
                    }
                }
            }
            for i in 0..dim {
                first[i] += a[i];
                for k in 0..dim {
                    second[(i, k)] += a[i] * a[k] + v[(i, k)];
                }
            }
        }
        let n = observations.len() as f64;
        let mean: Vec<f64> = first.iter().map(|f| f / n).collect();
        let clamped: Vec<f64> = mean.iter().map(|m| m.clamp(0.01, 0.99)).collect();
        let covariance = Matrix::from_fn(dim, dim, |i, k| {
            second[(i, k)] / n - mean[i] * mean[k] + (mean[i] - clamped[i]) * (mean[k] - clamped[k])
        });
        (
            clamped,
            nearest_positive_definite(&covariance, CpeConfig::MIN_VARIANCE).unwrap(),
        )
    }

    #[test]
    fn m_step_matches_a_dense_transcription() {
        // Masks {0, 1, 2} and {0, 2}, {0} and {1}, {}: one to three missing
        // domains, so the residual covariance between missing domains counts.
        let observations: Vec<CpeObservation> = (0..12)
            .map(|i| CpeObservation {
                prior_accuracies: vec![
                    (i % 4 != 3).then_some(0.2 + 0.06 * i as f64),
                    (i % 3 == 0).then_some(0.9 - 0.05 * i as f64),
                    (i % 2 == 0).then_some(0.3 + 0.04 * i as f64),
                ],
                correct: i,
                wrong: 12 - i,
            })
            .collect();
        let est = estimator();
        let kernel = CpeLikelihoodKernel::new(&observations, 3, &est.quadrature);
        assert!(kernel.groups().num_unique_masks() >= 4);
        let e_step = kernel.e_step(est.model()).unwrap();
        let model = m_step(&kernel, est.model(), &e_step.moments)
            .unwrap()
            .unwrap();
        let (mean, covariance) = dense_m_step(est.model(), &observations, &e_step.moments);
        for (a, b) in model.mean().as_slice().iter().zip(&mean) {
            assert!((a - b).abs() < 1e-12, "mean {a} vs {b}");
        }
        let pairs = model
            .covariance()
            .as_slice()
            .iter()
            .zip(covariance.as_slice());
        for (a, b) in pairs {
            assert!((a - b).abs() < 1e-12, "covariance {a} vs {b}");
        }
    }

    /// The fused log-likelihood of the held model on `observations`.
    fn held_log_likelihood(est: &CrossDomainEstimator, observations: &[CpeObservation]) -> f64 {
        let kernel = CpeLikelihoodKernel::new(observations, 3, &est.quadrature);
        kernel.e_step(est.model()).unwrap().log_likelihood
    }

    #[test]
    fn an_update_that_rises_stops_before_the_cap() {
        // Twenty workers whose target accuracy tracks their profile.
        let observations: Vec<CpeObservation> = (0..20)
            .map(|i| {
                let skill = 0.2 + 0.035 * i as f64;
                let correct = (20.0 * skill).round() as usize;
                CpeObservation {
                    prior_accuracies: vec![
                        Some(skill + 0.05 * ((i % 3) as f64 - 1.0)),
                        Some(0.9 * skill + 0.05),
                        Some((skill + 0.1 * ((i % 2) as f64 - 0.5)).clamp(0.05, 0.95)),
                    ],
                    correct,
                    wrong: 20 - correct,
                }
            })
            .collect();
        let mut est = estimator();
        est.update(&observations).unwrap();
        let fit = *est.last_fit().unwrap();
        assert!((2..est.config.epochs).contains(&fit.epochs), "{fit:?}");
        assert_eq!(fit.falling_epochs, 0, "{fit:?}");
        assert!(
            fit.best_log_likelihood > fit.start_log_likelihood,
            "{fit:?}"
        );
        assert_eq!(fit.best_log_likelihood, fit.last_log_likelihood);
        // The summary describes the model the estimator holds.
        assert_eq!(fit.target_mean, est.mean()[3]);
        assert_eq!(fit.target_variance, est.covariance()[(3, 3)]);
        assert_eq!(
            held_log_likelihood(&est, &observations),
            fit.best_log_likelihood
        );
    }

    #[test]
    fn an_update_whose_last_epoch_falls_keeps_its_best_iterate() {
        // Four workers over four coordinates: the sample covariance is
        // singular, and projecting it to correlations within ±0.999 moves the
        // iterate far enough from the M-step's optimum to lower the
        // likelihood.
        let observations: Vec<CpeObservation> = profiles()
            .iter()
            .zip([9, 8, 4, 2])
            .map(|(p, correct)| CpeObservation::from_profile(p, correct, 10 - correct))
            .collect();
        let mut est = estimator();
        est.update(&observations).unwrap();
        let fit = *est.last_fit().unwrap();
        assert_eq!(fit.falling_epochs, 1, "{fit:?}");
        assert!(fit.last_log_likelihood < fit.best_log_likelihood, "{fit:?}");
        assert!(
            fit.best_log_likelihood > fit.start_log_likelihood,
            "{fit:?}"
        );
        assert!(fit.epochs < est.config.epochs, "{fit:?}");
        // The estimator holds the best iterate, not the last.
        assert_eq!(
            held_log_likelihood(&est, &observations),
            fit.best_log_likelihood
        );
    }

    #[test]
    fn no_fit_is_reported_before_the_first_update() {
        let mut est = estimator();
        assert!(est.last_fit().is_none());
        est.update(&[]).unwrap();
        assert!(est.last_fit().is_none());
    }

    #[test]
    fn the_epoch_cap_bounds_the_fit() {
        let config = CpeConfig {
            epochs: 1,
            ..Default::default()
        };
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let mut est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        est.update(&mixed_observations()).unwrap();
        let fit = *est.last_fit().unwrap();
        assert_eq!(fit.epochs, 1, "{fit:?}");
        assert!(
            fit.best_log_likelihood >= fit.start_log_likelihood,
            "{fit:?}"
        );
    }

    #[test]
    fn sharded_prediction_matches_unsharded() {
        let est = estimator();
        let obs = mixed_observations();
        let reference = est.predict_batch(&obs).unwrap();
        for num_shards in [1, 2, 3, 7] {
            let shards = WorkerShards::by_count(obs.len(), num_shards);
            assert_eq!(est.predict_batch_sharded(&obs, &shards).unwrap(), reference);
        }
        let short = WorkerShards::by_count(obs.len() - 1, 2);
        assert!(est.predict_batch_sharded(&obs, &short).is_err());
    }

    #[test]
    fn sparse_profiles_fall_back_to_the_default_moments() {
        let profiles = [
            HistoricalProfile::new(vec![Some(1.0), None], vec![5, 0]).unwrap(),
            HistoricalProfile::new(vec![Some(0.0), None], vec![5, 0]).unwrap(),
        ];
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let config = CpeConfig {
            initial_target_accuracy: 0.4,
            ..Default::default()
        };
        let est = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        // Domain 0 is observed twice (mean 0.5); domain 1 never, so it starts at
        // the initial accuracy with the fallback spread 0.15 (the PSD repair
        // may only add jitter on top).
        assert_eq!(est.mean(), &[0.5, 0.4, 0.4]);
        assert!(est.covariance()[(1, 1)] >= 0.0225);
        assert_eq!(*est.covariance(), est.covariance().transpose());
    }

    #[test]
    fn initial_correlations_are_deterministic() {
        let (a, b) = (estimator(), estimator());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.covariance(), b.covariance());
    }

    #[test]
    fn updates_are_deterministic() {
        let config = CpeConfig {
            epochs: 3,
            ..Default::default()
        };
        let profiles = profiles();
        let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
        let mut a = CrossDomainEstimator::from_profiles(&refs, config).unwrap();
        let mut b = a.clone();
        a.update(&mixed_observations()).unwrap();
        b.update(&mixed_observations()).unwrap();
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.covariance(), b.covariance());
        assert_ne!(a.covariance(), estimator().covariance());
    }
}
