//! Shared test support: a literal transcription of the historical
//! per-observation CPE likelihood path, kept verbatim as ground truth for the
//! batched mask-grouped kernel, together with the paper's Eq. 6–7 update as
//! the estimator historically ran it ([`ReferenceEstimator::update`]: fixed
//! learning rates over the central-difference [`gradient_with_step`]). The
//! estimator fits by EM instead; this copy keeps the paper's rule, and its
//! finding that at the paper's rates an update can end below its start,
//! reproducible.
//!
//! `kernel_equivalence.rs` (exact-state equivalence), `proptest_kernel.rs`
//! (randomised equivalence), `fd_pinned.rs` (the pinned Eq. 6–7 update) and
//! the other suites of this directory that declare `mod reference` all
//! compare against this single copy, so the transcription cannot silently
//! drift between suites.

// Each including binary uses a different subset of this support module; the
// unused remainder would otherwise trip per-binary dead-code lints.
#![allow(dead_code)]

use c4u_selection::{
    binomial_normal_moments, observed_domains, CpeConfig, CpeObservation, CrossDomainEstimator,
};
// Matrix/Vector via the stats re-exports: every including crate depends on
// c4u-stats, but not all of them on c4u-linalg directly.
use c4u_stats::{nearest_positive_definite, GaussLegendre, Matrix, MultivariateNormal, Vector};

/// Central-difference gradient with a caller-supplied absolute step per
/// coordinate (the sign of `step` is ignored).
///
/// The input slice is copied once; with the tiny dimensionalities of these
/// suites that cost is irrelevant and it keeps `f` a plain `Fn(&[f64])`.
pub fn gradient_with_step(f: impl Fn(&[f64]) -> f64, x: &[f64], step: f64) -> Vec<f64> {
    let step = step.abs().max(f64::MIN_POSITIVE);
    let mut grad = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let orig = work[i];
        work[i] = orig + step;
        let plus = f(&work);
        work[i] = orig - step;
        let minus = f(&work);
        work[i] = orig;
        grad[i] = (plus - minus) / (2.0 * step);
    }
    grad
}

/// Lower-triangle (row-major) packing of a symmetric matrix, the parameter
/// layout of the central-difference update.
pub fn lower_triangle(m: &Matrix) -> Vec<f64> {
    let n = m.nrows();
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in 0..=i {
            out.push(m[(i, j)]);
        }
    }
    out
}

/// Inverse of [`lower_triangle`]: rebuilds the symmetric matrix.
pub fn from_lower_triangle(tri: &[f64], n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        for j in 0..=i {
            m[(i, j)] = tri[k];
            m[(j, i)] = tri[k];
            k += 1;
        }
    }
    m
}

/// One `log Z` term of Eq. 5: per-observation conditioning, exactly as the
/// pre-kernel code did it.
pub fn reference_worker_log_likelihood(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    obs: &CpeObservation,
) -> f64 {
    let (idx, values) = observed_domains(obs, num_domains);
    let cond = model.condition_on(num_domains, &idx, &values).unwrap();
    let (log_z, _) = binomial_normal_moments(
        quadrature,
        cond.mean,
        cond.std_dev(),
        obs.correct as f64,
        obs.wrong as f64,
    );
    log_z
}

/// Per-observation reference for the total log-likelihood.
pub fn reference_log_likelihood(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    observations: &[CpeObservation],
) -> f64 {
    let mut total = 0.0;
    for obs in observations {
        total += reference_worker_log_likelihood(model, quadrature, num_domains, obs);
    }
    total
}

/// Per-observation reference for the batch prediction (Eq. 8): the
/// posterior mean given the profile and the counts.
pub fn reference_predict(
    model: &MultivariateNormal,
    quadrature: &GaussLegendre,
    num_domains: usize,
    observations: &[CpeObservation],
) -> Vec<f64> {
    observations
        .iter()
        .map(|obs| {
            let (idx, values) = observed_domains(obs, num_domains);
            let cond = model.condition_on(num_domains, &idx, &values).unwrap();
            let (c, x) = (obs.correct as f64, obs.wrong as f64);
            let (log_z, posterior_mean) =
                binomial_normal_moments(quadrature, cond.mean, cond.std_dev(), c, x);
            assert!(log_z.is_finite() && posterior_mean.is_finite());
            posterior_mean.clamp(0.0, 1.0)
        })
        .collect()
}

/// The knobs of the reference update: the paper's two learning rates and the
/// epoch count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceConfig {
    /// Learning rate for the mean vector (`r1` of Eq. 6; paper `1e-7`).
    pub mean_learning_rate: f64,
    /// Learning rate for the covariance entries (`r2` of Eq. 7; paper `1e-4`).
    pub covariance_learning_rate: f64,
    /// Gradient epochs per update (`G`; paper 50).
    pub epochs: usize,
}

impl ReferenceConfig {
    /// The paper's rates and epoch count (Sec. V-C).
    pub const PAPER: Self = Self {
        mean_learning_rate: 1e-7,
        covariance_learning_rate: 1e-4,
        epochs: 50,
    };

    /// Larger rates and few epochs: real parameter movement, fast tests.
    pub fn fast(epochs: usize) -> Self {
        Self {
            mean_learning_rate: 1e-4,
            covariance_learning_rate: 1e-4,
            epochs,
        }
    }
}

/// The historical per-observation CPE estimator loop (pre-kernel), seeded with
/// the exact state of a live [`CrossDomainEstimator`].
pub struct ReferenceEstimator {
    pub config: ReferenceConfig,
    pub d: usize,
    pub mean: Vec<f64>,
    pub covariance: Matrix,
    pub quadrature: GaussLegendre,
}

impl ReferenceEstimator {
    /// Seeds the reference with the exact state of a live estimator.
    pub fn from_estimator(est: &CrossDomainEstimator, config: ReferenceConfig) -> Self {
        Self {
            config,
            d: est.num_prior_domains(),
            mean: est.mean().to_vec(),
            covariance: est.covariance().clone(),
            quadrature: GaussLegendre::new(CpeConfig::QUADRATURE_ORDER),
        }
    }

    pub fn model(&self) -> MultivariateNormal {
        MultivariateNormal::new(Vector::from_slice(&self.mean), self.covariance.clone()).unwrap()
    }

    pub fn log_likelihood(&self, observations: &[CpeObservation]) -> f64 {
        reference_log_likelihood(&self.model(), &self.quadrature, self.d, observations)
    }

    fn objective_at(&self, params: &[f64], observations: &[CpeObservation]) -> Option<f64> {
        let mean = &params[..self.d + 1];
        let cov = from_lower_triangle(&params[self.d + 1..], self.d + 1);
        let cov = nearest_positive_definite(&cov, CpeConfig::MIN_VARIANCE).ok()?;
        let model = MultivariateNormal::new(Vector::from_slice(mean), cov).ok()?;
        Some(-reference_log_likelihood(
            &model,
            &self.quadrature,
            self.d,
            observations,
        ))
    }

    /// The historical Eq. 6–7 `update` body: per-observation objective,
    /// fixed-step central differences (step `1e-5`; an objective that errors
    /// reads as `1e12`), two learning rates, PSD projection per epoch.
    pub fn update(&mut self, observations: &[CpeObservation]) {
        if observations.is_empty() {
            return;
        }
        let d = self.d;
        let n_mean = d + 1;
        let n_cov = (d + 1) * (d + 2) / 2;

        for _ in 0..self.config.epochs {
            let mut params = Vec::with_capacity(n_mean + n_cov);
            params.extend_from_slice(&self.mean);
            params.extend(lower_triangle(&self.covariance));

            let objective = |p: &[f64]| self.objective_at(p, observations).unwrap_or(1e12);
            let grad = gradient_with_step(objective, &params, 1e-5);

            for (i, value) in self.mean.iter_mut().enumerate() {
                let g = grad[i].clamp(-1e6, 1e6);
                *value = (*value - self.config.mean_learning_rate * g).clamp(0.01, 0.99);
            }
            let mut tri = lower_triangle(&self.covariance);
            for (j, value) in tri.iter_mut().enumerate() {
                let g = grad[n_mean + j].clamp(-1e6, 1e6);
                *value -= self.config.covariance_learning_rate * g;
            }
            let candidate = from_lower_triangle(&tri, d + 1);
            self.covariance =
                nearest_positive_definite(&candidate, CpeConfig::MIN_VARIANCE).unwrap();
        }
    }

    /// The historical `predict`: a fresh model build *and* a fresh conditioning
    /// per call (the numbers are identical either way, but for bench honesty
    /// the per-call model build is part of the old path's cost).
    pub fn predict(&self, obs: &CpeObservation) -> f64 {
        reference_predict(
            &self.model(),
            &self.quadrature,
            self.d,
            std::slice::from_ref(obs),
        )[0]
    }

    /// The historical `predict_batch`: one `predict` (model + conditioning)
    /// per observation.
    pub fn predict_batch(&self, observations: &[CpeObservation]) -> Vec<f64> {
        observations.iter().map(|obs| self.predict(obs)).collect()
    }
}
