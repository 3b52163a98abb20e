//! # c4u-stats
//!
//! Probability and statistics substrate for the C4U (cross-domain-aware worker
//! selection with training) workspace.
//!
//! The paper models worker annotation accuracy with normal and multivariate normal
//! distributions (Sec. IV-C1), generates synthetic workers from a truncated
//! multivariate normal (Sec. V-A), scores answers with Bernoulli draws, evaluates
//! integrals of binomial-times-Gaussian kernels (Eq. 5 and Eq. 8), and validates
//! dataset consistency with bucketed Pearson correlations (Table IV). This crate
//! provides every one of those primitives, built from scratch on `rand` +
//! `c4u-linalg`:
//!
//! * the logistic link functions [`sigmoid`] and [`logit`];
//! * the [`Bernoulli`] answer draw and the [`Uniform`] distribution;
//! * the [`MultivariateNormal`] with conditioning ([`Conditional1D`]), sampling and
//!   box-truncated sampling;
//! * Gauss–Legendre quadrature ([`GaussLegendre`]);
//! * the binomial×normal integrals of the CPE likelihood:
//!   [`binomial_normal_moments`] and [`binomial_normal_log_z`], plus the one
//!   batched structure-of-arrays sweep over shared node tables
//!   ([`BinomialNormalBatch`]) that the CPE E-step uses — `log Z`, `E[h]` and
//!   the second moment about the conditional mean per worker
//!   ([`BinomialNormalMoments`]), bit-identical to the scalar forms;
//! * descriptive statistics: [`mean`], [`std_dev`], [`quantile`],
//!   [`pearson_correlation`], [`Histogram`];
//! * the PSD projection of covariance iterates, [`nearest_positive_definite`].
//!
//! ## Example
//!
//! ```
//! use c4u_stats::{MultivariateNormal, Matrix};
//!
//! // Two prior domains plus a target domain, moderately correlated.
//! let rho = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.6 });
//! let mvn = MultivariateNormal::from_correlations(
//!     &[0.7, 0.88, 0.55],
//!     &[0.22, 0.10, 0.17],
//!     &rho,
//! ).unwrap();
//!
//! // Predict the target-domain accuracy of a worker with a strong profile.
//! let cond = mvn.condition_on(2, &[0, 1], &[0.9, 0.95]).unwrap();
//! assert!(cond.mean > 0.55);
//! ```

#![forbid(unsafe_code)]

mod batch;
mod binomial_normal;
mod covariance;
mod descriptive;
mod error;
mod integrate;
mod mvn;
mod special;
mod univariate;
mod vmath;

pub use batch::{
    batched_quadrature_sweeps, scalar_quadrature_evaluations, BinomialNormalBatch,
    BinomialNormalMoments, QuadratureMath, QuadratureScratch,
};
pub use binomial_normal::{binomial_normal_log_z, binomial_normal_moments};
pub use covariance::nearest_positive_definite;
pub use descriptive::{
    covariance, max, mean, median, min, pearson_correlation, quantile, std_dev, variance, Histogram,
};
pub use error::StatsError;
pub use integrate::GaussLegendre;
pub use mvn::{conditioning_factorizations, Conditional1D, Conditioner, MultivariateNormal};
pub use special::{logit, sigmoid};
pub use univariate::{Bernoulli, Uniform};
pub use vmath::vexp_scalar;

// Re-export the linear-algebra types used in this crate's public API so downstream
// crates do not need a direct `c4u-linalg` dependency just to construct inputs.
pub use c4u_linalg::{Matrix, Vector};
