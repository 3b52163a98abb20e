//! # c4u-optim
//!
//! Numerical optimisation substrate for the C4U (cross-domain-aware worker selection
//! with training) workspace.
//!
//! Three estimation problems in the paper need an optimiser:
//!
//! 1. the Maximum Likelihood Estimation of the cross-domain mean vector and
//!    covariance matrix (Eq. 5–7): the selection crate's estimator runs its
//!    own two-learning-rate descent loop over closed-form gradients, and
//!    [`gradient_with_step`] supplies the central-difference stencil it keeps
//!    as their cross-check;
//! 2. the per-worker learning-parameter fit of the Learning Gain Estimation
//!    (Eq. 11), a one-dimensional least-squares problem solved by
//!    [`minimize_scalar`] (golden-section search plus Newton polish);
//! 3. the Li et al. baseline, plain multiple linear regression on historical
//!    profiles, provided by [`LinearRegression`].
//!
//! ## Example
//!
//! ```
//! use c4u_optim::{gradient_with_step, minimize_scalar};
//!
//! // Fit a scalar by least squares.
//! let m = minimize_scalar(|a| (a - 1.5f64).powi(2), -10.0, 10.0, 1e-9).unwrap();
//! assert!((m.x - 1.5).abs() < 1e-6);
//!
//! // Central-difference gradient of a 2-d bowl.
//! let g = gradient_with_step(|v| v[0] * v[0] + (v[1] - 2.0) * (v[1] - 2.0), &[1.0, 0.0], 1e-5);
//! assert!((g[0] - 2.0).abs() < 1e-6 && (g[1] + 4.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]

mod error;
mod gradient;
mod ols;
mod scalar;

pub use error::OptimError;
pub use gradient::{derivative, gradient_with_step};
pub use ols::LinearRegression;
pub use scalar::{golden_section_minimize, minimize_scalar, ScalarMinimum};
