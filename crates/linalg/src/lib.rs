//! # c4u-linalg
//!
//! Dense linear-algebra substrate for the C4U (cross-domain-aware worker selection
//! with training) workspace.
//!
//! The cross-domain performance estimator of the paper models worker accuracies with
//! a `(D+1)`-dimensional multivariate normal distribution, so the whole pipeline needs
//! a small but reliable set of dense operations on `f64` vectors and matrices:
//!
//! * [`Vector`] and [`Matrix`] — storage plus the usual arithmetic, products,
//!   sub-block extraction and symmetrisation;
//! * [`Cholesky`] — factorisation of SPD matrices (the CPE covariance blocks and
//!   the Li et al. baseline's Gram matrix), with a diagonal-jitter repair loop
//!   ([`Cholesky::new_with_jitter`]) because rounding can push a covariance
//!   iterate slightly outside the PSD cone.
//!
//! Everything is implemented from scratch on top of `std`; the crate has no runtime
//! dependencies.
//!
//! ## Example
//!
//! ```
//! use c4u_linalg::{Cholesky, Matrix, Vector};
//!
//! let sigma = Matrix::from_rows(&[vec![1.0, 0.3], vec![0.3, 2.0]]).unwrap();
//! let chol = Cholesky::new(&sigma).unwrap();
//! let x = chol.solve(&Vector::from_slice(&[1.0, 1.0])).unwrap();
//! let back = sigma.matvec(&x).unwrap();
//! assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

mod cholesky;
mod error;
mod matrix;
mod vector;

pub use cholesky::Cholesky;
pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use vector::Vector;
