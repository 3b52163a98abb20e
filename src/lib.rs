//! # c4u — cross-domain-aware crowd worker selection
//!
//! Facade crate of the C4U workspace, a from-scratch Rust reproduction of the
//! ICDE 2024 paper on selecting and training crowd workers for a new target
//! domain (CPE + LGE + ME, Algorithms 1–4).
//!
//! The actual implementation lives in the per-layer crates, re-exported here:
//!
//! * [`linalg`] — dense vectors/matrices, Cholesky;
//! * [`stats`] — descriptive stats, quadrature, (truncated) multivariate normals;
//! * [`irt`] — Rasch items, learning-gain curves, and the Eq. 11 alpha
//!   calibration;
//! * [`crowd_sim`] — dataset generator and the simulated crowdsourcing platform;
//! * [`selection`] — CPE/LGE/ME stages, the stage pipeline, baselines, and the
//!   evaluation protocol (`evaluate_over_trials` fans trials out over threads).
//!
//! The `examples/` directory holds runnable end-to-end walkthroughs and the
//! `tests/` directory the cross-crate integration suite; see the workspace
//! `README.md` for the full layout and `ARCHITECTURE.md` for the crate map,
//! the extension seams, and the data flow of one selection run.

#![forbid(unsafe_code)]

/// Compiles and runs every Rust code block of the workspace `README.md` as a
/// doctest (`cargo test --doc -p c4u`), so the README's quickstart and usage
/// snippets cannot rot. The struct itself never exists outside `cfg(doctest)`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use c4u_crowd_sim as crowd_sim;
pub use c4u_irt as irt;
pub use c4u_linalg as linalg;
pub use c4u_selection as selection;
pub use c4u_stats as stats;
