//! # c4u-irt
//!
//! Item Response Theory models for the C4U (cross-domain-aware worker
//! selection with training) workspace.
//!
//! The Learning Gain Estimation step of the paper (Sec. IV-C2) models how a crowd
//! worker's accuracy on the target domain improves as ground-truth answers of
//! learning tasks are revealed. This crate provides:
//!
//! * [`RaschItem`] — the classic 1PL IRT model (Eq. 9) plus the
//!   `beta = ln(1/a - 1)` difficulty initialisation of Sec. V-C;
//! * [`LearningGainModel`] — the modified IRT model `g(alpha, beta, K)` with
//!   proficiency `alpha * ln(K + 1)` (Eq. 10), including the
//!   [`cumulative_tasks_after_round`] schedule `K_j = (2^j - 1) t / |W|`;
//! * [`calibrate_alpha`] — the per-worker least-squares fit of the learning
//!   parameter (Eq. 11), a thin wrapper over [`calibrate_terms`], the one fit
//!   over a precomputed [`LearningTerm`] table: a scan of the analytic
//!   derivative across the range that holds every stationary point, then a
//!   bracketed Newton iteration in each interval where it turns positive.
//!
//! The selection layer's `LgeStage` (`c4u-selection`) runs these fits once
//! per worker and round, against the trajectory of the static estimates it is
//! handed; this crate stays a pure model library with no selection-loop
//! dependencies.
//!
//! ## Example
//!
//! ```
//! use c4u_irt::{calibrate_alpha, LearningGainModel, TargetStageObservation};
//!
//! // A worker whose estimated accuracy improved from 0.5 to 0.8 over training.
//! let stages = [
//!     TargetStageObservation { cumulative_tasks_before: 0.0, estimated_accuracy: 0.5 },
//!     TargetStageObservation { cumulative_tasks_before: 10.0, estimated_accuracy: 0.7 },
//!     TargetStageObservation { cumulative_tasks_before: 30.0, estimated_accuracy: 0.8 },
//! ];
//! let fitted = calibrate_alpha(0.0, &[], &stages).unwrap();
//! let model = LearningGainModel::new(fitted.alpha, 0.0).unwrap();
//! // Predict accuracy after further training.
//! assert!(model.accuracy(70.0) > 0.8);
//! ```

#![forbid(unsafe_code)]

mod calibration;
mod error;
mod learning;
mod rasch;

pub use calibration::{
    calibrate_alpha, calibrate_terms, objective as learning_objective, CalibratedAlpha,
    LearningTerm, PriorDomainObservation, TargetStageObservation,
};
pub use error::IrtError;
pub use learning::{cumulative_tasks_after_round, log_tasks, LearningGainModel};
pub use rasch::RaschItem;
