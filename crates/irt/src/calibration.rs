//! Calibration of the per-worker learning parameter `alpha_i` (Eq. 11 of the paper).
//!
//! In every elimination round the Learning Gain Estimation refits each remaining
//! worker's `alpha_i` by minimising a two-part least-squares objective:
//!
//! ```text
//! alpha_i = argmin_alpha   sum_{d=1..D} ( g(alpha, beta_d, n_{i,d}) - h_{i,d} )^2
//!                        + sum_{j=1..c} ( g(alpha, beta_T, K_{j-1}) - p_{j,i} )^2
//! ```
//!
//! The first part anchors the learning curve to the worker's historical accuracy on
//! each prior domain (evaluated at the number of tasks the worker completed there);
//! the second part tracks the CPE-estimated target-domain accuracy across the
//! training rounds observed so far, with the model evaluated one round "behind"
//! because the CPE estimate of round `j` reflects a worker who has been shown only
//! `j-1` rounds of ground-truth answers.
//!
//! Every summand has the same shape, `(sigmoid(alpha * ln(K + 1) - beta) - a)^2`,
//! so the fit runs over a table of [`LearningTerm`]s with `ln(K + 1)` taken once
//! per term rather than once per term and objective evaluation. [`calibrate_terms`]
//! is the one fit: golden-section search plus Newton polish ([`minimize_scalar`]).
//! [`calibrate_alpha`] validates the observation form and builds its table;
//! [`objective`] keeps the Eq. 11 sum in that form as the reference the table sum
//! equals bit for bit.

use crate::learning::log_tasks;
use crate::{minimize_scalar, IrtError};
use c4u_stats::sigmoid;

/// One prior-domain anchor point of the Eq. 11 objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorDomainObservation {
    /// Difficulty parameter `beta_d` of the prior domain.
    pub difficulty: f64,
    /// Number of tasks the worker completed on that domain (`n_{i,d}`).
    pub tasks_completed: f64,
    /// Historical accuracy `h_{i,d}` of the worker on that domain.
    pub accuracy: f64,
}

/// One target-domain tracking point of the Eq. 11 objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetStageObservation {
    /// Cumulative learning tasks the worker had been trained with *before* the CPE
    /// estimate was produced (`K_{j-1}`).
    pub cumulative_tasks_before: f64,
    /// CPE-estimated target-domain accuracy at stage `j` (`p_{j,i}`).
    pub estimated_accuracy: f64,
}

/// One summand of the Eq. 11 objective,
/// `(sigmoid(alpha * ln(K + 1) - difficulty) - accuracy)^2`, with the training
/// count already mapped to `ln(K + 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningTerm {
    log_tasks: f64,
    difficulty: f64,
    accuracy: f64,
    /// The summand when it cannot depend on `alpha`: at `K = 0` the
    /// proficiency `alpha * ln 1` is `±0` for every finite `alpha`, so the
    /// sigmoid's argument is `-difficulty` (or `±0`, which it maps alike).
    fixed: Option<f64>,
}

impl LearningTerm {
    /// A term at `cumulative_tasks` training tasks (negative counts clamp to 0):
    /// `n_{i,d}` with `beta_d` and `h_{i,d}` for a prior-domain anchor,
    /// `K_{j-1}` with `beta_T` and `p_{j,i}` for a target-domain stage.
    pub fn new(cumulative_tasks: f64, difficulty: f64, accuracy: f64) -> Self {
        Self::with_log_tasks(log_tasks(cumulative_tasks), difficulty, accuracy)
    }

    /// A term whose `ln(K + 1)` (see [`log_tasks`]) is already known, e.g.
    /// from a per-round table.
    pub fn with_log_tasks(log_tasks: f64, difficulty: f64, accuracy: f64) -> Self {
        let mut term = Self {
            log_tasks,
            difficulty,
            accuracy,
            fixed: None,
        };
        if log_tasks == 0.0 {
            term.fixed = Some(term.squared_error_at(0.0));
        }
        term
    }

    fn squared_error(&self, alpha: f64) -> f64 {
        match self.fixed {
            Some(value) => value,
            None => self.squared_error_at(alpha),
        }
    }

    fn squared_error_at(&self, alpha: f64) -> f64 {
        let theta = alpha * self.log_tasks;
        let predicted = sigmoid(theta - self.difficulty);
        (predicted - self.accuracy).powi(2)
    }
}

/// Bounds of the search bracket for `alpha`. The logit of any realistic accuracy is
/// within ±7 and `ln(K+1)` is at least `ln 2` for a single task, so ±20 comfortably
/// covers every identifiable value.
const ALPHA_BRACKET: (f64, f64) = (-20.0, 20.0);

/// Result of one calibration: the fitted `alpha` and the residual objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedAlpha {
    /// Fitted learning parameter.
    pub alpha: f64,
    /// Residual sum of squares at the fitted value.
    pub residual: f64,
}

/// Evaluates the Eq. 11 objective for a given `alpha`.
///
/// This is the reference form over observations; the fit evaluates the same sum,
/// in the same order (priors, then stages), over a [`LearningTerm`] table.
pub fn objective(
    alpha: f64,
    target_difficulty: f64,
    priors: &[PriorDomainObservation],
    stages: &[TargetStageObservation],
) -> f64 {
    let mut total = 0.0;
    for p in priors {
        let theta = alpha * (p.tasks_completed.max(0.0) + 1.0).ln();
        let predicted = sigmoid(theta - p.difficulty);
        total += (predicted - p.accuracy).powi(2);
    }
    for s in stages {
        let theta = alpha * (s.cumulative_tasks_before.max(0.0) + 1.0).ln();
        let predicted = sigmoid(theta - target_difficulty);
        total += (predicted - s.estimated_accuracy).powi(2);
    }
    total
}

/// Fits `alpha_i` by minimising the Eq. 11 objective.
///
/// At least one observation (prior-domain anchor or target-domain stage) is required;
/// with none the parameter is unidentifiable and an error is returned.
pub fn calibrate_alpha(
    target_difficulty: f64,
    priors: &[PriorDomainObservation],
    stages: &[TargetStageObservation],
) -> Result<CalibratedAlpha, IrtError> {
    if priors.is_empty() && stages.is_empty() {
        return Err(unidentifiable());
    }
    if !target_difficulty.is_finite() {
        return Err(IrtError::InvalidParameter {
            what: "target difficulty must be finite",
            value: target_difficulty,
        });
    }
    for p in priors {
        if !(0.0..=1.0).contains(&p.accuracy) {
            return Err(IrtError::InvalidParameter {
                what: "prior-domain accuracy must lie in [0, 1]",
                value: p.accuracy,
            });
        }
    }
    for s in stages {
        if !(0.0..=1.0).contains(&s.estimated_accuracy) {
            return Err(IrtError::InvalidParameter {
                what: "stage accuracy must lie in [0, 1]",
                value: s.estimated_accuracy,
            });
        }
    }
    let terms: Vec<LearningTerm> = priors
        .iter()
        .map(|p| LearningTerm::new(p.tasks_completed, p.difficulty, p.accuracy))
        .chain(stages.iter().map(|s| {
            LearningTerm::new(
                s.cumulative_tasks_before,
                target_difficulty,
                s.estimated_accuracy,
            )
        }))
        .collect();
    calibrate_terms(&terms)
}

/// Fits `alpha_i` over a precomputed Eq. 11 term table.
///
/// The table must be non-empty and every accuracy must lie in `[0, 1]`. The
/// objective sums the terms in slice order, so a table built from
/// [`calibrate_alpha`]'s observations (priors first) gives its exact bits.
pub fn calibrate_terms(terms: &[LearningTerm]) -> Result<CalibratedAlpha, IrtError> {
    if terms.is_empty() {
        return Err(unidentifiable());
    }
    if let Some(t) = terms.iter().find(|t| !(0.0..=1.0).contains(&t.accuracy)) {
        return Err(IrtError::InvalidParameter {
            what: "term accuracy must lie in [0, 1]",
            value: t.accuracy,
        });
    }
    let f = |alpha: f64| {
        let mut total = 0.0;
        for t in terms {
            total += t.squared_error(alpha);
        }
        total
    };
    let minimum = minimize_scalar(f, ALPHA_BRACKET.0, ALPHA_BRACKET.1, 1e-7)?;
    Ok(CalibratedAlpha {
        alpha: minimum.x,
        residual: minimum.value,
    })
}

fn unidentifiable() -> IrtError {
    IrtError::Calibration("alpha is unidentifiable without any observations".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::LearningGainModel;

    fn prior(difficulty: f64, tasks: f64, accuracy: f64) -> PriorDomainObservation {
        PriorDomainObservation {
            difficulty,
            tasks_completed: tasks,
            accuracy,
        }
    }

    fn stage(k: f64, acc: f64) -> TargetStageObservation {
        TargetStageObservation {
            cumulative_tasks_before: k,
            estimated_accuracy: acc,
        }
    }

    #[test]
    fn recovers_alpha_from_noiseless_observations() {
        // Generate observations from a known model and check they are recovered.
        let true_alpha = 0.65;
        let beta_t = 0.0;
        let model = LearningGainModel::new(true_alpha, beta_t).unwrap();
        let priors: Vec<_> = [(0.8, 20.0), (-0.2, 10.0), (0.3, 15.0)]
            .iter()
            .map(|&(beta_d, n)| {
                let m = LearningGainModel::new(true_alpha, beta_d).unwrap();
                prior(beta_d, n, m.accuracy(n))
            })
            .collect();
        let stages: Vec<_> = [0.0, 10.0, 30.0]
            .iter()
            .map(|&k| stage(k, model.accuracy(k)))
            .collect();
        let fitted = calibrate_alpha(beta_t, &priors, &stages).unwrap();
        assert!(
            (fitted.alpha - true_alpha).abs() < 1e-3,
            "fitted {} true {}",
            fitted.alpha,
            true_alpha
        );
        assert!(fitted.residual < 1e-8);
    }

    #[test]
    fn fast_learner_gets_larger_alpha_than_slow_learner() {
        let beta_t = 0.0;
        // Fast learner: accuracy grows quickly across stages.
        let fast = calibrate_alpha(
            beta_t,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.8), stage(30.0, 0.9)],
        )
        .unwrap();
        // Slow learner: accuracy stays flat.
        let slow = calibrate_alpha(
            beta_t,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.55), stage(30.0, 0.6)],
        )
        .unwrap();
        assert!(fast.alpha > slow.alpha);
    }

    #[test]
    fn declining_worker_gets_negative_alpha() {
        let fitted = calibrate_alpha(
            0.0,
            &[],
            &[stage(5.0, 0.4), stage(15.0, 0.35), stage(40.0, 0.3)],
        )
        .unwrap();
        assert!(fitted.alpha < 0.0);
    }

    #[test]
    fn prior_domains_alone_are_sufficient() {
        // Round 1 of the pipeline calls the calibration with only the prior-domain
        // anchors (no CPE stages yet).
        let fitted = calibrate_alpha(
            0.0,
            &[
                prior(0.8, 20.0, 0.7),
                prior(-0.1, 10.0, 0.88),
                prior(0.3, 10.0, 0.58),
            ],
            &[],
        )
        .unwrap();
        assert!(fitted.alpha.is_finite());
        // Workers with strong priors should have positive alpha under this anchor.
        assert!(fitted.alpha > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(calibrate_alpha(0.0, &[], &[]).is_err());
        assert!(calibrate_alpha(f64::NAN, &[prior(0.0, 5.0, 0.5)], &[]).is_err());
        assert!(calibrate_alpha(0.0, &[prior(0.0, 5.0, 1.5)], &[]).is_err());
        assert!(calibrate_alpha(0.0, &[], &[stage(5.0, -0.1)]).is_err());
    }

    #[test]
    fn calibrated_alpha_gives_usable_predictor() {
        let fitted = calibrate_alpha(
            0.0,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.75), stage(30.0, 0.85)],
        )
        .unwrap();
        let model = LearningGainModel::new(fitted.alpha, 0.0).unwrap();
        // Predicting further training should extrapolate above the last observation
        // for an improving worker.
        assert!(model.accuracy(60.0) > 0.8);
        assert!(model.accuracy(60.0) <= 1.0);
    }

    #[test]
    fn objective_is_zero_at_perfect_fit() {
        let alpha = 0.4;
        let m = LearningGainModel::new(alpha, 0.2).unwrap();
        let obs = [stage(8.0, m.accuracy(8.0))];
        assert!(objective(alpha, 0.2, &[], &obs) < 1e-15);
        assert!(objective(alpha + 0.5, 0.2, &[], &obs) > 1e-4);
    }

    #[test]
    fn zero_task_terms_add_a_constant_and_leave_alpha_alone() {
        let informative = [
            LearningTerm::new(10.0, 0.0, 0.7),
            LearningTerm::new(30.0, 0.0, 0.8),
        ];
        let base = calibrate_terms(&informative).unwrap();
        let mut with_zero = informative.to_vec();
        with_zero.push(LearningTerm::new(0.0, 0.0, 0.9));
        let padded = calibrate_terms(&with_zero).unwrap();
        assert!((padded.alpha - base.alpha).abs() < 1e-6);
        // sigmoid(0) = 0.5, so the K = 0 term contributes (0.5 - 0.9)^2.
        assert!((padded.residual - base.residual - 0.16).abs() < 1e-9);
    }

    #[test]
    fn calibrate_alpha_is_calibrate_terms_over_its_table() {
        let priors = [prior(0.3, 20.0, 0.75), prior(-0.5, 5.0, 0.9)];
        let stages = [stage(0.0, 0.5), stage(10.0, 0.66)];
        let via_alpha = calibrate_alpha(0.1, &priors, &stages).unwrap();
        let terms = [
            LearningTerm::new(20.0, 0.3, 0.75),
            LearningTerm::new(5.0, -0.5, 0.9),
            LearningTerm::with_log_tasks(0.0, 0.1, 0.5),
            LearningTerm::with_log_tasks(11.0f64.ln(), 0.1, 0.66),
        ];
        assert_eq!(calibrate_terms(&terms).unwrap(), via_alpha);
        assert!(calibrate_terms(&[]).is_err());
        assert!(calibrate_terms(&[LearningTerm::new(3.0, 0.0, 1.5)]).is_err());
    }
}
