//! Learning Gain Estimation (LGE, Algorithm 2 of the paper).
//!
//! CPE produces, per round, a static estimate `p_{c,i}` of each worker's current
//! target-domain accuracy. LGE turns that sequence of static estimates — plus the
//! worker's prior-domain history — into a *dynamic* estimate that accounts for how
//! much the worker will have learned by the time the working tasks are assigned:
//!
//! 1. fit the worker's learning parameter `alpha_i` by the two-part least-squares
//!    objective of Eq. 11 (prior-domain anchors + CPE estimates across rounds);
//! 2. predict the accuracy after the cumulative training of the current round,
//!    `p_hat_{c,i,T} = g(alpha_i, beta_T, K_c)` (Eq. 10).
//!
//! Workers that improve quickly get a higher dynamic estimate than their static one,
//! which is exactly what lets the elimination keep fast learners that a static
//! method would discard.
//!
//! Every fit — [`LearningGainEstimator::estimate`] and `LgeStage` — fills one
//! worker's Eq. 11 [`LearningTerm`] table through the same builders and fits it
//! with [`calibrate_terms`]. Work is done once at the widest scope it allows:
//! the difficulties `beta_T` and `beta_d` once per estimator, a worker's
//! prior-domain anchor terms (with their `ln(n_{i,d} + 1)`) once per worker —
//! the stage keeps them across rounds — and the stage's `ln(K_j + 1)` table
//! once per round.

use crate::SelectionError;
use c4u_crowd_sim::HistoricalProfile;
use c4u_irt::{calibrate_terms, log_tasks, LearningGainModel, LearningTerm, RaschItem};

/// Configuration of the LGE step.
#[derive(Debug, Clone, PartialEq)]
pub struct LgeConfig {
    /// Initial (untrained) accuracy assumed on the target domain (`a_T`), which fixes
    /// the target difficulty `beta_T = ln(1/a_T - 1)`; paper default 0.5.
    pub initial_target_accuracy: f64,
    /// Average annotation accuracy per prior domain (`a_d`), which fixes the prior
    /// difficulties `beta_d = ln(1/a_d - 1)`. One entry per prior domain.
    pub prior_domain_accuracies: Vec<f64>,
}

impl LgeConfig {
    /// Creates a configuration; accuracies must lie strictly inside `(0, 1)`.
    pub fn new(
        initial_target_accuracy: f64,
        prior_domain_accuracies: Vec<f64>,
    ) -> Result<Self, SelectionError> {
        if !(0.0 < initial_target_accuracy && initial_target_accuracy < 1.0) {
            return Err(SelectionError::InvalidConfig {
                what: "initial target accuracy must lie in (0, 1)",
                value: initial_target_accuracy,
            });
        }
        for &a in &prior_domain_accuracies {
            if !(0.0 < a && a < 1.0) {
                return Err(SelectionError::InvalidConfig {
                    what: "prior-domain average accuracies must lie in (0, 1)",
                    value: a,
                });
            }
        }
        Ok(Self {
            initial_target_accuracy,
            prior_domain_accuracies,
        })
    }

    /// Target-domain difficulty `beta_T = ln(1/a_T - 1)`.
    pub fn target_difficulty(&self) -> f64 {
        RaschItem::from_baseline_accuracy(self.initial_target_accuracy)
            .map(|item| item.difficulty())
            .unwrap_or(0.0)
    }

    /// Difficulty of prior domain `d`; falls back to the target difficulty when the
    /// domain average is unknown.
    pub fn prior_difficulty(&self, d: usize) -> f64 {
        self.prior_domain_accuracies
            .get(d)
            .and_then(|&a| RaschItem::from_baseline_accuracy(a).ok())
            .map(|item| item.difficulty())
            .unwrap_or_else(|| self.target_difficulty())
    }
}

/// The per-worker inputs of one LGE evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct LgeWorkerInput {
    /// Historical profile of the worker (accuracy + task counts per prior domain).
    pub profile_accuracies: Vec<Option<f64>>,
    /// Historical task counts per prior domain (`n_{i,d}`).
    pub profile_task_counts: Vec<usize>,
    /// CPE estimates `p_{1,i}, ..., p_{c,i}` across the rounds run so far.
    pub cpe_estimates: Vec<f64>,
    /// Cumulative learning tasks `K_0, K_1, ..., K_{c-1}` the worker had been trained
    /// with *before* each of those estimates was produced.
    pub cumulative_tasks_before: Vec<f64>,
    /// Cumulative learning tasks `K_c` after the current round (the horizon the
    /// dynamic prediction is evaluated at).
    pub cumulative_tasks_now: f64,
}

impl LgeWorkerInput {
    /// Builds the input from a profile plus the estimate history.
    pub fn from_profile(
        profile: &HistoricalProfile,
        cpe_estimates: Vec<f64>,
        cumulative_tasks_before: Vec<f64>,
        cumulative_tasks_now: f64,
    ) -> Self {
        Self {
            profile_accuracies: (0..profile.num_domains())
                .map(|d| profile.accuracy(d))
                .collect(),
            profile_task_counts: (0..profile.num_domains())
                .map(|d| profile.task_count(d))
                .collect(),
            cpe_estimates,
            cumulative_tasks_before,
            cumulative_tasks_now,
        }
    }
}

/// Result of one LGE evaluation for one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LgeEstimate {
    /// Fitted learning parameter `alpha_i`.
    pub alpha: f64,
    /// Dynamic accuracy estimate `p_hat_{c,i,T} = g(alpha_i, beta_T, K_c)`.
    pub predicted_accuracy: f64,
    /// Residual of the Eq. 11 least-squares fit (diagnostic).
    pub residual: f64,
}

/// The Learning Gain Estimator.
#[derive(Debug, Clone)]
pub struct LearningGainEstimator {
    config: LgeConfig,
    /// `beta_T`, fixed by the configuration.
    target_difficulty: f64,
    /// `beta_d` per configured prior domain.
    prior_difficulties: Vec<f64>,
}

impl LearningGainEstimator {
    /// Creates an estimator.
    pub fn new(config: LgeConfig) -> Self {
        Self {
            target_difficulty: config.target_difficulty(),
            prior_difficulties: (0..config.prior_domain_accuracies.len())
                .map(|d| config.prior_difficulty(d))
                .collect(),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LgeConfig {
        &self.config
    }

    /// Runs the Eq. 11 calibration and the Eq. 10 prediction for one worker.
    pub fn estimate(&self, input: &LgeWorkerInput) -> Result<LgeEstimate, SelectionError> {
        if input.cpe_estimates.len() != input.cumulative_tasks_before.len() {
            return Err(SelectionError::InvalidConfig {
                what: "cpe estimates and cumulative task counts must align",
                value: input.cpe_estimates.len() as f64,
            });
        }
        let anchors = input
            .profile_accuracies
            .iter()
            .enumerate()
            .map(|(d, &a)| (a, input.profile_task_counts.get(d).copied().unwrap_or(0)));
        let stages = input
            .cumulative_tasks_before
            .iter()
            .zip(&input.cpe_estimates)
            .map(|(&k, &p)| (log_tasks(k), p));
        let mut terms = self.anchor_terms(anchors).collect();
        self.fit(&mut terms, stages, input.cumulative_tasks_now)
    }

    /// A worker's prior-domain anchor terms: one per observed prior domain
    /// (`anchors` yields `(h_{i,d}, n_{i,d})` in domain order), at `beta_d`
    /// and `max(n_{i,d}, 1)` tasks.
    pub(crate) fn anchor_terms<'a>(
        &'a self,
        anchors: impl IntoIterator<Item = (Option<f64>, usize)> + 'a,
    ) -> impl Iterator<Item = LearningTerm> + 'a {
        anchors
            .into_iter()
            .enumerate()
            .filter_map(move |(d, (accuracy, tasks))| {
                let difficulty = self
                    .prior_difficulties
                    .get(d)
                    .copied()
                    .unwrap_or(self.target_difficulty);
                accuracy
                    .map(|a| LearningTerm::new(tasks.max(1) as f64, difficulty, a.clamp(0.0, 1.0)))
            })
    }

    /// The one Eq. 10–11 fit path: `terms` holds a worker's
    /// [`anchor_terms`](Self::anchor_terms); the fit appends one
    /// target-domain term per `stages` entry `(ln(K_{j-1} + 1), p_{j,i})`,
    /// fits `alpha` on the table and predicts the accuracy after
    /// `cumulative_tasks_now` tasks.
    ///
    /// `terms` is a caller-owned buffer, so a scoring pass reuses one
    /// allocation across its workers.
    pub(crate) fn fit(
        &self,
        terms: &mut Vec<LearningTerm>,
        stages: impl IntoIterator<Item = (f64, f64)>,
        cumulative_tasks_now: f64,
    ) -> Result<LgeEstimate, SelectionError> {
        terms.extend(stages.into_iter().map(|(log_tasks, p)| {
            LearningTerm::with_log_tasks(log_tasks, self.target_difficulty, p.clamp(0.0, 1.0))
        }));
        let fitted = calibrate_terms(terms)?;
        let model = LearningGainModel::new(fitted.alpha, self.target_difficulty)?;
        Ok(LgeEstimate {
            alpha: fitted.alpha,
            predicted_accuracy: model.accuracy(cumulative_tasks_now).clamp(0.0, 1.0),
            residual: fitted.residual,
        })
    }
}

/// A profile's prior-domain anchors in the `(h_{i,d}, n_{i,d})` form
/// [`LearningGainEstimator::anchor_terms`] takes.
pub(crate) fn profile_anchors(
    profile: &HistoricalProfile,
) -> impl Iterator<Item = (Option<f64>, usize)> + '_ {
    (0..profile.num_domains()).map(|d| (profile.accuracy(d), profile.task_count(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LgeConfig {
        LgeConfig::new(0.5, vec![0.7, 0.88, 0.58]).unwrap()
    }

    fn input(estimates: Vec<f64>, before: Vec<f64>, now: f64) -> LgeWorkerInput {
        LgeWorkerInput {
            profile_accuracies: vec![Some(0.7), Some(0.9), Some(0.6)],
            profile_task_counts: vec![10, 10, 10],
            cpe_estimates: estimates,
            cumulative_tasks_before: before,
            cumulative_tasks_now: now,
        }
    }

    #[test]
    fn config_validation_and_difficulties() {
        assert!(LgeConfig::new(0.0, vec![]).is_err());
        assert!(LgeConfig::new(1.0, vec![]).is_err());
        assert!(LgeConfig::new(0.5, vec![1.5]).is_err());
        let c = config();
        // a_T = 0.5 -> beta_T = 0.
        assert!(c.target_difficulty().abs() < 1e-9);
        // beta_d = ln(1/a_d - 1).
        assert!((c.prior_difficulty(0) - (1.0 / 0.7 - 1.0_f64).ln()).abs() < 1e-9);
        // Unknown domain falls back to the target difficulty.
        assert!((c.prior_difficulty(9) - c.target_difficulty()).abs() < 1e-12);
    }

    #[test]
    fn improving_worker_gets_optimistic_dynamic_estimate() {
        let est = LearningGainEstimator::new(config());
        // CPE saw the worker at 0.55 before training and 0.75 after 10 tasks; the
        // dynamic estimate at K = 30 should extrapolate above the last static value.
        let improving = est
            .estimate(&input(vec![0.55, 0.75], vec![0.0, 10.0], 30.0))
            .unwrap();
        assert!(improving.alpha > 0.0);
        // The prior-domain anchors damp the extrapolation (they are part of the
        // Eq. 11 objective), so the dynamic estimate does not chase the last CPE
        // value all the way — but it must clearly exceed the untrained 0.5 baseline.
        assert!(
            improving.predicted_accuracy > 0.6,
            "dynamic estimate {} should extrapolate the gain",
            improving.predicted_accuracy
        );

        // A stagnant worker gets a flat prediction.
        let flat = est
            .estimate(&input(vec![0.55, 0.56], vec![0.0, 10.0], 30.0))
            .unwrap();
        assert!(improving.predicted_accuracy > flat.predicted_accuracy);
    }

    #[test]
    fn declining_worker_is_not_extrapolated_upward() {
        let est = LearningGainEstimator::new(config());
        let declining = est
            .estimate(&LgeWorkerInput {
                profile_accuracies: vec![Some(0.4), Some(0.5), Some(0.3)],
                profile_task_counts: vec![10, 10, 10],
                cpe_estimates: vec![0.5, 0.4],
                cumulative_tasks_before: vec![0.0, 10.0],
                cumulative_tasks_now: 30.0,
            })
            .unwrap();
        assert!(declining.predicted_accuracy < 0.55);
    }

    #[test]
    fn missing_domains_are_skipped() {
        let est = LearningGainEstimator::new(config());
        let result = est
            .estimate(&LgeWorkerInput {
                profile_accuracies: vec![Some(0.8), None, None],
                profile_task_counts: vec![10, 0, 0],
                cpe_estimates: vec![0.6],
                cumulative_tasks_before: vec![0.0],
                cumulative_tasks_now: 10.0,
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&result.predicted_accuracy));
        assert!(result.alpha.is_finite());
    }

    #[test]
    fn misaligned_histories_are_rejected() {
        let est = LearningGainEstimator::new(config());
        assert!(est
            .estimate(&input(vec![0.5, 0.6], vec![0.0], 10.0))
            .is_err());
    }

    #[test]
    fn prediction_responds_to_training_horizon() {
        let est = LearningGainEstimator::new(config());
        let short = est
            .estimate(&input(vec![0.55, 0.7], vec![0.0, 10.0], 20.0))
            .unwrap();
        let long = est
            .estimate(&input(vec![0.55, 0.7], vec![0.0, 10.0], 60.0))
            .unwrap();
        // For an improving worker, a longer training horizon predicts more accuracy.
        assert!(long.predicted_accuracy >= short.predicted_accuracy);
    }

    #[test]
    fn strong_profile_alone_supports_estimation() {
        // Round 1: no CPE history yet, only the prior anchors — the estimator must
        // still produce a usable value (this is Algorithm 2 lines 5-9).
        let est = LearningGainEstimator::new(config());
        let result = est
            .estimate(&LgeWorkerInput {
                profile_accuracies: vec![Some(0.9), Some(0.95), Some(0.85)],
                profile_task_counts: vec![10, 10, 10],
                cpe_estimates: vec![],
                cumulative_tasks_before: vec![],
                cumulative_tasks_now: 10.0,
            })
            .unwrap();
        assert!(result.alpha > 0.0);
        assert!(result.predicted_accuracy > 0.5);
    }

    #[test]
    fn from_profile_copies_the_record() {
        let profile = HistoricalProfile::new(vec![Some(0.8), None], vec![12, 0]).unwrap();
        let i = LgeWorkerInput::from_profile(&profile, vec![0.6], vec![0.0], 10.0);
        assert_eq!(i.profile_accuracies, vec![Some(0.8), None]);
        assert_eq!(i.profile_task_counts, vec![12, 0]);
        assert_eq!((i.cpe_estimates, i.cumulative_tasks_now), (vec![0.6], 10.0));
        assert_eq!(LearningGainEstimator::new(config()).config(), &config());
    }

    #[test]
    fn a_worker_without_any_record_is_an_error() {
        let est = LearningGainEstimator::new(config());
        let blank = LgeWorkerInput {
            profile_accuracies: vec![None, None, None],
            profile_task_counts: vec![0, 0, 0],
            cpe_estimates: vec![],
            cumulative_tasks_before: vec![],
            cumulative_tasks_now: 10.0,
        };
        assert!(est.estimate(&blank).is_err());
    }

    #[test]
    fn out_of_range_stage_estimates_are_clamped() {
        let est = LearningGainEstimator::new(config());
        let over = est.estimate(&input(vec![0.5, 1.3], vec![0.0, 10.0], 30.0));
        let at_one = est.estimate(&input(vec![0.5, 1.0], vec![0.0, 10.0], 30.0));
        assert_eq!(over.unwrap(), at_one.unwrap());
        let under = est.estimate(&input(vec![-0.2], vec![10.0], 30.0));
        assert_eq!(
            under.unwrap(),
            est.estimate(&input(vec![0.0], vec![10.0], 30.0)).unwrap()
        );
    }
}
