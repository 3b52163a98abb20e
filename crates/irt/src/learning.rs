//! The modified learning-gain IRT model of the paper (Eq. 10).
//!
//! The proficiency of worker `i` after having been trained with `K` cumulative
//! learning tasks on a domain is modelled as `theta_i = alpha_i * ln(K + 1)`, so the
//! probability of a correct answer on a task of difficulty `beta_d` is
//!
//! ```text
//! g(alpha_i, beta_d, K) = 1 / (1 + exp(-(alpha_i * ln(K + 1) - beta_d)))
//! ```
//!
//! `alpha_i` is the worker's intrinsic learning parameter: large positive values mean
//! the worker improves quickly as ground-truth answers are revealed; values near zero
//! mean training barely helps; negative values model workers who perform below the
//! domain baseline. The model also drives the synthetic-worker simulator (Sec. V-A),
//! which updates each worker's true target-domain accuracy after every batch with the
//! same `g`.

use crate::IrtError;
use c4u_stats::{logit, sigmoid};

/// The learning-gain model `g(alpha, beta, K)` for one worker on one domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningGainModel {
    alpha: f64,
    difficulty: f64,
}

impl LearningGainModel {
    /// Creates a model from a learning parameter `alpha` and difficulty `beta`.
    pub fn new(alpha: f64, difficulty: f64) -> Result<Self, IrtError> {
        if !alpha.is_finite() {
            return Err(IrtError::InvalidParameter {
                what: "learning parameter alpha must be finite",
                value: alpha,
            });
        }
        if !difficulty.is_finite() {
            return Err(IrtError::InvalidParameter {
                what: "difficulty beta must be finite",
                value: difficulty,
            });
        }
        Ok(Self { alpha, difficulty })
    }

    /// The difficulty parameter `beta`.
    pub fn difficulty(&self) -> f64 {
        self.difficulty
    }

    /// Effective proficiency after `cumulative_tasks` learning tasks:
    /// `theta = alpha * ln(K + 1)`.
    pub fn proficiency(&self, cumulative_tasks: f64) -> f64 {
        self.alpha * log_tasks(cumulative_tasks)
    }

    /// Predicted accuracy after `cumulative_tasks` learning tasks (Eq. 10).
    pub fn accuracy(&self, cumulative_tasks: f64) -> f64 {
        sigmoid(self.proficiency(cumulative_tasks) - self.difficulty)
    }

    /// Predicted accuracies along a whole training trajectory (one entry per
    /// requested cumulative task count).
    pub fn trajectory(&self, cumulative_tasks: &[f64]) -> Vec<f64> {
        cumulative_tasks.iter().map(|&k| self.accuracy(k)).collect()
    }

    /// Solves for the `alpha` that makes the model pass exactly through one observed
    /// point `(cumulative_tasks, observed_accuracy)` for a given difficulty:
    /// `alpha = (beta + logit(acc)) / ln(K + 1)`.
    ///
    /// This is how the synthetic-dataset generator of Sec. V-A recovers each
    /// worker's learning parameter from the first-batch accuracy. `cumulative_tasks`
    /// must be strictly positive (with `K = 0` the model value is independent of
    /// `alpha`).
    pub fn solve_alpha(
        observed_accuracy: f64,
        difficulty: f64,
        cumulative_tasks: f64,
    ) -> Result<f64, IrtError> {
        if !(0.0..=1.0).contains(&observed_accuracy) || observed_accuracy.is_nan() {
            return Err(IrtError::InvalidParameter {
                what: "observed accuracy must lie in [0, 1]",
                value: observed_accuracy,
            });
        }
        if cumulative_tasks.is_nan() || cumulative_tasks <= 0.0 {
            return Err(IrtError::InvalidParameter {
                what: "cumulative task count must be > 0 to identify alpha",
                value: cumulative_tasks,
            });
        }
        if !difficulty.is_finite() {
            return Err(IrtError::InvalidParameter {
                what: "difficulty must be finite",
                value: difficulty,
            });
        }
        Ok((difficulty + logit(observed_accuracy)) / (cumulative_tasks + 1.0).ln())
    }
}

/// The proficiency scale of Eq. 10: `ln(K + 1)`, with negative counts clamped
/// to `K = 0`. A `NaN` count stays `NaN`, so a fit over it fails its
/// finiteness check instead of passing for an untrained term.
pub fn log_tasks(cumulative_tasks: f64) -> f64 {
    let k = if cumulative_tasks < 0.0 {
        0.0
    } else {
        cumulative_tasks
    };
    (k + 1.0).ln()
}

/// Cumulative number of learning tasks assigned to each *remaining* worker by the end
/// of round `j` under the median-elimination schedule of the paper:
/// `K_j = (2^j - 1) * t / |W|`, where `t` is the per-round budget and `|W|` the
/// initial pool size (Sec. IV-C2).
///
/// Round indices are 1-based; `K_0 = 0` by definition.
pub fn cumulative_tasks_after_round(round: usize, per_round_budget: f64, pool_size: usize) -> f64 {
    if round == 0 || pool_size == 0 {
        return 0.0;
    }
    let doubling = (2.0_f64).powi(round as i32) - 1.0;
    doubling * per_round_budget / pool_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(LearningGainModel::new(f64::NAN, 0.0).is_err());
        assert!(LearningGainModel::new(0.5, f64::INFINITY).is_err());
        assert!(LearningGainModel::new(0.5, 0.0).is_ok());
    }

    #[test]
    fn zero_training_gives_baseline_accuracy() {
        // With K = 0, theta = alpha * ln(1) = 0 so accuracy = sigmoid(-beta),
        // independent of alpha — and equal to 0.5 when beta = 0 (the a_T = 0.5
        // initialisation of the paper).
        for &alpha in &[-1.0, 0.0, 0.7, 3.0] {
            let m = LearningGainModel::new(alpha, 0.0).unwrap();
            assert!((m.accuracy(0.0) - 0.5).abs() < 1e-12);
        }
        let m = LearningGainModel::new(1.0, 1.0).unwrap();
        assert!((m.accuracy(0.0) - sigmoid(-1.0)).abs() < 1e-12);
    }

    #[test]
    fn positive_alpha_means_monotone_improvement() {
        let m = LearningGainModel::new(0.8, 0.3).unwrap();
        let traj = m.trajectory(&[0.0, 5.0, 10.0, 20.0, 40.0, 80.0]);
        for pair in traj.windows(2) {
            assert!(pair[1] > pair[0], "trajectory must increase: {traj:?}");
        }
        // Gains are positive but shrink (diminishing returns of ln).
        let g1 = m.accuracy(10.0) - m.accuracy(0.0);
        let g2 = m.accuracy(20.0) - m.accuracy(10.0);
        assert!(g1 > 0.0 && g2 > 0.0 && g1 > g2);
    }

    #[test]
    fn negative_alpha_means_decline() {
        let m = LearningGainModel::new(-0.5, 0.0).unwrap();
        assert!(m.accuracy(20.0) < m.accuracy(0.0));
    }

    #[test]
    fn accuracy_stays_in_unit_interval() {
        let m = LearningGainModel::new(5.0, -3.0).unwrap();
        for &k in &[0.0, 1.0, 100.0, 1e6] {
            let a = m.accuracy(k);
            assert!((0.0..=1.0).contains(&a));
        }
        // Negative cumulative counts are clamped to zero rather than panicking.
        assert!((m.accuracy(-5.0) - m.accuracy(0.0)).abs() < 1e-12);
    }

    #[test]
    fn solve_alpha_roundtrips_through_the_model() {
        let beta = 0.4;
        let k = 12.0;
        for &acc in &[0.55, 0.7, 0.9] {
            let alpha = LearningGainModel::solve_alpha(acc, beta, k).unwrap();
            let m = LearningGainModel::new(alpha, beta).unwrap();
            assert!((m.accuracy(k) - acc).abs() < 1e-9, "acc {acc}");
        }
    }

    #[test]
    fn solve_alpha_validation() {
        assert!(LearningGainModel::solve_alpha(1.5, 0.0, 5.0).is_err());
        assert!(LearningGainModel::solve_alpha(0.7, 0.0, 0.0).is_err());
        assert!(LearningGainModel::solve_alpha(0.7, f64::NAN, 5.0).is_err());
        // Perfect first-batch accuracy still yields a finite (large) alpha.
        assert!(LearningGainModel::solve_alpha(1.0, 0.0, 5.0)
            .unwrap()
            .is_finite());
    }

    #[test]
    fn cumulative_schedule_matches_paper_formula() {
        // K_j = (2^j - 1) * t / |W|
        let t = 180.0;
        let w = 27;
        assert_eq!(cumulative_tasks_after_round(0, t, w), 0.0);
        assert!((cumulative_tasks_after_round(1, t, w) - 180.0 / 27.0).abs() < 1e-12);
        assert!((cumulative_tasks_after_round(2, t, w) - 3.0 * 180.0 / 27.0).abs() < 1e-12);
        assert!((cumulative_tasks_after_round(3, t, w) - 7.0 * 180.0 / 27.0).abs() < 1e-12);
        assert_eq!(cumulative_tasks_after_round(2, t, 0), 0.0);
    }

    #[test]
    fn larger_alpha_learns_faster() {
        let slow = LearningGainModel::new(0.2, 0.0).unwrap();
        let fast = LearningGainModel::new(1.0, 0.0).unwrap();
        assert!(fast.accuracy(30.0) > slow.accuracy(30.0));
        assert!(
            fast.accuracy(30.0) - fast.accuracy(0.0) > slow.accuracy(30.0) - slow.accuracy(0.0)
        );
    }

    #[test]
    fn log_tasks_clamps_negative_counts() {
        assert_eq!(log_tasks(0.0), 0.0);
        assert_eq!(log_tasks(-3.0), 0.0);
        assert!(log_tasks(f64::NAN).is_nan());
        assert!((log_tasks(std::f64::consts::E - 1.0) - 1.0).abs() < 1e-15);
        let m = LearningGainModel::new(0.6, -0.2).unwrap();
        assert_eq!((m.alpha, m.difficulty()), (0.6, -0.2));
        assert_eq!(m.proficiency(9.0), 0.6 * log_tasks(9.0));
    }

    #[test]
    fn negating_alpha_and_beta_mirrors_the_curve() {
        let m = LearningGainModel::new(0.9, 0.4).unwrap();
        let mirror = LearningGainModel::new(-0.9, -0.4).unwrap();
        for k in [0.0, 3.0, 50.0] {
            assert!((m.accuracy(k) + mirror.accuracy(k) - 1.0).abs() < 1e-15);
        }
        assert!(m.trajectory(&[]).is_empty());
    }
}
