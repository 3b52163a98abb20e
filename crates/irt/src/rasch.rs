//! The Rasch one-parameter logistic (1PL) IRT model.
//!
//! Rasch's model (Eq. 9 of the paper) gives the probability that a worker with
//! proficiency `theta` answers a question of difficulty `beta` correctly:
//!
//! ```text
//! p_d(theta) = 1 / (1 + exp(-(theta - beta_d)))
//! ```
//!
//! The paper replaces the static proficiency with a training-driven one
//! (`theta_i = alpha_i * ln(K_j + 1)`, see [`crate::LearningGainModel`]), but the
//! plain Rasch form is still used directly for difficulty initialisation and in the
//! BKT comparison extension, so it gets its own small type.

use crate::IrtError;
use c4u_stats::{logit, sigmoid};

/// A Rasch (1PL) item with a fixed difficulty parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaschItem {
    difficulty: f64,
}

impl RaschItem {
    /// Creates an item with difficulty `beta` (any finite value).
    pub fn new(difficulty: f64) -> Result<Self, IrtError> {
        if !difficulty.is_finite() {
            return Err(IrtError::InvalidParameter {
                what: "difficulty must be finite",
                value: difficulty,
            });
        }
        Ok(Self { difficulty })
    }

    /// Creates an item whose difficulty is chosen so that a proficiency-zero worker
    /// answers correctly with probability `accuracy`, i.e. `beta = ln(1/a - 1)`.
    ///
    /// This is exactly the initialisation of Sec. V-C of the paper
    /// (`beta_d = ln(1/a_d - 1)`, and `a_T = 0.5  =>  beta_T = 0`).
    pub fn from_baseline_accuracy(accuracy: f64) -> Result<Self, IrtError> {
        if !(0.0..=1.0).contains(&accuracy) || accuracy.is_nan() {
            return Err(IrtError::InvalidParameter {
                what: "baseline accuracy must lie in [0, 1]",
                value: accuracy,
            });
        }
        // logit clamps 0/1 so extreme accuracies stay finite.
        Ok(Self {
            difficulty: -logit(accuracy),
        })
    }

    /// The difficulty parameter `beta`.
    pub fn difficulty(&self) -> f64 {
        self.difficulty
    }

    /// Probability that a worker of proficiency `theta` answers correctly (Eq. 9).
    pub fn probability_correct(&self, theta: f64) -> f64 {
        sigmoid(theta - self.difficulty)
    }

    /// Log-likelihood of a sequence of graded responses (`true` = correct) from a
    /// worker with proficiency `theta`.
    pub fn log_likelihood(&self, theta: f64, responses: &[bool]) -> f64 {
        let p = self.probability_correct(theta).clamp(1e-12, 1.0 - 1e-12);
        responses
            .iter()
            .map(|&r| if r { p.ln() } else { (1.0 - p).ln() })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(RaschItem::new(f64::NAN).is_err());
        assert!(RaschItem::new(f64::INFINITY).is_err());
        assert!(RaschItem::new(-2.0).is_ok());
        assert!(RaschItem::from_baseline_accuracy(-0.1).is_err());
        assert!(RaschItem::from_baseline_accuracy(1.1).is_err());
        assert!(RaschItem::from_baseline_accuracy(f64::NAN).is_err());
    }

    #[test]
    fn difficulty_from_accuracy_matches_paper_formula() {
        // beta_d = ln(1/a_d - 1)
        for &a in &[0.3, 0.5, 0.58, 0.7, 0.88] {
            let item = RaschItem::from_baseline_accuracy(a).unwrap();
            let expected = (1.0 / a - 1.0_f64).ln();
            assert!(
                (item.difficulty() - expected).abs() < 1e-9,
                "a={a}: {} vs {expected}",
                item.difficulty()
            );
            assert!((item.probability_correct(0.0) - a).abs() < 1e-9);
        }
        // a_T = 0.5 => beta_T = 0.
        assert!(
            RaschItem::from_baseline_accuracy(0.5)
                .unwrap()
                .difficulty()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn probability_is_monotone_in_theta() {
        let item = RaschItem::new(0.5).unwrap();
        let mut prev = 0.0;
        for i in 0..20 {
            let theta = -5.0 + i as f64 * 0.5;
            let p = item.probability_correct(theta);
            assert!(p > prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        // theta == beta gives exactly 0.5.
        assert!((item.probability_correct(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_decreases_with_difficulty() {
        let easy = RaschItem::new(-1.0).unwrap();
        let hard = RaschItem::new(2.0).unwrap();
        assert!(easy.probability_correct(0.3) > hard.probability_correct(0.3));
    }

    #[test]
    fn log_likelihood_prefers_matching_proficiency() {
        let item = RaschItem::new(0.0).unwrap();
        // A strong response pattern should be more likely under a high theta.
        let responses = [true, true, true, true, false];
        assert!(item.log_likelihood(1.5, &responses) > item.log_likelihood(-1.5, &responses));
        // Empty responses give zero log-likelihood.
        assert_eq!(item.log_likelihood(0.3, &[]), 0.0);
    }

    #[test]
    fn extreme_baselines_stay_finite_and_ordered() {
        let never = RaschItem::from_baseline_accuracy(0.0).unwrap();
        let always = RaschItem::from_baseline_accuracy(1.0).unwrap();
        assert!(never.difficulty().is_finite() && always.difficulty().is_finite());
        assert!(never.difficulty() > 20.0 && always.difficulty() < -20.0);
        assert!(never.log_likelihood(0.0, &[true]).is_finite());
        assert!(always.probability_correct(0.0) > 1.0 - 1e-9);
    }

    #[test]
    fn log_likelihood_is_additive_over_responses() {
        let item = RaschItem::new(-0.3).unwrap();
        let both = item.log_likelihood(0.8, &[true, false, true]);
        let split = item.log_likelihood(0.8, &[true, true]) + item.log_likelihood(0.8, &[false]);
        assert!((both - split).abs() < 1e-15);
        let p: f64 = item.probability_correct(0.8);
        assert!((item.log_likelihood(0.8, &[false]) - (1.0 - p).ln()).abs() < 1e-15);
    }
}
