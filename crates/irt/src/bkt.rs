//! Bayesian Knowledge Tracing (BKT) — an alternative learner model.
//!
//! The paper surveys three families of knowledge-tracing models (Sec. II-C) and
//! adopts the Rasch IRT family because it needs no explicit skill/question mapping.
//! This module implements the classic Corbett & Anderson BKT model as a comparison
//! extension: the selection layer's `BktStage` (`c4u_selection::BktStage`) drives a
//! whole elimination pipeline off BKT posteriors instead of the modified IRT curve,
//! quantifying how much the choice of learner model matters.
//!
//! The model has four parameters:
//!
//! * `p_init`  — probability the skill is already mastered before any practice;
//! * `p_learn` — probability of transitioning to mastery after one opportunity;
//! * `p_slip`  — probability of answering incorrectly despite mastery;
//! * `p_guess` — probability of answering correctly without mastery.
//!
//! After each observed answer the mastery posterior is updated by Bayes' rule and
//! then advanced through the learning transition.

use crate::IrtError;

/// Parameters of a Bayesian Knowledge Tracing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BktParams {
    /// Prior probability of initial mastery.
    pub p_init: f64,
    /// Probability of learning the skill at each opportunity.
    pub p_learn: f64,
    /// Probability of slipping (wrong answer despite mastery).
    pub p_slip: f64,
    /// Probability of guessing (correct answer without mastery).
    pub p_guess: f64,
}

impl BktParams {
    /// Validates that every parameter is a probability and that the model is
    /// identifiable (`p_slip + p_guess < 1`, the usual non-degeneracy condition).
    pub fn validate(&self) -> Result<(), IrtError> {
        for (name, v) in [
            ("p_init", self.p_init),
            ("p_learn", self.p_learn),
            ("p_slip", self.p_slip),
            ("p_guess", self.p_guess),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(IrtError::InvalidParameter {
                    what: match name {
                        "p_init" => "p_init must lie in [0, 1]",
                        "p_learn" => "p_learn must lie in [0, 1]",
                        "p_slip" => "p_slip must lie in [0, 1]",
                        _ => "p_guess must lie in [0, 1]",
                    },
                    value: v,
                });
            }
        }
        if self.p_slip + self.p_guess >= 1.0 {
            return Err(IrtError::InvalidParameter {
                what: "p_slip + p_guess must be < 1 for an identifiable BKT model",
                value: self.p_slip + self.p_guess,
            });
        }
        Ok(())
    }

    /// Inverts the emission model: the mastery probability at which the expected
    /// accuracy `m (1 - p_slip) + (1 - m) p_guess` equals `accuracy`, clamped to
    /// `[0, 1]`.
    ///
    /// Accuracies below `p_guess` (resp. above `1 - p_slip`) are unreachable under
    /// the emission parameters and clamp to 0 (resp. 1). The selection layer's
    /// `BktStage` uses this to seed each worker's prior mastery from the mean
    /// historical accuracy of the worker's observed prior domains.
    pub fn mastery_for_accuracy(&self, accuracy: f64) -> f64 {
        let span = 1.0 - self.p_slip - self.p_guess;
        if span <= 0.0 || accuracy.is_nan() {
            return self.p_init;
        }
        ((accuracy - self.p_guess) / span).clamp(0.0, 1.0)
    }
}

impl Default for BktParams {
    fn default() -> Self {
        // Conventional mid-range defaults from the knowledge-tracing literature.
        Self {
            p_init: 0.3,
            p_learn: 0.2,
            p_slip: 0.1,
            p_guess: 0.25,
        }
    }
}

/// A Bayesian Knowledge Tracing tracker for a single worker and skill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BktModel {
    params: BktParams,
    mastery: f64,
}

impl BktModel {
    /// Creates a tracker with the given parameters.
    pub fn new(params: BktParams) -> Result<Self, IrtError> {
        params.validate()?;
        Ok(Self {
            params,
            mastery: params.p_init,
        })
    }

    /// Current posterior probability of mastery.
    pub fn mastery(&self) -> f64 {
        self.mastery
    }

    /// Parameters of the model.
    pub fn params(&self) -> &BktParams {
        &self.params
    }

    /// Probability that the *next* answer is correct under the current posterior.
    pub fn predicted_accuracy(&self) -> f64 {
        self.mastery * (1.0 - self.params.p_slip) + (1.0 - self.mastery) * self.params.p_guess
    }

    /// Updates the mastery posterior with one observed answer and then applies the
    /// learning transition. Returns the new mastery.
    pub fn observe(&mut self, correct: bool) -> f64 {
        let p = self.mastery;
        let slip = self.params.p_slip;
        let guess = self.params.p_guess;
        // Bayes update conditioned on the observation.
        let posterior = if correct {
            let num = p * (1.0 - slip);
            let den = num + (1.0 - p) * guess;
            if den > 0.0 {
                num / den
            } else {
                p
            }
        } else {
            let num = p * slip;
            let den = num + (1.0 - p) * (1.0 - guess);
            if den > 0.0 {
                num / den
            } else {
                p
            }
        };
        // Learning transition.
        self.mastery = posterior + (1.0 - posterior) * self.params.p_learn;
        self.mastery = self.mastery.clamp(0.0, 1.0);
        self.mastery
    }

    /// Observes a whole batch of answers and returns the predicted accuracy after it.
    pub fn observe_batch(&mut self, answers: &[bool]) -> f64 {
        for &a in answers {
            self.observe(a);
        }
        self.predicted_accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(BktParams::default().validate().is_ok());
        assert!(BktParams {
            p_init: 1.2,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BktParams {
            p_learn: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BktParams {
            p_slip: 0.6,
            p_guess: 0.6,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BktModel::new(BktParams {
            p_guess: f64::NAN,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn correct_answers_increase_mastery_and_accuracy() {
        let mut m = BktModel::new(BktParams::default()).unwrap();
        let before = m.predicted_accuracy();
        for _ in 0..10 {
            m.observe(true);
        }
        assert!(m.mastery() > BktParams::default().p_init);
        assert!(m.predicted_accuracy() > before);
        assert!(m.mastery() <= 1.0);
    }

    #[test]
    fn wrong_answers_decrease_mastery_relative_to_correct() {
        let mut right = BktModel::new(BktParams::default()).unwrap();
        let mut wrong = BktModel::new(BktParams::default()).unwrap();
        right.observe(true);
        wrong.observe(false);
        assert!(right.mastery() > wrong.mastery());
    }

    #[test]
    fn learning_transition_raises_mastery_even_after_mistakes() {
        // With a large learn rate, mastery grows over time even with mixed answers.
        let mut m = BktModel::new(BktParams {
            p_learn: 0.5,
            ..Default::default()
        })
        .unwrap();
        let start = m.mastery();
        m.observe_batch(&[true, false, true, false, true]);
        assert!(m.mastery() > start);
    }

    #[test]
    fn predicted_accuracy_is_bounded_by_slip_and_guess() {
        let params = BktParams::default();
        let mut m = BktModel::new(params).unwrap();
        for _ in 0..100 {
            m.observe(true);
        }
        // Even at full mastery accuracy cannot exceed 1 - p_slip.
        assert!(m.predicted_accuracy() <= 1.0 - params.p_slip + 1e-12);
        let mut worst = BktModel::new(params).unwrap();
        for _ in 0..100 {
            worst.observe(false);
        }
        // Even with no mastery accuracy cannot drop below p_guess.
        assert!(worst.predicted_accuracy() >= params.p_guess - 1e-12);
    }

    #[test]
    fn mastery_for_accuracy_inverts_the_emission_model() {
        let params = BktParams::default();
        for &acc in &[0.3, 0.5, 0.75, 0.89] {
            let m = params.mastery_for_accuracy(acc);
            let forward = m * (1.0 - params.p_slip) + (1.0 - m) * params.p_guess;
            assert!((forward - acc).abs() < 1e-12, "acc {acc}");
        }
        // Unreachable accuracies clamp to the mastery bounds.
        assert_eq!(params.mastery_for_accuracy(0.0), 0.0);
        assert_eq!(params.mastery_for_accuracy(1.0), 1.0);
        // A degenerate emission span falls back to the prior.
        let degenerate = BktParams {
            p_slip: 0.5,
            p_guess: 0.5,
            ..Default::default()
        };
        assert_eq!(
            degenerate.mastery_for_accuracy(0.7),
            BktParams::default().p_init
        );
        assert_eq!(
            params.mastery_for_accuracy(f64::NAN),
            BktParams::default().p_init
        );
    }

    #[test]
    fn observe_batch_returns_final_prediction() {
        let mut a = BktModel::new(BktParams::default()).unwrap();
        let mut b = BktModel::new(BktParams::default()).unwrap();
        let value = a.observe_batch(&[true, true, false]);
        b.observe(true);
        b.observe(true);
        b.observe(false);
        assert!((value - b.predicted_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn model_starts_at_the_prior_and_keeps_its_params() {
        let params = BktParams {
            p_init: 0.6,
            ..Default::default()
        };
        let mut m = BktModel::new(params).unwrap();
        assert_eq!(m.mastery(), 0.6);
        assert_eq!(m.params(), &params);
        let expected = 0.6 * (1.0 - params.p_slip) + 0.4 * params.p_guess;
        assert!((m.predicted_accuracy() - expected).abs() < 1e-15);
        assert_eq!(m.observe_batch(&[]), m.predicted_accuracy());
        assert_eq!(m.mastery(), 0.6);
    }

    #[test]
    fn certain_mastery_is_absorbing() {
        let mut m = BktModel::new(BktParams {
            p_init: 1.0,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(m.observe(false), 1.0);
        assert_eq!(m.observe(true), 1.0);
        assert_eq!(m.predicted_accuracy(), 1.0 - BktParams::default().p_slip);
    }
}
