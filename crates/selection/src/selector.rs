//! The [`WorkerSelector`] trait shared by the core algorithm and every baseline.
//!
//! A selector drives a [`Platform`]: it spends the training budget however it sees
//! fit (assigning golden questions, recording answers) and finally returns the `k`
//! workers it believes will annotate the working tasks best. Because every strategy
//! goes through the same trait and the same platform, the comparison in the
//! benchmark harness is budget-fair by construction.

use crate::SelectionError;
use c4u_crowd_sim::{Platform, WorkerId};

/// Outcome of one selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// The selected workers, best-ranked first.
    pub selected: Vec<WorkerId>,
    /// Number of training rounds the strategy ran.
    pub rounds: usize,
    /// Learning tasks actually assigned (total across workers).
    pub budget_spent: usize,
    /// The strategy's final score (predicted accuracy) per selected worker, aligned
    /// with `selected`; empty if the strategy does not produce scores.
    pub scores: Vec<f64>,
}

impl SelectionOutcome {
    /// Creates an outcome without per-worker scores.
    pub fn new(selected: Vec<WorkerId>, rounds: usize, budget_spent: usize) -> Self {
        Self {
            selected,
            rounds,
            budget_spent,
            scores: Vec::new(),
        }
    }

    /// Attaches per-worker scores (must align with the selected workers).
    pub fn with_scores(mut self, scores: Vec<f64>) -> Self {
        self.scores = scores;
        self
    }
}

/// A worker-selection strategy.
///
/// Strategies are `Send + Sync` so
/// [`evaluate_over_trials`](crate::evaluate_over_trials) can share one
/// strategy value across its trial threads; `select` takes `&self`, so any
/// per-run state must be created inside the call (the core selector clones its
/// stage-pipeline template per run for exactly this reason).
pub trait WorkerSelector: Send + Sync {
    /// Short human-readable name used in result tables ("Ours", "US", "ME", ...).
    fn name(&self) -> &str;

    /// Runs the strategy on a platform and returns the selected top-`k` workers.
    ///
    /// Implementations must respect the platform's budget (assignments beyond the
    /// budget are rejected by the platform itself) and must not consult the
    /// platform's oracle accessors (`true_accuracy*`) unless the strategy is
    /// explicitly an oracle baseline.
    fn select(&self, platform: &mut Platform, k: usize)
        -> Result<SelectionOutcome, SelectionError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_builders() {
        let o = SelectionOutcome::new(vec![3, 1, 2], 2, 500);
        assert_eq!(o.selected, vec![3, 1, 2]);
        assert_eq!(o.rounds, 2);
        assert_eq!(o.budget_spent, 500);
        assert!(o.scores.is_empty());
        let o = o.with_scores(vec![0.9, 0.8, 0.7]);
        assert_eq!(o.scores.len(), 3);
    }

    struct Dummy;
    impl WorkerSelector for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn select(
            &self,
            platform: &mut Platform,
            k: usize,
        ) -> Result<SelectionOutcome, SelectionError> {
            let ids: Vec<WorkerId> = platform.worker_ids().into_iter().take(k).collect();
            Ok(SelectionOutcome::new(ids, 0, 0))
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        use c4u_crowd_sim::{generate, DatasetConfig, Platform};
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 1).unwrap();
        let selector: Box<dyn WorkerSelector> = Box::new(Dummy);
        assert_eq!(selector.name(), "dummy");
        let outcome = selector.select(&mut platform, 7).unwrap();
        assert_eq!(outcome.selected.len(), 7);
    }

    #[test]
    fn with_scores_replaces_earlier_scores() {
        let o = SelectionOutcome::new(vec![4], 1, 10)
            .with_scores(vec![0.1])
            .with_scores(vec![0.7]);
        assert_eq!(o.scores, vec![0.7]);
        assert_eq!(
            o,
            SelectionOutcome::new(vec![4], 1, 10).with_scores(vec![0.7])
        );
    }
}
