//! Ground-truth oracle ("GT" row of Table V).
//!
//! The oracle follows the same budgeted median-elimination training schedule as the
//! real strategies — so its selected workers are trained exactly as much as anyone
//! else's — but ranks workers by their *true* latent target-domain accuracy at every
//! step. It is the upper bound every budget-constrained strategy is compared against
//! in the paper's tables, and by construction no implementable strategy can beat it
//! other than by evaluation noise.

use crate::budget::BudgetPlan;
use crate::me::{median_eliminate, top_k, ScoredWorker};
use crate::selector::{SelectionOutcome, WorkerSelector};
use crate::SelectionError;
use c4u_crowd_sim::{Platform, WorkerId};

/// The ground-truth oracle baseline.
#[derive(Debug, Clone, Default)]
pub struct GroundTruthOracle;

impl GroundTruthOracle {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self
    }
}

impl WorkerSelector for GroundTruthOracle {
    fn name(&self) -> &str {
        "Ground Truth"
    }

    fn select(
        &self,
        platform: &mut Platform,
        k: usize,
    ) -> Result<SelectionOutcome, SelectionError> {
        let pool: Vec<WorkerId> = platform.worker_ids();
        if pool.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        if k == 0 || k > pool.len() {
            return Err(SelectionError::InvalidConfig {
                what: "k must lie in [1, pool_size]",
                value: k as f64,
            });
        }
        let plan = BudgetPlan::new(pool.len(), k, platform.budget_total())?;
        let mut remaining = pool;

        for _round in 1..=plan.rounds {
            let tasks_per_worker = plan.tasks_per_worker(remaining.len());
            platform.assign_learning_batch(&remaining, tasks_per_worker)?;
            let scored: Vec<ScoredWorker> = remaining
                .iter()
                .map(|&w| Ok(ScoredWorker::new(w, platform.true_accuracy(w)?)))
                .collect::<Result<_, SelectionError>>()?;
            remaining = median_eliminate(&scored);
        }

        let scored: Vec<ScoredWorker> = remaining
            .iter()
            .map(|&w| Ok(ScoredWorker::new(w, platform.true_accuracy(w)?)))
            .collect::<Result<_, SelectionError>>()?;
        let selected = top_k(&scored, k);
        let scores = selected
            .iter()
            .map(|&w| platform.true_accuracy(w).unwrap_or(0.0))
            .collect();
        Ok(
            SelectionOutcome::new(selected, plan.rounds, platform.budget_spent())
                .with_scores(scores),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::replay;
    use c4u_crowd_sim::{generate, DatasetConfig};

    #[test]
    fn oracle_selects_the_truly_best_trained_workers() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = GroundTruthOracle::new().select(&mut platform, 7).unwrap();
        assert_eq!(outcome.selected.len(), 7);
        // The oracle's selected mean true accuracy equals the top-7 of the final
        // true accuracies among the surviving workers; it must at least beat the
        // pool average comfortably.
        let truths = platform.true_accuracies();
        let selected_mean = c4u_stats::mean(
            &outcome
                .selected
                .iter()
                .map(|&w| truths[w])
                .collect::<Vec<_>>(),
        );
        assert!(selected_mean > c4u_stats::mean(&truths) + 0.05);
        assert!(outcome.budget_spent <= platform.budget_total());
    }

    #[test]
    fn oracle_scores_are_true_accuracies() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = GroundTruthOracle::new().select(&mut platform, 5).unwrap();
        for (&w, &s) in outcome.selected.iter().zip(outcome.scores.iter()) {
            assert!((platform.true_accuracy(w).unwrap() - s).abs() < 1e-12);
        }
    }

    #[test]
    fn validation_and_name() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        assert!(GroundTruthOracle::new().select(&mut platform, 0).is_err());
        assert_eq!(GroundTruthOracle::new().name(), "Ground Truth");
    }

    #[test]
    fn oracle_follows_the_planned_schedule() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 4).unwrap();
        let outcome = GroundTruthOracle::new().select(&mut platform, 5).unwrap();
        let plan = BudgetPlan::new(40, 5, 2400).unwrap();
        assert_eq!(outcome.rounds, plan.rounds);
        assert_eq!(outcome.budget_spent, plan.planned_spend());
        let mut twin = Platform::from_dataset(&ds, 4).unwrap();
        let records = replay::halving(&mut twin, 5, |twin, record| {
            record
                .sheets
                .iter()
                .map(|s| ScoredWorker::new(s.worker, twin.true_accuracy(s.worker).unwrap()))
                .collect()
        });
        replay::assert_replayed(&platform, &twin);
        let sizes: Vec<usize> = records.iter().map(|r| r.sheets.len()).collect();
        assert_eq!(sizes, vec![40, 20, 10]);
    }
}
