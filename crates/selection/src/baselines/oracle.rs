//! Ground-truth oracle ("GT" row of Table V).
//!
//! The oracle follows the same budgeted median-elimination training schedule as the
//! real strategies — so its selected workers are trained exactly as much as anyone
//! else's — but ranks workers by their *true* latent target-domain accuracy at every
//! step. It is the upper bound every budget-constrained strategy is compared against
//! in the paper's tables, and by construction no implementable strategy can beat it
//! other than by evaluation noise. When fewer than `k` workers survive the last
//! round, it ranks the set Algorithm 4 line 17 falls back to: the previous round's
//! entrants (the last round's when there was only one).

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
        let true_scores = |platform: &Platform, workers: &[WorkerId]| {
            workers
                .iter()
                .map(|&w| Ok(ScoredWorker::new(w, platform.true_accuracy(w)?)))
                .collect::<Result<Vec<_>, SelectionError>>()
        };
        let mut remaining = pool;
        // Entrants of the previous and of the last round.
        let mut previous: Vec<WorkerId> = Vec::new();
        let mut last: Vec<WorkerId> = Vec::new();

        for _round in 1..=plan.rounds {
            let tasks_per_worker = plan.tasks_per_worker(remaining.len());
            platform.assign_learning_batch(&remaining, tasks_per_worker)?;
            let survivors = median_eliminate(&true_scores(platform, &remaining)?);
            previous = std::mem::take(&mut last);
            last = std::mem::replace(&mut remaining, survivors);
        }

        let candidates = if remaining.len() >= k {
            &remaining
        } else if !previous.is_empty() {
            &previous
        } else {
            &last
        };
        let selected = top_k(&true_scores(platform, candidates)?, k);
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
    fn too_few_survivors_fall_back_to_the_previous_round() {
        // S-2 halves 50 -> 25 -> 13 -> 7 -> 4: four survivors for k = 5.
        let ds = generate(&DatasetConfig::s2()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = GroundTruthOracle::new().select(&mut platform, 5).unwrap();
        let mut unique = outcome.selected.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5);
        // The five rank highest by current true accuracy among the 13
        // entrants of the previous round (round 3), the set the other
        // strategies fall back to.
        let mut twin = Platform::from_dataset(&ds, 5).unwrap();
        let records = replay::halving(&mut twin, 5, |twin, record| {
            record
                .sheets
                .iter()
                .map(|s| ScoredWorker::new(s.worker, twin.true_accuracy(s.worker).unwrap()))
                .collect()
        });
        replay::assert_replayed(&platform, &twin);
        let sizes: Vec<usize> = records.iter().map(|r| r.sheets.len()).collect();
        assert_eq!(sizes, vec![50, 25, 13, 7]);
        let entrants: Vec<ScoredWorker> = records[2]
            .sheets
            .iter()
            .map(|s| ScoredWorker::new(s.worker, twin.true_accuracy(s.worker).unwrap()))
            .collect();
        assert_eq!(outcome.selected, top_k(&entrants, 5));
        for (&w, &s) in outcome.selected.iter().zip(outcome.scores.iter()) {
            assert_eq!(platform.true_accuracy(w).unwrap(), s);
        }
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
