//! Plain Median Elimination (ME) baseline.
//!
//! The same budgeted elimination schedule as the full method — `n` rounds, the worst
//! half eliminated each round — but ranked purely by the observed accuracy on the
//! round's golden questions, with no cross-domain information and no learning-gain
//! modelling. This is the "ME" column of Table V and the backbone the paper's
//! ablation compares against.

use crate::budget::BudgetPlan;
use crate::me::{median_eliminate, top_k, ScoredWorker};
use crate::selector::{SelectionOutcome, WorkerSelector};
use crate::SelectionError;
use c4u_crowd_sim::{Platform, WorkerId};

/// The plain Median Elimination baseline.
#[derive(Debug, Clone, Default)]
pub struct MedianEliminationBaseline;

impl MedianEliminationBaseline {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl WorkerSelector for MedianEliminationBaseline {
    fn name(&self) -> &str {
        "ME"
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
        let mut last_scores: Vec<ScoredWorker> = Vec::new();
        let mut previous_scores: Vec<ScoredWorker> = Vec::new();

        for _round in 1..=plan.rounds {
            let tasks_per_worker = plan.tasks_per_worker(remaining.len());
            let record = platform.assign_learning_batch(&remaining, tasks_per_worker)?;
            let scored: Vec<ScoredWorker> = record
                .sheets
                .iter()
                .map(|s| ScoredWorker::new(s.worker, s.accuracy()))
                .collect();
            previous_scores = last_scores;
            last_scores = scored.clone();
            remaining = median_eliminate(&scored);
        }

        let surviving: Vec<ScoredWorker> = last_scores
            .iter()
            .filter(|s| remaining.contains(&s.worker))
            .copied()
            .collect();
        // The list the selection is ranked on also supplies its scores.
        let ranked = if remaining.len() >= k {
            &surviving
        } else if !previous_scores.is_empty() {
            &previous_scores
        } else {
            &last_scores
        };
        let selected = top_k(ranked, k);
        let scores = selected
            .iter()
            .map(|w| {
                ranked
                    .iter()
                    .find(|s| s.worker == *w)
                    .map_or(0.0, |s| s.score)
            })
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
    use c4u_crowd_sim::{generate, DatasetConfig, RoundRecord};

    /// Runs the baseline on `(dataset, seed)` for `k`, and returns its outcome
    /// with the records of its rounds, replayed on a twin platform.
    fn run(dataset: &DatasetConfig, seed: u64, k: usize) -> (SelectionOutcome, Vec<RoundRecord>) {
        let ds = generate(dataset).unwrap();
        let mut platform = Platform::from_dataset(&ds, seed).unwrap();
        let outcome = MedianEliminationBaseline::new()
            .select(&mut platform, k)
            .unwrap();
        let mut twin = Platform::from_dataset(&ds, seed).unwrap();
        let records = replay::halving(&mut twin, k, |_, record| observed(record));
        replay::assert_replayed(&platform, &twin);
        (outcome, records)
    }

    #[test]
    fn runs_the_halving_schedule_within_budget() {
        let (outcome, records) = run(&DatasetConfig::rw1(), 5, 7);
        assert_eq!(outcome.selected.len(), 7);
        assert_eq!(outcome.rounds, 2);
        assert!(outcome.budget_spent <= DatasetConfig::rw1().budget());
        // Two rounds ran on the platform; the second trained only the
        // surviving half.
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].sheets.len(), 27);
        assert_eq!(records[1].sheets.len(), 14);
    }

    #[test]
    fn later_rounds_assign_more_tasks_per_worker() {
        let (_, records) = run(&DatasetConfig::s1(), 5, 5);
        assert_eq!(records.len(), 3);
        assert!(records[1].tasks_per_worker > records[0].tasks_per_worker);
        assert!(records[2].tasks_per_worker > records[1].tasks_per_worker);
    }

    #[test]
    fn selects_workers_that_answered_well() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = MedianEliminationBaseline::new()
            .select(&mut platform, 7)
            .unwrap();
        let truths = platform.true_accuracies();
        let selected_mean = c4u_stats::mean(
            &outcome
                .selected
                .iter()
                .map(|&w| truths[w])
                .collect::<Vec<_>>(),
        );
        let pool_mean = c4u_stats::mean(&truths);
        assert!(selected_mean > pool_mean);
    }

    #[test]
    fn validation_and_name() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        assert!(MedianEliminationBaseline::new()
            .select(&mut platform, 0)
            .is_err());
        assert_eq!(MedianEliminationBaseline::new().name(), "ME");
    }

    fn observed(record: &RoundRecord) -> Vec<ScoredWorker> {
        record
            .sheets
            .iter()
            .map(|s| ScoredWorker::new(s.worker, s.accuracy()))
            .collect()
    }

    #[test]
    fn selection_is_the_top_k_of_the_last_round() {
        let (outcome, records) = run(&DatasetConfig::rw1(), 11, 7);
        let last = observed(&records[1]);
        let survivors: Vec<ScoredWorker> = median_eliminate(&last)
            .into_iter()
            .map(|w| *last.iter().find(|s| s.worker == w).unwrap())
            .collect();
        assert_eq!(outcome.selected, top_k(&survivors, 7));
        let plan = BudgetPlan::new(27, 7, 540).unwrap();
        assert_eq!(outcome.budget_spent, plan.planned_spend());
    }

    #[test]
    fn too_few_survivors_fall_back_to_the_previous_round() {
        // k = 13 still gives two rounds (27 -> 14 -> 7), leaving fewer than k.
        let (outcome, records) = run(&DatasetConfig::rw1(), 11, 13);
        assert_eq!(outcome.rounds, 2);
        assert_eq!(outcome.selected, top_k(&observed(&records[0]), 13));
        assert_eq!(outcome.scores.len(), 13);
    }

    #[test]
    fn fallback_selections_report_the_scores_they_were_ranked_on() {
        // S-2 leaves fewer than k = 5 survivors after its last round, so the
        // selection is the top 5 of round 3.
        let (outcome, records) = run(&DatasetConfig::s2(), 5, 5);
        assert_eq!(outcome.selected, vec![11, 39, 16, 43, 3]);
        let round3 = observed(&records[2]);
        let expected: Vec<f64> = outcome
            .selected
            .iter()
            .map(|&w| round3.iter().find(|s| s.worker == w).unwrap().score)
            .collect();
        assert_eq!(outcome.scores, expected);
        let rounded: Vec<f64> = expected.iter().map(|s| (s * 1e3).round() / 1e3).collect();
        assert_eq!(rounded, vec![0.987, 0.895, 0.855, 0.829, 0.816]);
        assert!(outcome.scores.windows(2).all(|p| p[0] >= p[1]));
    }
}
