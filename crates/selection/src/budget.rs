//! Budget planning for the elimination schedule (Eq. 12–13 of the paper).
//!
//! Given the pool size `|W|`, the number of workers to select `k`, and the total
//! budget `B`, the plan fixes the number of elimination rounds
//! `n = ceil(log2(|W| / k))`, the per-round budget `t = floor(B / n)`, and — per
//! round, given the number of remaining workers — the number of learning tasks each
//! remaining worker receives, `floor(t / |W_c|)`.

use crate::SelectionError;
use c4u_crowd_sim::rounds_for;

/// The budget plan of one selection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPlan {
    /// Initial pool size `|W|`.
    pub pool_size: usize,
    /// Number of workers to select `k`.
    pub select_k: usize,
    /// Total budget `B`.
    pub total_budget: usize,
    /// Number of elimination rounds `n` (Eq. 12).
    pub rounds: usize,
    /// Per-round budget `t` (Eq. 13).
    pub per_round_budget: usize,
}

impl BudgetPlan {
    /// Builds a plan; `pool_size`, `select_k` and `total_budget` must all be positive
    /// and `select_k <= pool_size`.
    pub fn new(
        pool_size: usize,
        select_k: usize,
        total_budget: usize,
    ) -> Result<Self, SelectionError> {
        if pool_size == 0 {
            return Err(SelectionError::InvalidConfig {
                what: "pool_size must be >= 1",
                value: 0.0,
            });
        }
        if select_k == 0 || select_k > pool_size {
            return Err(SelectionError::InvalidConfig {
                what: "select_k must lie in [1, pool_size]",
                value: select_k as f64,
            });
        }
        if total_budget == 0 {
            return Err(SelectionError::InvalidConfig {
                what: "total_budget must be >= 1",
                value: 0.0,
            });
        }
        let rounds = rounds_for(pool_size, select_k);
        let per_round_budget = total_budget / rounds;
        if per_round_budget == 0 {
            return Err(SelectionError::InvalidConfig {
                what: "budget too small for the number of rounds",
                value: total_budget as f64,
            });
        }
        Ok(Self {
            pool_size,
            select_k,
            total_budget,
            rounds,
            per_round_budget,
        })
    }

    /// Learning tasks assigned to each remaining worker in a round with
    /// `remaining_workers` participants: `floor(t / |W_c|)` (never below 1 as long as
    /// any budget remains, so that every round trains at least a little).
    pub fn tasks_per_worker(&self, remaining_workers: usize) -> usize {
        if remaining_workers == 0 {
            return 0;
        }
        (self.per_round_budget / remaining_workers).max(1)
    }

    /// Cumulative learning tasks `K_j = (2^j - 1) * t / |W|` each remaining worker has
    /// received by the end of round `j` (Sec. IV-C2).
    pub fn cumulative_tasks_after_round(&self, round: usize) -> f64 {
        c4u_irt::cumulative_tasks_after_round(round, self.per_round_budget as f64, self.pool_size)
    }

    /// Expected number of workers remaining at the *start* of round `c` (1-based)
    /// under repeated halving.
    #[cfg(test)]
    pub(crate) fn workers_at_round(&self, round: usize) -> usize {
        let mut remaining = self.pool_size;
        for _ in 1..round {
            remaining = remaining.div_ceil(2);
        }
        remaining
    }

    /// Total number of tasks the halving schedule will actually assign (never more
    /// than the total budget): the figure the baselines' tests check their spend
    /// against.
    #[cfg(test)]
    pub(crate) fn planned_spend(&self) -> usize {
        let mut spend = 0;
        for c in 1..=self.rounds {
            let remaining = self.workers_at_round(c);
            spend += self.tasks_per_worker(remaining) * remaining;
        }
        spend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BudgetPlan::new(0, 1, 100).is_err());
        assert!(BudgetPlan::new(10, 0, 100).is_err());
        assert!(BudgetPlan::new(10, 11, 100).is_err());
        assert!(BudgetPlan::new(10, 5, 0).is_err());
        assert!(BudgetPlan::new(10, 5, 100).is_ok());
    }

    #[test]
    fn rw1_plan_matches_paper_numbers() {
        // RW-1: |W| = 27, k = 7, B = 540 -> n = 2, t = 270, 10 tasks per worker in
        // round 1 and 19 in round 2 (14 workers remain).
        let plan = BudgetPlan::new(27, 7, 540).unwrap();
        assert_eq!(plan.rounds, 2);
        assert_eq!(plan.per_round_budget, 270);
        assert_eq!(plan.tasks_per_worker(27), 10);
        assert_eq!(plan.workers_at_round(2), 14);
        assert_eq!(plan.tasks_per_worker(14), 19);
        assert!(plan.planned_spend() <= plan.total_budget);
    }

    #[test]
    fn s1_plan_matches_paper_numbers() {
        // S-1: |W| = 40, k = 5, B = 2400 -> n = 3, t = 800; 20 / 40 / 80 tasks per
        // worker as the pool halves 40 -> 20 -> 10.
        let plan = BudgetPlan::new(40, 5, 2400).unwrap();
        assert_eq!(plan.rounds, 3);
        assert_eq!(plan.per_round_budget, 800);
        assert_eq!(plan.tasks_per_worker(40), 20);
        assert_eq!(plan.tasks_per_worker(20), 40);
        assert_eq!(plan.tasks_per_worker(10), 80);
        assert_eq!(plan.workers_at_round(3), 10);
        assert!(plan.planned_spend() <= 2400);
    }

    #[test]
    fn cumulative_schedule_matches_formula() {
        let plan = BudgetPlan::new(40, 5, 2400).unwrap();
        assert_eq!(plan.cumulative_tasks_after_round(0), 0.0);
        assert!((plan.cumulative_tasks_after_round(1) - 20.0).abs() < 1e-9);
        assert!((plan.cumulative_tasks_after_round(2) - 60.0).abs() < 1e-9);
        assert!((plan.cumulative_tasks_after_round(3) - 140.0).abs() < 1e-9);
    }

    #[test]
    fn tasks_per_worker_handles_edge_cases() {
        let plan = BudgetPlan::new(10, 5, 10).unwrap();
        assert_eq!(plan.tasks_per_worker(0), 0);
        // Even if the per-round budget is below the worker count, at least one task
        // is assigned so the round produces signal.
        assert_eq!(plan.tasks_per_worker(100), 1);
    }

    #[test]
    fn degenerate_k_equals_pool() {
        let plan = BudgetPlan::new(8, 8, 80).unwrap();
        assert_eq!(plan.rounds, 1);
        assert_eq!(plan.per_round_budget, 80);
        assert_eq!(plan.tasks_per_worker(8), 10);
    }

    #[test]
    fn pool_halves_with_the_ceiling() {
        let plan = BudgetPlan::new(27, 2, 540).unwrap();
        let sizes: Vec<usize> = (1..=5).map(|r| plan.workers_at_round(r)).collect();
        assert_eq!(sizes, vec![27, 14, 7, 4, 2]);
        assert_eq!(plan.workers_at_round(0), 27);
    }

    #[test]
    fn paper_budgets_are_never_overspent() {
        for c in c4u_crowd_sim::DatasetConfig::all_paper_datasets() {
            let plan = BudgetPlan::new(c.pool_size, c.select_k, c.budget()).unwrap();
            assert_eq!(plan.rounds, c.rounds(), "{}", c.name);
            assert_eq!(plan.per_round_budget, c.per_round_budget(), "{}", c.name);
            assert!(plan.planned_spend() <= plan.total_budget, "{}", c.name);
        }
    }

    #[test]
    fn churn_round_count_matches_the_budget_plan() {
        // Churn schedules are sized by `rounds_until_at_most` and campaigns by
        // `rounds_for`: a disagreement would silently drop the last round's
        // events.
        for pool in 2..=2000 {
            for k in 1..pool {
                let plan = BudgetPlan::new(pool, k, 1_000_000).unwrap();
                assert_eq!(
                    crate::rounds_until_at_most(pool, k),
                    plan.rounds,
                    "pool {pool}, k {k}"
                );
            }
        }
    }

    #[test]
    fn budget_below_the_round_count_is_rejected() {
        // 160 workers, k = 5: five rounds, so a budget of 4 leaves t = 0.
        assert!(BudgetPlan::new(160, 5, 4).is_err());
        assert_eq!(BudgetPlan::new(160, 5, 5).unwrap().per_round_budget, 1);
    }
}
