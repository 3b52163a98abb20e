//! Baseline worker-selection strategies (Sec. V-B of the paper).
//!
//! * [`UniformSampling`] — spend the budget evenly over all workers, select the
//!   top-`k` by observed accuracy ([Even-Dar et al.; Cao et al.]).
//! * [`MedianEliminationBaseline`] — the plain median-elimination schedule ranked by
//!   observed per-round accuracy (the backbone of the paper's method, with the
//!   worker-quality estimation removed).
//! * [`LiEtAl`] — linear regression from the historical profile features to the
//!   observed target-domain accuracy, selection by regressed value.
//! * [`GroundTruthOracle`] — an oracle that ranks workers by their true (latent)
//!   accuracy; the "Ground Truth" row of Table V and an upper bound for every
//!   budget-constrained strategy.

mod li;
mod median;
mod oracle;
mod uniform;

pub use li::LiEtAl;
pub use median::MedianEliminationBaseline;
pub use oracle::GroundTruthOracle;
pub use uniform::UniformSampling;

/// Test support. The platform keeps no round records, so a baseline test
/// replays the baseline's platform calls on a twin (a fresh platform built
/// from the same dataset and seed) and reads the records those calls return.
#[cfg(test)]
mod replay {
    use crate::budget::BudgetPlan;
    use crate::me::{median_eliminate, ScoredWorker};
    use c4u_crowd_sim::{Platform, RoundRecord};

    /// Runs the halving schedule for `k` on `twin`, ranking each round's
    /// workers with `rank`, and returns the rounds' records.
    pub(super) fn halving(
        twin: &mut Platform,
        k: usize,
        rank: impl Fn(&Platform, &RoundRecord) -> Vec<ScoredWorker>,
    ) -> Vec<RoundRecord> {
        let plan = BudgetPlan::new(twin.pool_size(), k, twin.budget_total()).unwrap();
        let mut remaining = twin.worker_ids();
        (0..plan.rounds)
            .map(|_| {
                let tasks = plan.tasks_per_worker(remaining.len());
                let record = twin.assign_learning_batch(&remaining, tasks).unwrap();
                remaining = median_eliminate(&rank(twin, &record));
                record
            })
            .collect()
    }

    /// Asserts that `twin` ended where the baseline left `platform`: same
    /// rounds, budget, and tasks and true accuracy per worker. The twin's
    /// records are then the ones the baseline's own calls returned.
    pub(super) fn assert_replayed(platform: &Platform, twin: &Platform) {
        assert_eq!(platform.rounds_run(), twin.rounds_run());
        assert_eq!(platform.budget_spent(), twin.budget_spent());
        assert_eq!(platform.true_accuracies(), twin.true_accuracies());
        for id in platform.worker_ids() {
            assert_eq!(
                platform.cumulative_learning_tasks(id),
                twin.cumulative_learning_tasks(id)
            );
        }
    }
}
