//! Evaluation harness: run strategies on identical datasets and score the selected
//! workers on the working tasks.
//!
//! The paper's evaluation protocol (Sec. V-C) allocates the same budget to every
//! method and reports the average annotation accuracy of the selected workers on the
//! target-domain *working* tasks after the final round. To make the comparison fair
//! despite the stochastic workers, every strategy here is run on its own fresh
//! [`Platform`] instantiated from the *same* dataset with the *same* answering-noise
//! seed, so differences in the outcome are attributable to the selection decisions
//! alone. Results can additionally be averaged over several trial seeds.

use crate::selector::WorkerSelector;
use crate::SelectionError;
use c4u_crowd_sim::parallel::{available_threads, run_indexed_jobs};
use c4u_crowd_sim::{Dataset, Platform, WorkerId};

/// The evaluation of one strategy on one dataset (one trial).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// Strategy name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Workers the strategy selected.
    pub selected: Vec<WorkerId>,
    /// Average observed accuracy of the selected workers on the working tasks.
    pub working_accuracy: f64,
    /// Average true (latent) accuracy of the selected workers after training.
    pub expected_accuracy: f64,
    /// Learning tasks the strategy consumed.
    pub budget_spent: usize,
    /// Training rounds the strategy ran.
    pub rounds: usize,
}

/// The evaluation of one strategy averaged over several trials.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedResult {
    /// Strategy name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean working-task accuracy across trials.
    pub mean_accuracy: f64,
    /// Standard deviation of the working-task accuracy across trials.
    pub std_accuracy: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Runs one strategy on one dataset with one answering-noise seed, selecting
/// the dataset's own `k`.
pub fn evaluate_strategy(
    dataset: &Dataset,
    strategy: &dyn WorkerSelector,
    seed: u64,
) -> Result<EvaluationResult, SelectionError> {
    evaluate_strategy_with_k(dataset, strategy, dataset.config.select_k, seed)
}

/// Runs one strategy with a custom `k` (used by the Figure 6 sensitivity sweep).
pub fn evaluate_strategy_with_k(
    dataset: &Dataset,
    strategy: &dyn WorkerSelector,
    k: usize,
    seed: u64,
) -> Result<EvaluationResult, SelectionError> {
    let mut platform = Platform::from_dataset(dataset, seed)?;
    let outcome = strategy.select(&mut platform, k)?;
    let working_accuracy = platform.evaluate_working_accuracy(&outcome.selected)?;
    let expected_accuracy = platform.expected_working_accuracy(&outcome.selected)?;
    Ok(EvaluationResult {
        strategy: strategy.name().to_string(),
        dataset: dataset.config.name.clone(),
        selected: outcome.selected,
        working_accuracy,
        expected_accuracy,
        budget_spent: outcome.budget_spent,
        rounds: outcome.rounds,
    })
}

/// Runs one strategy over several answering-noise seeds and aggregates the results.
///
/// Trials are independent (each builds its own [`Platform`] from the shared
/// dataset), so they are fanned out over the machine's threads through
/// [`run_indexed_jobs`]. That queue returns the trials in seed order and
/// reports the lowest-indexed error, and the aggregation consumes them in that
/// order, so the result is identical to a sequential run at any thread count.
// c4u-lint: allow(unused-pub-fn, reason = "README's doctested evaluation-protocol example calls it")
pub fn evaluate_over_trials(
    dataset: &Dataset,
    strategy: &dyn WorkerSelector,
    seeds: &[u64],
) -> Result<AggregatedResult, SelectionError> {
    if seeds.is_empty() {
        return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
    }
    let results = run_indexed_jobs(available_threads(), seeds.len(), |i| {
        evaluate_strategy(dataset, strategy, seeds[i])
    })?;
    Ok(aggregate(strategy.name(), &dataset.config.name, &results))
}

/// Aggregates per-trial results (already in seed order) into the mean/std
/// summary.
fn aggregate(strategy: &str, dataset: &str, results: &[EvaluationResult]) -> AggregatedResult {
    let accuracies: Vec<f64> = results.iter().map(|r| r.working_accuracy).collect();
    AggregatedResult {
        strategy: strategy.to_string(),
        dataset: dataset.to_string(),
        mean_accuracy: c4u_stats::mean(&accuracies),
        std_accuracy: c4u_stats::std_dev(&accuracies),
        trials: results.len(),
    }
}

/// Relative improvement of `ours` over `baseline`, in percent — the parenthesised
/// uplift figures of Table V.
pub fn relative_improvement(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (ours - baseline) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{GroundTruthOracle, UniformSampling};
    use c4u_crowd_sim::{generate, DatasetConfig};

    #[test]
    fn evaluation_produces_sensible_numbers() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let result = evaluate_strategy(&ds, &UniformSampling::new(), 3).unwrap();
        assert_eq!(result.strategy, "US");
        assert_eq!(result.dataset, "RW-1");
        assert_eq!(result.selected.len(), 7);
        assert!((0.0..=1.0).contains(&result.working_accuracy));
        assert!((0.0..=1.0).contains(&result.expected_accuracy));
        assert!(result.budget_spent <= ds.config.budget());
    }

    #[test]
    fn oracle_upper_bounds_uniform_sampling_on_expected_accuracy() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let gt = evaluate_strategy(&ds, &GroundTruthOracle::new(), 3).unwrap();
        let us = evaluate_strategy(&ds, &UniformSampling::new(), 3).unwrap();
        assert!(
            gt.expected_accuracy >= us.expected_accuracy - 1e-9,
            "oracle {} should not lose to US {}",
            gt.expected_accuracy,
            us.expected_accuracy
        );
    }

    /// A selector that always fails, naming the working accuracy its platform
    /// observes for worker 0, so each answering-noise seed fails differently.
    #[derive(Debug)]
    struct FailWithObservedAccuracy;

    impl WorkerSelector for FailWithObservedAccuracy {
        fn name(&self) -> &str {
            "fail"
        }
        fn select(
            &self,
            platform: &mut Platform,
            _k: usize,
        ) -> Result<crate::SelectionOutcome, SelectionError> {
            let accuracy = platform.evaluate_working_accuracy(&[0])?;
            Err(SelectionError::Numerical(format!("{accuracy:?}")))
        }
    }

    #[test]
    fn lowest_indexed_error_is_reported() {
        // Every trial fails with a seed-specific error: the fan-out must
        // report the first seed's error, never a later one.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let seeds: Vec<u64> = (1..=8).collect();
        let errors: Vec<SelectionError> = seeds
            .iter()
            .map(|&seed| evaluate_strategy(&ds, &FailWithObservedAccuracy, seed).unwrap_err())
            .collect();
        assert!(
            errors.iter().any(|e| *e != errors[0]),
            "the seeds must fail distinguishably"
        );
        assert_eq!(
            evaluate_over_trials(&ds, &FailWithObservedAccuracy, &seeds),
            Err(errors[0].clone())
        );
    }

    #[test]
    fn trials_aggregate_mean_and_std() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let agg = evaluate_over_trials(&ds, &UniformSampling::new(), &[1, 2, 3]).unwrap();
        assert_eq!(agg.trials, 3);
        assert!((0.0..=1.0).contains(&agg.mean_accuracy));
        assert!(agg.std_accuracy >= 0.0);
    }

    #[test]
    fn empty_seed_sets_are_rejected() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        assert_eq!(
            evaluate_over_trials(&ds, &UniformSampling::new(), &[]),
            Err(SelectionError::NotEnoughData { needed: 1, got: 0 })
        );
    }

    #[test]
    fn parallel_matches_sequential_over_trials() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let strategy = UniformSampling::new();
        let seeds: Vec<u64> = (1..=9).collect();
        let sequential: Vec<EvaluationResult> = seeds
            .iter()
            .map(|&seed| evaluate_strategy(&ds, &strategy, seed).unwrap())
            .collect();
        let fanned_out = evaluate_over_trials(&ds, &strategy, &seeds).unwrap();
        assert_eq!(fanned_out, aggregate("US", "RW-1", &sequential));
        assert_eq!(fanned_out.trials, 9);
    }

    #[test]
    fn custom_k_changes_the_selection_size() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let result = evaluate_strategy_with_k(&ds, &UniformSampling::new(), 14, 3).unwrap();
        assert_eq!(result.selected.len(), 14);
    }

    #[test]
    fn relative_improvement_formula() {
        assert!((relative_improvement(0.798, 0.764) - 4.45).abs() < 0.1);
        assert_eq!(relative_improvement(0.5, 0.0), 0.0);
        assert!(relative_improvement(0.7, 0.8) < 0.0);
    }

    #[test]
    fn default_k_matches_the_dataset_and_runs_reproduce() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let us = UniformSampling::new();
        let a = evaluate_strategy(&ds, &us, 9).unwrap();
        assert_eq!(
            a,
            evaluate_strategy_with_k(&ds, &us, ds.config.select_k, 9).unwrap()
        );
        assert_eq!(a, evaluate_strategy(&ds, &us, 9).unwrap());
        assert_eq!(a.rounds, 1);
    }

    #[test]
    fn a_single_trial_aggregates_to_itself() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let single = evaluate_strategy(&ds, &UniformSampling::new(), 4).unwrap();
        let agg = evaluate_over_trials(&ds, &UniformSampling::new(), &[4]).unwrap();
        assert_eq!(agg.mean_accuracy, single.working_accuracy);
        assert_eq!(agg.std_accuracy, 0.0);
        assert_eq!(
            (agg.strategy.as_str(), agg.dataset.as_str()),
            ("US", "RW-1")
        );
    }
}
