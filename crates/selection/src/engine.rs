//! Parallel evaluation engine: thread-scoped fan-out over trials and strategies.
//!
//! The evaluation protocol runs every (strategy, seed) cell on its own fresh
//! [`Platform`](c4u_crowd_sim::Platform) built from a shared immutable
//! [`Dataset`], so cells are embarrassingly parallel. [`EvalEngine`] fans them
//! out on [`std::thread::scope`] with a work-stealing index and re-assembles
//! the results in submission order, which makes the parallel output — means,
//! standard deviations, errors, everything — **identical** to the sequential
//! path. `evaluate_over_trials` in [`crate::evaluation`] is a thin wrapper
//! over a default engine; construct an engine directly to pin the thread
//! count (e.g. [`EvalEngine::sequential`] in determinism tests) or to run a
//! whole Table V column with [`EvalEngine::evaluate_all`].

use crate::evaluation::{evaluate_strategy, AggregatedResult, EvaluationResult};
use crate::selector::WorkerSelector;
use crate::SelectionError;
use c4u_crowd_sim::parallel::run_indexed_jobs;
use c4u_crowd_sim::Dataset;

/// A reusable evaluation runner with a fixed worker-thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalEngine {
    threads: usize,
}

impl Default for EvalEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalEngine {
    /// An engine sized to the machine (`std::thread::available_parallelism`).
    pub fn new() -> Self {
        Self {
            threads: c4u_crowd_sim::parallel::available_threads(),
        }
    }

    /// An engine that runs everything on the calling thread, in order.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// An engine with an explicit thread budget (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one strategy over several answering-noise seeds and aggregates the
    /// per-trial working accuracies. Trials are fanned out across threads; the
    /// aggregation consumes them in seed order, so the result is identical to
    /// a sequential run.
    pub fn evaluate_over_trials(
        &self,
        dataset: &Dataset,
        strategy: &dyn WorkerSelector,
        seeds: &[u64],
    ) -> Result<AggregatedResult, SelectionError> {
        if seeds.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let results = self.run_jobs(seeds.len(), |i| {
            evaluate_strategy(dataset, strategy, seeds[i])
        })?;
        Ok(aggregate(strategy.name(), &dataset.config.name, &results))
    }

    /// Runs a set of strategies on the same dataset and seed (one Table V
    /// column), fanned out across threads, results in strategy order.
    pub fn evaluate_all(
        &self,
        dataset: &Dataset,
        strategies: &[&dyn WorkerSelector],
        seed: u64,
    ) -> Result<Vec<EvaluationResult>, SelectionError> {
        self.run_jobs(strategies.len(), |i| {
            evaluate_strategy(dataset, strategies[i], seed)
        })
    }

    /// Runs every (strategy, seed) cell of a full comparison, fanned out across
    /// threads, and aggregates per strategy — the whole Table V column set in
    /// one call. Results are in strategy order with trials in seed order.
    pub fn evaluate_all_over_trials(
        &self,
        dataset: &Dataset,
        strategies: &[&dyn WorkerSelector],
        seeds: &[u64],
    ) -> Result<Vec<AggregatedResult>, SelectionError> {
        if seeds.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let per_strategy = seeds.len();
        let results = self.run_jobs(strategies.len() * per_strategy, |job| {
            let strategy = strategies[job / per_strategy];
            let seed = seeds[job % per_strategy];
            evaluate_strategy(dataset, strategy, seed)
        })?;
        Ok(results
            .chunks(per_strategy)
            .zip(strategies.iter())
            .map(|(chunk, strategy)| aggregate(strategy.name(), &dataset.config.name, chunk))
            .collect())
    }

    /// Executes `n` independent jobs via [`run_indexed_jobs`] with this
    /// engine's thread budget.
    fn run_jobs<F>(&self, n: usize, job: F) -> Result<Vec<EvaluationResult>, SelectionError>
    where
        F: Fn(usize) -> Result<EvaluationResult, SelectionError> + Sync,
    {
        run_indexed_jobs(self.threads, n, job)
    }
}

/// Aggregates per-trial results (already in seed order) into the mean/std
/// summary, with the exact float-op order of the historical sequential path.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{MedianEliminationBaseline, UniformSampling};
    use c4u_crowd_sim::{generate, DatasetConfig};

    fn small_dataset() -> Dataset {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 12;
        config.select_k = 3;
        config.working_tasks = 30;
        generate(&config).unwrap()
    }

    #[test]
    fn engine_constructors() {
        assert_eq!(EvalEngine::sequential().threads(), 1);
        assert_eq!(EvalEngine::with_threads(0).threads(), 1);
        assert_eq!(EvalEngine::with_threads(6).threads(), 6);
        assert!(EvalEngine::default().threads() >= 1);
    }

    #[test]
    fn parallel_matches_sequential_over_trials() {
        let ds = small_dataset();
        let strategy = UniformSampling::new();
        let seeds: Vec<u64> = (1..=9).collect();
        let sequential = EvalEngine::sequential()
            .evaluate_over_trials(&ds, &strategy, &seeds)
            .unwrap();
        let parallel = EvalEngine::with_threads(4)
            .evaluate_over_trials(&ds, &strategy, &seeds)
            .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.trials, 9);
    }

    #[test]
    fn parallel_matches_sequential_across_strategies() {
        let ds = small_dataset();
        let us = UniformSampling::new();
        let me = MedianEliminationBaseline::new();
        let strategies: Vec<&dyn WorkerSelector> = vec![&us, &me];
        let sequential = EvalEngine::sequential()
            .evaluate_all(&ds, &strategies, 3)
            .unwrap();
        let parallel = EvalEngine::with_threads(4)
            .evaluate_all(&ds, &strategies, 3)
            .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[0].strategy, "US");
        assert_eq!(parallel[1].strategy, "ME");
    }

    #[test]
    fn matrix_evaluation_aggregates_per_strategy() {
        let ds = small_dataset();
        let us = UniformSampling::new();
        let me = MedianEliminationBaseline::new();
        let strategies: Vec<&dyn WorkerSelector> = vec![&us, &me];
        let seeds = [1u64, 2, 3];
        let matrix = EvalEngine::with_threads(4)
            .evaluate_all_over_trials(&ds, &strategies, &seeds)
            .unwrap();
        assert_eq!(matrix.len(), 2);
        for (aggregated, strategy) in matrix.iter().zip(strategies.iter()) {
            assert_eq!(aggregated.strategy, strategy.name());
            assert_eq!(aggregated.trials, 3);
            let reference = EvalEngine::sequential()
                .evaluate_over_trials(&ds, *strategy, &seeds)
                .unwrap();
            assert_eq!(*aggregated, reference);
        }
    }

    #[test]
    fn empty_seed_sets_are_rejected() {
        let ds = small_dataset();
        let strategy = UniformSampling::new();
        assert!(EvalEngine::default()
            .evaluate_over_trials(&ds, &strategy, &[])
            .is_err());
        let strategies: Vec<&dyn WorkerSelector> = vec![&strategy];
        assert!(EvalEngine::default()
            .evaluate_all_over_trials(&ds, &strategies, &[])
            .is_err());
    }

    /// A selector that always fails with a distinguishable error message.
    #[derive(Debug)]
    struct FailWith(&'static str);

    impl WorkerSelector for FailWith {
        fn name(&self) -> &str {
            self.0
        }
        fn select(
            &self,
            _platform: &mut c4u_crowd_sim::Platform,
            _k: usize,
        ) -> Result<crate::SelectionOutcome, SelectionError> {
            Err(SelectionError::Numerical(self.0.to_string()))
        }
    }

    #[test]
    fn lowest_indexed_error_is_reported() {
        // Two failing strategies with distinguishable errors: sequential and
        // parallel must both report strategy 0's error, never strategy 1's —
        // this pins the lowest-index guarantee, not just "some error".
        let ds = small_dataset();
        let first = FailWith("first");
        let second = FailWith("second");
        let ok = UniformSampling::new();
        let strategies: Vec<&dyn WorkerSelector> = vec![&ok, &first, &second];
        let expected = Err(SelectionError::Numerical("first".to_string()));
        assert_eq!(
            EvalEngine::sequential().evaluate_all(&ds, &strategies, 3),
            expected
        );
        assert_eq!(
            EvalEngine::with_threads(4).evaluate_all(&ds, &strategies, 3),
            expected
        );
    }

    #[test]
    fn an_empty_strategy_list_evaluates_to_nothing() {
        let ds = small_dataset();
        let engine = EvalEngine::with_threads(3);
        assert!(engine.evaluate_all(&ds, &[], 1).unwrap().is_empty());
        assert!(engine
            .evaluate_all_over_trials(&ds, &[], &[1, 2])
            .unwrap()
            .is_empty());
        let us = UniformSampling::new();
        assert!(engine.evaluate_all_over_trials(&ds, &[&us], &[]).is_err());
    }
}
