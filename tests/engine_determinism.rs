//! Determinism regression tests for the trial fan-out of
//! `evaluate_over_trials`: spreading trials over threads must change
//! wall-clock only, never a single bit of the results.

use c4u_crowd_sim::{generate, DatasetConfig};
use c4u_selection::{
    evaluate_over_trials, evaluate_strategy, AggregatedResult, CrossDomainSelector,
    MedianEliminationBaseline, SelectorConfig, UniformSampling, WorkerSelector,
};

fn small_dataset() -> c4u_selection::Dataset {
    let mut config = DatasetConfig::rw1();
    config.pool_size = 12;
    config.select_k = 3;
    config.working_tasks = 30;
    generate(&config).unwrap()
}

fn fast_ours() -> CrossDomainSelector {
    let mut config = SelectorConfig::default();
    config.cpe.epochs = 2;
    CrossDomainSelector::new(config)
}

/// The sequential reference: one trial after another, in seed order,
/// aggregated in that order.
fn sequential(
    dataset: &c4u_selection::Dataset,
    strategy: &dyn WorkerSelector,
    seeds: &[u64],
) -> AggregatedResult {
    let accuracies: Vec<f64> = seeds
        .iter()
        .map(|&seed| {
            evaluate_strategy(dataset, strategy, seed)
                .unwrap()
                .working_accuracy
        })
        .collect();
    AggregatedResult {
        strategy: strategy.name().to_string(),
        dataset: dataset.config.name.clone(),
        mean_accuracy: c4u_stats::mean(&accuracies),
        std_accuracy: c4u_stats::std_dev(&accuracies),
        trials: seeds.len(),
    }
}

#[test]
fn parallel_engine_matches_sequential_for_eight_plus_trials() {
    let dataset = small_dataset();
    let seeds: Vec<u64> = (1..=10).collect();
    for strategy in [
        &fast_ours() as &dyn WorkerSelector,
        &UniformSampling::new(),
        &MedianEliminationBaseline::new(),
    ] {
        let fanned_out = evaluate_over_trials(&dataset, strategy, &seeds).unwrap();
        // `AggregatedResult` derives PartialEq over raw f64 fields: this is an
        // exact, bit-level comparison of mean and standard deviation.
        assert_eq!(
            fanned_out,
            sequential(&dataset, strategy, &seeds),
            "{} diverged",
            strategy.name()
        );
        assert_eq!(fanned_out.trials, 10);
    }
}

#[test]
fn default_evaluate_over_trials_is_reproducible_across_calls() {
    // The fan-out is machine-sized, so every invocation must return the same
    // result regardless of thread scheduling.
    let dataset = small_dataset();
    let strategy = fast_ours();
    let seeds: Vec<u64> = (1..=8).collect();
    let first = evaluate_over_trials(&dataset, &strategy, &seeds).unwrap();
    let second = evaluate_over_trials(&dataset, &strategy, &seeds).unwrap();
    assert_eq!(first, second);
    assert_eq!(first, sequential(&dataset, &strategy, &seeds));
}
