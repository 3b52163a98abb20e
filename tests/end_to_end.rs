//! End-to-end integration test: dataset generation -> platform -> full pipeline ->
//! evaluation, spanning every crate in the workspace.

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{evaluate_strategy, BudgetPlan, CrossDomainSelector, SelectorConfig};

/// A fast configuration of the full method for integration tests (the paper default
/// of 50 CPE epochs is exercised by the benchmark harness).
fn fast_ours() -> CrossDomainSelector {
    let mut config = SelectorConfig::default();
    config.cpe.epochs = 5;
    CrossDomainSelector::new(config)
}

#[test]
fn rw1_pipeline_runs_end_to_end() {
    let config = DatasetConfig::rw1();
    let dataset = generate(&config).unwrap();
    let result = evaluate_strategy(&dataset, &fast_ours(), 1).unwrap();

    assert_eq!(result.strategy, "Ours");
    assert_eq!(result.dataset, "RW-1");
    assert_eq!(result.selected.len(), config.select_k);
    assert_eq!(result.rounds, 2);
    assert!(result.budget_spent <= config.budget());
    assert!((0.0..=1.0).contains(&result.working_accuracy));
    // Selected workers must come from the pool and be unique.
    let mut sorted = result.selected.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), config.select_k);
    assert!(sorted.iter().all(|&w| w < config.pool_size));
}

#[test]
fn every_paper_dataset_can_be_processed() {
    // Smaller synthetic pools keep this test fast while still touching every preset
    // shape (the full-size versions run in the benchmark harness).
    for mut config in DatasetConfig::all_paper_datasets() {
        if config.pool_size > 40 {
            config.pool_size = 40;
            config.seed ^= 0x55;
        }
        config.validate().unwrap();
        let dataset = generate(&config).unwrap();
        let result = evaluate_strategy(&dataset, &fast_ours(), 9).unwrap();
        assert_eq!(
            result.selected.len(),
            config.select_k,
            "dataset {}",
            config.name
        );
        assert!(
            result.working_accuracy > 0.2,
            "dataset {}: implausibly low accuracy {}",
            config.name,
            result.working_accuracy
        );
    }
}

#[test]
fn pipeline_respects_the_budget_plan_schedule() {
    let config = DatasetConfig::s1();
    let dataset = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 3).unwrap();
    let selector = fast_ours();
    let report = selector.run(&mut platform, config.select_k).unwrap();

    let plan = BudgetPlan::new(config.pool_size, config.select_k, config.budget()).unwrap();
    assert_eq!(report.rounds.len(), plan.rounds);
    // Repeated halving: round `i + 1` starts with `ceil(|W| / 2^i)` workers.
    let mut expected_workers = config.pool_size;
    for round in &report.rounds {
        assert_eq!(round.entered.len(), expected_workers);
        assert_eq!(
            round.tasks_per_worker,
            plan.tasks_per_worker(expected_workers)
        );
        expected_workers = expected_workers.div_ceil(2);
    }
    assert!(platform.budget_spent() <= platform.budget_total());
}

#[test]
fn trained_selection_is_deterministic_per_seed() {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let a = evaluate_strategy(&dataset, &fast_ours(), 77).unwrap();
    let b = evaluate_strategy(&dataset, &fast_ours(), 77).unwrap();
    assert_eq!(a.selected, b.selected);
    assert!((a.working_accuracy - b.working_accuracy).abs() < 1e-12);
    let c = evaluate_strategy(&dataset, &fast_ours(), 78).unwrap();
    // A different answering-noise seed may change the outcome (not necessarily, but
    // the accuracy is evaluated on different draws, so it differs almost surely).
    assert!((a.working_accuracy - c.working_accuracy).abs() > 1e-12 || a.selected != c.selected);
}

#[test]
fn selection_beats_random_choice_on_average() {
    // The whole point of the system: the selected group should be better than a
    // random subset of the pool.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let result = evaluate_strategy(&dataset, &fast_ours(), 5).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 5).unwrap();
    // Replay the same training so the pool is in a comparable trained state.
    let ids = platform.worker_ids();
    platform.assign_learning_batch(&ids, 10).unwrap();
    let truths = platform.true_accuracies();
    let pool_mean = truths.iter().sum::<f64>() / truths.len() as f64;
    assert!(
        result.expected_accuracy > pool_mean - 0.05,
        "selected expected accuracy {} should not fall below the pool mean {}",
        result.expected_accuracy,
        pool_mean
    );
}

#[test]
fn a_degenerate_conditional_does_not_abort_the_campaign() {
    // In this RW-2 draw one mask group's conditional target-domain sd falls
    // to ~3.7e-4, below what the 32-node rule resolves, so its Eq. 8
    // integrals underflow; those members fall back to their conditional mean
    // instead of failing the whole campaign.
    let config = DatasetConfig::rw2().with_seed(4_526_831_658_196_502_239);
    let dataset = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 264_332_156_737_082_540).unwrap();
    let report = CrossDomainSelector::new(SelectorConfig::default())
        .run(&mut platform, config.select_k)
        .unwrap();
    let mut selected = report.outcome.selected.clone();
    selected.sort_unstable();
    selected.dedup();
    assert_eq!(selected.len(), config.select_k);
    assert!(selected.iter().all(|&w| platform.is_active(w)));
}
