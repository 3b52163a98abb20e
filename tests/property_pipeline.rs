//! Property-based integration tests: the pipeline's key invariants must hold for
//! arbitrary (small) pool configurations, not just the paper presets, and for
//! every robustness scenario with its churn schedule replayed.

use c4u_crowd_sim::{
    generate, CampaignSchedule, Dataset, DatasetConfig, HistoricalProfile, Platform,
};
use c4u_selection::{
    median_eliminate, rounds_until_at_most, top_k, CrossDomainSelector, EstimationMode,
    GroundTruthOracle, LiEtAl, MedianEliminationBaseline, ScoredWorker, SelectorConfig,
    UniformSampling, WorkerSelector,
};
use proptest::prelude::*;

/// Every estimation preset: the full method and its two ablations.
const MODES: [EstimationMode; 3] = [
    EstimationMode::CpeAndLge,
    EstimationMode::CpeOnly,
    EstimationMode::LgeOnly,
];

/// Strategy for a small pool shape: pool size, k, tasks per batch, seed.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (8usize..=20, 2usize..=5, 4usize..=8, 0u64..1000)
}

/// `base` shrunk to the drawn pool shape.
fn shrink(base: &DatasetConfig, (pool, k, q, seed): (usize, usize, usize, u64)) -> DatasetConfig {
    let mut config = base.clone();
    config.name = format!("{}-prop-{pool}-{k}-{q}", base.name);
    config.pool_size = pool;
    config.select_k = k.min(pool);
    config.tasks_per_batch = q;
    config.working_tasks = 20;
    config.seed = seed;
    config
}

/// Strategy for a small but varied dataset configuration.
fn config_strategy() -> impl Strategy<Value = DatasetConfig> {
    shape_strategy().prop_map(|shape| shrink(&DatasetConfig::rw1(), shape))
}

/// Blanks prior domains the way `tests/missing_domains.rs` does: every third
/// worker lacks domain 1, and every fifth lacks domains 0 and 2.
fn blank_domains(dataset: &mut Dataset) {
    for (i, worker) in dataset.workers.iter_mut().enumerate() {
        let domains = worker.profile.num_domains();
        let mut accs: Vec<Option<f64>> = (0..domains).map(|d| worker.profile.accuracy(d)).collect();
        let counts: Vec<usize> = (0..domains).map(|d| worker.profile.task_count(d)).collect();
        if i % 3 == 0 {
            accs[1] = None;
        }
        if i % 5 == 0 {
            accs[0] = None;
            accs[2] = None;
        }
        worker.profile = HistoricalProfile::new(accs, counts).unwrap();
    }
}

/// The dataset as generated, and a copy with prior domains blanked
/// ([`blank_domains`]), each tagged with whether domains are missing.
fn with_and_without_blank_domains(dataset: Dataset) -> [(Dataset, bool); 2] {
    let mut gappy = dataset.clone();
    blank_domains(&mut gappy);
    [(dataset, false), (gappy, true)]
}

/// Every estimation preset at one and at three worker shards.
fn layouts() -> impl Iterator<Item = (EstimationMode, usize)> {
    MODES
        .into_iter()
        .flat_map(|mode| [1, 3].map(|num_shards| (mode, num_shards)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The small axes (missing prior domains, epochs) are enumerated in every
    /// case rather than drawn: the test's fixed case stream could miss a
    /// drawn value in every case.
    #[test]
    fn pipeline_always_selects_k_unique_workers_within_budget(config in config_strategy()) {
        for (dataset, gappy) in with_and_without_blank_domains(generate(&config).unwrap()) {
            for epochs in [1, 2, 5] {
                for (mode, num_shards) in layouts() {
                    let mut platform =
                        Platform::from_dataset(&dataset, config.seed ^ 0xABCD).unwrap();
                    let mut sel_config = SelectorConfig::default()
                        .with_mode(mode)
                        .with_num_shards(num_shards);
                    sel_config.cpe.epochs = epochs;
                    let selector = CrossDomainSelector::new(sel_config);
                    let outcome = selector.select(&mut platform, config.select_k).unwrap();

                    prop_assert_eq!(outcome.selected.len(), config.select_k);
                    let mut unique = outcome.selected.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    prop_assert_eq!(unique.len(), config.select_k);
                    prop_assert!(unique.iter().all(|&w| w < config.pool_size));
                    prop_assert!(unique.iter().all(|&w| platform.is_active(w)));
                    prop_assert!(outcome.budget_spent <= config.budget());
                    prop_assert_eq!(outcome.scores.len(), config.select_k);
                    prop_assert!(
                        outcome.scores.iter().all(|s| s.is_finite()),
                        "{:?} x {} shards x {} epochs (gappy {}): {:?}",
                        mode,
                        num_shards,
                        epochs,
                        gappy,
                        outcome.scores
                    );
                }
            }
        }
    }

    /// Every robustness scenario (RW-1, spammers, colluders, drift, churn),
    /// shrunk to the drawn shape, with its churn schedule replayed, with and
    /// without missing prior domains. Each case runs every scenario and both
    /// profile shapes: the churn preset is one in five, and the test's fixed
    /// case stream might never draw it.
    #[test]
    fn scenario_campaigns_with_churn_keep_the_invariants(shape in shape_strategy()) {
        for base in DatasetConfig::robustness_scenarios() {
            let config = shrink(&base, shape);
            let k = config.select_k;
            let rounds = rounds_until_at_most(config.pool_size, k);
            let schedule = CampaignSchedule::churn(&config, rounds).unwrap();
            for (dataset, gappy) in with_and_without_blank_domains(generate(&config).unwrap()) {
                for (mode, num_shards) in layouts() {
                    let mut platform =
                        Platform::from_dataset(&dataset, config.seed ^ 0xABCD).unwrap();
                    let mut sel_config = SelectorConfig::default()
                        .with_mode(mode)
                        .with_num_shards(num_shards);
                    sel_config.cpe.epochs = 2;
                    let outcome = CrossDomainSelector::new(sel_config)
                        .run_with_events(&mut platform, k, &schedule)
                        .unwrap()
                        .outcome;

                    let mut unique = outcome.selected.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    prop_assert_eq!(unique.len(), k);
                    prop_assert_eq!(outcome.selected.len(), k);
                    prop_assert!(unique.iter().all(|&w| platform.is_active(w)));
                    prop_assert!(outcome.budget_spent <= config.budget());
                    prop_assert_eq!(outcome.scores.len(), k);
                    prop_assert!(
                        outcome.scores.iter().all(|s| s.is_finite()),
                        "{} x {:?} x {} shards (gappy {}): {:?}",
                        config.name,
                        mode,
                        num_shards,
                        gappy,
                        outcome.scores
                    );
                }
            }
        }
    }

    /// Every baseline selects `k` distinct workers within the budget, also
    /// when fewer than `k` survive the last halving round (e.g. pool 10 with
    /// k = 4 ends with 3 survivors).
    #[test]
    fn baselines_share_the_same_invariants(config in config_strategy()) {
        let dataset = generate(&config).unwrap();
        for strategy in [
            &UniformSampling::new() as &dyn WorkerSelector,
            &MedianEliminationBaseline::new(),
            &LiEtAl::new(),
            &GroundTruthOracle::new(),
        ] {
            let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
            let outcome = strategy.select(&mut platform, config.select_k).unwrap();
            prop_assert_eq!(outcome.selected.len(), config.select_k, "{}", strategy.name());
            prop_assert!(outcome.budget_spent <= config.budget());
            let mut unique = outcome.selected.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), config.select_k);
        }
    }

    /// The ME baseline and Li et al. report each selected worker's score
    /// best-ranked first, as `SelectionOutcome` documents, on plain and on
    /// gappy profiles. (The full selector is not held to this yet: its final
    /// score lookup can report a worker's previous-round score.)
    #[test]
    fn baselines_report_scores_best_first(config in config_strategy()) {
        for (dataset, gappy) in with_and_without_blank_domains(generate(&config).unwrap()) {
            for strategy in [
                &MedianEliminationBaseline::new() as &dyn WorkerSelector,
                &LiEtAl::new(),
            ] {
                let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
                let outcome = strategy.select(&mut platform, config.select_k).unwrap();
                prop_assert_eq!(outcome.scores.len(), outcome.selected.len());
                prop_assert!(
                    outcome.scores.windows(2).all(|pair| pair[0] >= pair[1]),
                    "{} (gappy {}): {:?}",
                    strategy.name(),
                    gappy,
                    outcome.scores
                );
            }
        }
    }

    #[test]
    fn median_elimination_keeps_every_top_scorer(scores in prop::collection::vec(0.0..1.0f64, 2..40)) {
        let scored: Vec<ScoredWorker> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredWorker::new(i, s))
            .collect();
        let survivors = median_eliminate(&scored);
        // Exactly ceil(n/2) survive.
        prop_assert_eq!(survivors.len(), scored.len().div_ceil(2));
        // The single best scorer always survives.
        let best = top_k(&scored, 1)[0];
        prop_assert!(survivors.contains(&best));
        // Every survivor scores at least as much as every eliminated worker.
        let min_survivor = survivors
            .iter()
            .map(|&w| scores[w])
            .fold(f64::INFINITY, f64::min);
        for (i, &s) in scores.iter().enumerate() {
            if !survivors.contains(&i) {
                prop_assert!(s <= min_survivor + 1e-12);
            }
        }
    }

    #[test]
    fn top_k_is_idempotent_and_ordered(scores in prop::collection::vec(0.0..1.0f64, 1..30), k in 1usize..10) {
        let scored: Vec<ScoredWorker> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredWorker::new(i, s))
            .collect();
        let selected = top_k(&scored, k);
        prop_assert_eq!(selected.len(), k.min(scores.len()));
        // Scores along the selection are non-increasing.
        for pair in selected.windows(2) {
            prop_assert!(scores[pair[0]] >= scores[pair[1]] - 1e-12);
        }
        // Selecting k out of the already-selected set returns the same workers.
        let rescored: Vec<ScoredWorker> = selected
            .iter()
            .map(|&w| ScoredWorker::new(w, scores[w]))
            .collect();
        prop_assert_eq!(top_k(&rescored, k), selected);
    }
}
