//! Property-based integration tests: the pipeline's key invariants must hold for
//! arbitrary (small) pool configurations, not just the paper presets.

use c4u_crowd_sim::{generate, Dataset, DatasetConfig, HistoricalProfile, Platform};
use c4u_selection::{
    median_eliminate, top_k, CrossDomainSelector, EstimationMode, MedianEliminationBaseline,
    ScoredWorker, SelectorConfig, UniformSampling, WorkerSelector,
};
use proptest::prelude::*;

/// Every preset of the stage zoo.
const MODES: [EstimationMode; 6] = [
    EstimationMode::CpeAndLge,
    EstimationMode::CpeOnly,
    EstimationMode::LgeOnly,
    EstimationMode::BktOnly,
    EstimationMode::RaschCalibrated,
    EstimationMode::CpeBktEnsemble,
];

/// Strategy for a small but varied dataset configuration.
fn config_strategy() -> impl Strategy<Value = DatasetConfig> {
    (8usize..=20, 2usize..=5, 4usize..=8, 0u64..1000).prop_map(|(pool, k, q, seed)| {
        let mut config = DatasetConfig::rw1();
        config.name = format!("prop-{pool}-{k}-{q}");
        config.pool_size = pool;
        config.select_k = k.min(pool);
        config.tasks_per_batch = q;
        config.working_tasks = 20;
        config.seed = seed;
        config
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_always_selects_k_unique_workers_within_budget(
        config in config_strategy(),
        epochs in 1usize..4,
        gappy in 0u8..2,
    ) {
        let mut dataset = generate(&config).unwrap();
        if gappy == 1 {
            blank_domains(&mut dataset);
        }
        for mode in MODES {
            for num_shards in [1, 3] {
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

    #[test]
    fn baselines_share_the_same_invariants(config in config_strategy()) {
        let dataset = generate(&config).unwrap();
        for strategy in [
            &UniformSampling::new() as &dyn WorkerSelector,
            &MedianEliminationBaseline::new(),
        ] {
            let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
            let outcome = strategy.select(&mut platform, config.select_k).unwrap();
            prop_assert_eq!(outcome.selected.len(), config.select_k);
            prop_assert!(outcome.budget_spent <= config.budget());
            let mut unique = outcome.selected.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), config.select_k);
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
