//! Sharded vs. unsharded equivalence: for a fixed platform seed, the
//! worker-range sharding layer must be invisible in every observable output.
//!
//! Per-worker RNG streams (split deterministically from the platform seed by
//! worker id and round) mean the shard layout carries no entropy, so
//!
//! * [`Platform::assign_learning_batch_sharded`] must produce **bit-for-bit**
//!   identical [`RoundRecord`]s for every shard count — including ragged last
//!   shards and empty shards — and identical to the unsharded
//!   [`Platform::assign_learning_batch`];
//! * [`Platform::evaluate_working_accuracy_sharded`] must reproduce the
//!   unsharded average exactly (the accumulation order is pinned to worker
//!   order);
//! * a [`CrossDomainSelector`] configured with any `num_shards` (up to
//!   `usize::MAX`, which is clamped to the pool) must select the same
//!   workers with the same final scores and identical per-round estimates;
//! * the Eq. 8 predictions a CPE update returns must equal
//!   [`CrossDomainEstimator::predict_batch_sharded`] after the update, for
//!   every shard layout.
//!
//! These are exact `==` assertions on `f64`s, not tolerance checks: sharding
//! is an execution-layout knob, never a numerical one.

use c4u_crowd_sim::{
    generate, DatasetConfig, HistoricalProfile, Platform, RoundRecord, WorkerShards,
};
use c4u_selection::{
    evaluate_strategy, CpeConfig, CpeObservation, CrossDomainEstimator, CrossDomainSelector,
    SelectorConfig, WorkerSelector,
};

/// Shard counts exercised everywhere: sequential, ragged (27 workers over 3 or
/// 16 ranges), and more-shards-than-workers (empty trailing shards).
const SHARD_COUNTS: [usize; 4] = [1, 3, 16, 40];

fn rw1_platform(seed: u64) -> Platform {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    Platform::from_dataset(&dataset, seed).unwrap()
}

#[test]
fn platform_rounds_are_identical_for_every_shard_layout() {
    // Three rounds over a shrinking worker list (mirroring elimination), with
    // the unsharded path as the reference.
    let reference: Vec<RoundRecord> = {
        let mut platform = rw1_platform(11);
        let ids = platform.worker_ids();
        let mut records = vec![platform.assign_learning_batch(&ids, 6).unwrap()];
        records.push(platform.assign_learning_batch(&ids[..14], 6).unwrap());
        records.push(platform.assign_learning_batch(&ids[..7], 6).unwrap());
        records
    };
    for num_shards in SHARD_COUNTS {
        let mut platform = rw1_platform(11);
        let ids = platform.worker_ids();
        let pools: [&[usize]; 3] = [&ids, &ids[..14], &ids[..7]];
        let mut records = Vec::new();
        for (round, pool) in pools.iter().enumerate() {
            let shards = WorkerShards::by_count(pool.len(), num_shards);
            let record = platform
                .assign_learning_batch_sharded(pool, 6, &shards)
                .unwrap();
            assert_eq!(
                record,
                reference[round],
                "round {} with {num_shards} shards",
                round + 1
            );
            records.push(record);
        }
        // The whole run agrees too (round numbering, task counts, sheets).
        assert_eq!(records, reference);
        assert_eq!(platform.rounds_run(), 3);
        assert_eq!(platform.budget_spent(), 6 * (27 + 14 + 7));
    }
}

#[test]
fn ragged_and_empty_shards_change_nothing() {
    // 27 workers over 16 shards: eleven 2-element shards + five 1-element
    // shards. Over 40 shards: 27 singletons + 13 empty shards. Over 7 and 2
    // shards: unequal shard sizes (4/3 and 14/13). All must equal the
    // single-shard layout.
    let reference = {
        let mut platform = rw1_platform(23);
        let ids = platform.worker_ids();
        platform.assign_learning_batch(&ids, 10).unwrap()
    };
    let layouts: Vec<WorkerShards> = vec![
        WorkerShards::by_count(27, 16),
        WorkerShards::by_count(27, 40),
        WorkerShards::by_count(27, 7),
        WorkerShards::by_count(27, 2),
    ];
    for shards in layouts {
        let mut platform = rw1_platform(23);
        let ids = platform.worker_ids();
        let record = platform
            .assign_learning_batch_sharded(&ids, 10, &shards)
            .unwrap();
        assert_eq!(
            record,
            reference,
            "{} shards over {} workers",
            shards.num_shards(),
            shards.len()
        );
    }
}

#[test]
fn working_evaluation_is_identical_for_every_shard_layout() {
    let reference = {
        let mut platform = rw1_platform(31);
        let ids = platform.worker_ids();
        // Two calls: the evaluation epoch advances identically either way.
        let first = platform.evaluate_working_accuracy(&ids).unwrap();
        let second = platform.evaluate_working_accuracy(&ids).unwrap();
        (first, second)
    };
    for num_shards in SHARD_COUNTS {
        let mut platform = rw1_platform(31);
        let ids = platform.worker_ids();
        let shards = WorkerShards::by_count(ids.len(), num_shards);
        let first = platform
            .evaluate_working_accuracy_sharded(&ids, &shards)
            .unwrap();
        let second = platform
            .evaluate_working_accuracy_sharded(&ids, &shards)
            .unwrap();
        // Exact float equality: same streams, same accumulation order.
        assert_eq!((first, second), reference, "{num_shards} shards");
    }
}

fn fast_config(num_shards: usize) -> SelectorConfig {
    let mut config = SelectorConfig::default().with_num_shards(num_shards);
    config.cpe.epochs = 5;
    config
}

#[test]
fn selector_output_is_identical_for_every_shard_count() {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let reference = {
        let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
        CrossDomainSelector::new(fast_config(1))
            .run(&mut platform, 7)
            .unwrap()
    };
    for num_shards in SHARD_COUNTS {
        let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
        let report = CrossDomainSelector::new(fast_config(num_shards))
            .run(&mut platform, 7)
            .unwrap();
        // Selection, ranking scores, budget: exact.
        assert_eq!(
            report.outcome.selected, reference.outcome.selected,
            "{num_shards} shards"
        );
        assert_eq!(
            report.outcome.scores, reference.outcome.scores,
            "{num_shards} shards"
        );
        assert_eq!(report.outcome.budget_spent, reference.outcome.budget_spent);
        assert_eq!(report.outcome.rounds, reference.outcome.rounds);
        // Per-round diagnostics (entered/survived sets, every static and
        // dynamic estimate): exact.
        assert_eq!(report.rounds, reference.rounds, "{num_shards} shards");
        assert_eq!(report.target_correlations, reference.target_correlations);
    }
}

#[test]
fn ablation_pipelines_are_identical_for_every_shard_count() {
    // The two ablations fan their per-worker passes out over the same
    // worker-range shards as the full method: LGE-only's LGE fits on raw
    // sheet accuracies (the `lge_only_10k` path) and ME-CPE's CPE update
    // without LGE. Their merge order is pinned to worker order, so each must
    // be bit-for-bit shard-layout independent too.
    use c4u_selection::EstimationMode;
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    for mode in [EstimationMode::LgeOnly, EstimationMode::CpeOnly] {
        let run = |num_shards: usize| {
            let mut platform = Platform::from_dataset(&dataset, 13).unwrap();
            CrossDomainSelector::new(fast_config(num_shards).with_mode(mode))
                .run(&mut platform, 7)
                .unwrap()
        };
        let reference = run(1);
        for num_shards in [1usize, 3, 16] {
            let report = run(num_shards);
            assert_eq!(
                report.outcome.selected, reference.outcome.selected,
                "{mode:?} with {num_shards} shards"
            );
            assert_eq!(
                report.outcome.scores, reference.outcome.scores,
                "{mode:?} with {num_shards} shards"
            );
            assert_eq!(
                report.rounds, reference.rounds,
                "{mode:?} with {num_shards} shards"
            );
        }
    }
}

#[test]
fn end_to_end_evaluation_is_identical_for_every_shard_count() {
    // evaluate_strategy covers the remaining seam: the post-selection working
    // evaluation on the same platform the selector drove.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let evaluate = |num_shards: usize| {
        let selector = CrossDomainSelector::new(fast_config(num_shards));
        evaluate_strategy(&dataset, &selector, 42).unwrap()
    };
    let reference = evaluate(1);
    for num_shards in SHARD_COUNTS {
        let result = evaluate(num_shards);
        assert_eq!(result.selected, reference.selected, "{num_shards} shards");
        assert_eq!(
            result.working_accuracy, reference.working_accuracy,
            "{num_shards} shards"
        );
        assert_eq!(result.expected_accuracy, reference.expected_accuracy);
        assert_eq!(result.budget_spent, reference.budget_spent);
    }
}

#[test]
fn blocked_cpe_sweep_pool_is_identical_for_every_shard_count() {
    // S-4 scaled to 3000 workers: the first rounds' CPE updates span several
    // E-step sweep blocks, which fan out over the machine's threads on every
    // shard count. Selections and score bits were recorded from the EM fit
    // (its blocked sweep is bit-identical for every thread count) and the
    // scan-and-Newton alpha fit.
    let mut config = DatasetConfig::s4();
    config.pool_size = 3000;
    let dataset = generate(&config).unwrap();
    let run = |num_shards: usize| {
        let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
        CrossDomainSelector::new(fast_config(num_shards))
            .run(&mut platform, 5)
            .unwrap()
    };
    let reference = run(1);
    assert_eq!(reference.outcome.selected, vec![2116, 15, 389, 1934, 1096]);
    let score_bits: Vec<u64> = reference
        .outcome
        .scores
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(
        score_bits,
        vec![
            0x3fefffb5c4187dbc,
            0x3fefff9f502a3af4,
            0x3feffea6140e81ab,
            0x3feffe33df14283e,
            0x3feffe05b5fcd113,
        ]
    );
    for num_shards in [3usize, 16] {
        let report = run(num_shards);
        assert_eq!(report.outcome, reference.outcome, "{num_shards} shards");
        assert_eq!(report.rounds, reference.rounds, "{num_shards} shards");
    }
}

#[test]
fn update_predictions_equal_sharded_predictions_for_every_shard_count() {
    // S-4 scaled to 3000 workers: the update's E-steps span several sweep
    // blocks.
    let mut config = DatasetConfig::s4();
    config.pool_size = 3000;
    let dataset = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
    let ids = platform.worker_ids();
    let record = platform.assign_learning_batch(&ids, 6).unwrap();
    let profiles: Vec<&HistoricalProfile> = record
        .sheets
        .iter()
        .map(|s| platform.profile(s.worker).unwrap())
        .collect();
    let observations: Vec<CpeObservation> = record
        .sheets
        .iter()
        .zip(&profiles)
        .map(|(sheet, profile)| {
            CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
        })
        .collect();
    let cpe = CpeConfig {
        epochs: 5,
        ..CpeConfig::default()
    };
    let mut estimator = CrossDomainEstimator::from_profiles(&profiles, cpe).unwrap();
    let predictions = estimator.update(&observations).unwrap();
    for num_shards in [1usize, 3, 16] {
        let shards = WorkerShards::by_count(observations.len(), num_shards);
        assert_eq!(
            estimator
                .predict_batch_sharded(&observations, &shards)
                .unwrap(),
            predictions,
            "{num_shards} shards"
        );
    }
}

#[test]
fn default_config_remains_the_sequential_single_shard_layout() {
    let config = SelectorConfig::default();
    assert_eq!(config.num_shards, 1);
    // A zero knob is clamped at use, never an error.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 3).unwrap();
    let selector = CrossDomainSelector::new(fast_config(0));
    let outcome = selector.select(&mut platform, 7).unwrap();
    assert_eq!(outcome.selected.len(), 7);
}

#[test]
fn an_unbounded_shard_count_is_a_layout_not_a_thread_count() {
    // The count is clamped to the pool before a layout is built, and the
    // fan-out never starts more threads than the machine has, so even
    // `usize::MAX` selects exactly what the sequential layout selects.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let run = |num_shards: usize| {
        let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
        CrossDomainSelector::new(fast_config(num_shards))
            .run(&mut platform, 7)
            .unwrap()
    };
    let reference = run(1);
    let report = run(usize::MAX);
    assert_eq!(report.outcome.selected, reference.outcome.selected);
    assert_eq!(report.outcome.scores, reference.outcome.scores);
    assert_eq!(report.rounds, reference.rounds);
}
