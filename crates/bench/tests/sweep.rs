//! The sweep harness's one evaluation path: `evaluate_cells` schedules the
//! costly cells first without changing its output, and a stage-pipeline cell
//! runs exactly the campaign the Sec. V-C protocol describes: the open-world loop
//! with the preset's churn schedule on a churn scenario, and the
//! `WorkerSelector` seam's closed-world run everywhere else.

use c4u_bench::{
    cached_generate, evaluate_cell, evaluate_cells, sweep_schedule, Cell, CellSpec, StrategyKind,
};
use c4u_crowd_sim::{CampaignSchedule, DatasetConfig, Platform};
use c4u_selection::{evaluate_strategy_with_k, rounds_until_at_most};

const SEEDS: [u64; 2] = [5, 6];

/// The cell the hand-written loops below expect.
fn cell_of(config: &DatasetConfig, kind: StrategyKind, accuracies: &[f64]) -> Cell {
    Cell {
        dataset: config.name.clone(),
        strategy: kind.name().to_string(),
        mean_accuracy: c4u_stats::mean(accuracies),
        std_accuracy: c4u_stats::std_dev(accuracies),
    }
}

#[test]
fn sweep_schedule_starts_expensive_strategies_first() {
    // A mixed line-up: the scheduler must start the costly CPE-backed cells
    // before the near-free baselines, breaking rank ties by spec index.
    let mut config = DatasetConfig::rw1();
    config.pool_size = 10;
    config.select_k = 3;
    let specs: Vec<CellSpec> = [
        StrategyKind::UniformSampling,   // rank 0
        StrategyKind::Ours,              // rank 5
        StrategyKind::MedianElimination, // rank 0
        StrategyKind::MeCpe,             // rank 3
        StrategyKind::Ours,              // rank 5
        StrategyKind::LiEtAl,            // rank 1
    ]
    .iter()
    .map(|&s| CellSpec::standard(config.clone(), s, 2, vec![5]))
    .collect();
    assert_eq!(sweep_schedule(&specs), vec![1, 4, 3, 5, 0, 2]);
    // Ranks are ordered as documented: full method > CPE ablation > LGE
    // ablation > regression baseline > the near-free baselines.
    assert!(StrategyKind::Ours.cost_rank() > StrategyKind::MeCpe.cost_rank());
    assert!(StrategyKind::MeCpe.cost_rank() > StrategyKind::LgeOnly.cost_rank());
    assert!(StrategyKind::LgeOnly.cost_rank() > StrategyKind::LiEtAl.cost_rank());
    assert!(StrategyKind::LiEtAl.cost_rank() > StrategyKind::UniformSampling.cost_rank());
}

#[test]
fn scheduling_is_invisible_in_the_output() {
    // The LPT fan-out changes job start order, never the result: cells come
    // back in spec order, bit-for-bit equal to sequential evaluation.
    let mut config = DatasetConfig::rw1();
    config.pool_size = 10;
    config.select_k = 3;
    let specs: Vec<CellSpec> = [
        StrategyKind::UniformSampling,
        StrategyKind::LiEtAl,
        StrategyKind::MedianElimination,
        StrategyKind::GroundTruth,
        StrategyKind::MeCpe,
    ]
    .iter()
    .map(|&s| CellSpec::standard(config.clone(), s, 2, SEEDS.to_vec()))
    .collect();
    let sequential: Vec<Cell> = specs.iter().map(evaluate_cell).collect();
    assert_eq!(evaluate_cells(&specs), sequential);
}

#[test]
fn zoo_cells_on_a_churn_scenario_replay_its_schedule() {
    let config = DatasetConfig::robustness_scenarios()
        .into_iter()
        .find(|config| config.name == "RW-1-churn")
        .unwrap();
    let dataset = cached_generate(&config).unwrap();
    let k = config.select_k;
    let schedule =
        CampaignSchedule::churn(&config, rounds_until_at_most(config.pool_size, k)).unwrap();
    assert!(
        !schedule.is_empty(),
        "the churn preset must schedule events"
    );
    for kind in [StrategyKind::Ours, StrategyKind::LgeOnly] {
        let selector = kind.zoo_selector(2, 0.5).unwrap();
        let accuracies: Vec<f64> = SEEDS
            .iter()
            .map(|&seed| {
                let mut platform = Platform::from_dataset(&dataset, seed).unwrap();
                let report = selector
                    .run_with_events(&mut platform, k, &schedule)
                    .unwrap();
                platform
                    .evaluate_working_accuracy(&report.outcome.selected)
                    .unwrap()
            })
            .collect();
        let spec = CellSpec::standard(config.clone(), kind, 2, SEEDS.to_vec());
        assert_eq!(
            evaluate_cell(&spec),
            cell_of(&config, kind, &accuracies),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn zoo_cells_on_a_closed_world_config_match_the_selector_seam() {
    let config = DatasetConfig::rw1();
    let dataset = cached_generate(&config).unwrap();
    for kind in [StrategyKind::Ours, StrategyKind::MeCpe] {
        let strategy = kind.build(2, 0.5);
        let accuracies: Vec<f64> = SEEDS
            .iter()
            .map(|&seed| {
                evaluate_strategy_with_k(&dataset, strategy.as_ref(), config.select_k, seed)
                    .unwrap()
                    .working_accuracy
            })
            .collect();
        let spec = CellSpec::standard(config.clone(), kind, 2, SEEDS.to_vec());
        assert_eq!(
            evaluate_cell(&spec),
            cell_of(&config, kind, &accuracies),
            "{}",
            kind.name()
        );
    }
}
