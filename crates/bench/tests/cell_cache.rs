//! Resumable-sweep behaviour of the per-cell evaluation cache: a cold sweep
//! evaluates and persists every cell, a warm re-run answers **all** of them
//! from disk (zero re-evaluated cells) with bit-for-bit identical results, and
//! any change to a cell's identity is a miss.

use c4u_bench::{
    cache, evaluate_cell, evaluate_cells_resumable, sweep_schedule, CellSpec, StrategyKind,
    SweepStats,
};
use c4u_crowd_sim::DatasetConfig;
use std::path::PathBuf;

/// A fresh per-test cache directory (removed up-front so reruns start cold).
fn cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("c4u-cell-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_specs() -> Vec<CellSpec> {
    let mut config = DatasetConfig::rw1();
    config.pool_size = 10;
    config.select_k = 3;
    [
        StrategyKind::UniformSampling,
        StrategyKind::MedianElimination,
    ]
    .iter()
    .map(|&s| CellSpec::standard(config.clone(), s, 2, vec![5, 6]))
    .collect()
}

#[test]
fn warm_rerun_re_evaluates_zero_cells_and_matches_bit_for_bit() {
    let dir = cache_dir("warm");
    let specs = small_specs();

    let (cold_cells, cold_stats) = evaluate_cells_resumable(&specs, Some(&dir));
    assert_eq!(
        cold_stats,
        SweepStats {
            hits: 0,
            misses: specs.len()
        }
    );
    // One cache file per cell landed on disk.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), specs.len());

    let (warm_cells, warm_stats) = evaluate_cells_resumable(&specs, Some(&dir));
    assert_eq!(
        warm_stats,
        SweepStats {
            hits: specs.len(),
            misses: 0
        }
    );
    // The f64s round-trip through the JSON files exactly.
    assert_eq!(warm_cells, cold_cells);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_sweeps_resume_where_they_stopped() {
    let dir = cache_dir("resume");
    let specs = small_specs();

    // "Interrupted" run: only the first cell finished and was persisted.
    let (_, stats) = evaluate_cells_resumable(&specs[..1], Some(&dir));
    assert_eq!(stats, SweepStats { hits: 0, misses: 1 });

    // The resumed full sweep re-evaluates only the missing cell.
    let (cells, stats) = evaluate_cells_resumable(&specs, Some(&dir));
    assert_eq!(stats, SweepStats { hits: 1, misses: 1 });
    assert_eq!(cells.len(), specs.len());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn identity_changes_are_misses() {
    let dir = cache_dir("identity");
    let specs = small_specs();
    evaluate_cells_resumable(&specs, Some(&dir));

    // A different answering-noise seed is a different cell.
    let mut reseeded = small_specs();
    for spec in &mut reseeded {
        spec.seeds = vec![7];
    }
    let (_, stats) = evaluate_cells_resumable(&reseeded, Some(&dir));
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, reseeded.len());

    // So is a different dataset generation seed.
    let mut regenerated = small_specs();
    for spec in &mut regenerated {
        spec.config = spec.config.with_seed(spec.config.seed.wrapping_add(1));
    }
    let (_, stats) = evaluate_cells_resumable(&regenerated, Some(&dir));
    assert_eq!(stats.hits, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn without_a_cache_directory_nothing_is_persisted() {
    let specs = small_specs();
    let (cells, stats) = evaluate_cells_resumable(&specs, None);
    assert_eq!(
        stats,
        SweepStats {
            hits: 0,
            misses: specs.len()
        }
    );
    assert_eq!(cells.len(), specs.len());
    // Twice in a row: still all misses (no hidden process-level memo).
    let (_, stats) = evaluate_cells_resumable(&specs, None);
    assert_eq!(stats.hits, 0);
}

#[test]
fn corrupted_cache_files_degrade_to_misses() {
    let dir = cache_dir("corrupt");
    let specs = small_specs();
    let (cold_cells, _) = evaluate_cells_resumable(&specs, Some(&dir));

    // Truncate every cached file; the sweep must silently re-evaluate.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, "{\"version\": 1").unwrap();
    }
    let (cells, stats) = evaluate_cells_resumable(&specs, Some(&dir));
    assert_eq!(
        stats,
        SweepStats {
            hits: 0,
            misses: specs.len()
        }
    );
    assert_eq!(cells, cold_cells);

    // The re-evaluation healed the cache.
    let (_, stats) = evaluate_cells_resumable(&specs, Some(&dir));
    assert_eq!(
        stats,
        SweepStats {
            hits: specs.len(),
            misses: 0
        }
    );

    std::fs::remove_dir_all(&dir).unwrap();
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
    let order = sweep_schedule(&specs, (0..specs.len()).collect());
    assert_eq!(order, vec![1, 4, 3, 5, 0, 2]);
    // A partial miss list keeps its members and the same discipline.
    let order = sweep_schedule(&specs, vec![0, 2, 3]);
    assert_eq!(order, vec![3, 0, 2]);
    // Ranks are ordered as documented: full method > ensemble > ablation >
    // single-model stages > baselines.
    assert!(StrategyKind::Ours.cost_rank() > StrategyKind::CpeBktEnsemble.cost_rank());
    assert!(StrategyKind::CpeBktEnsemble.cost_rank() > StrategyKind::MeCpe.cost_rank());
    assert!(StrategyKind::MeCpe.cost_rank() > StrategyKind::LiEtAl.cost_rank());
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
    ]
    .iter()
    .map(|&s| CellSpec::standard(config.clone(), s, 2, vec![5, 6]))
    .collect();
    let sequential: Vec<_> = specs.iter().map(evaluate_cell).collect();
    let (scheduled, stats) = evaluate_cells_resumable(&specs, None);
    assert_eq!(scheduled, sequential);
    assert_eq!(
        stats,
        SweepStats {
            hits: 0,
            misses: specs.len()
        }
    );
}

#[test]
fn cache_key_excludes_execution_layout_knobs() {
    // The shard count changes nothing observable, so it must not fragment the
    // cache key (the same cell warms the cache for every shard count).
    let spec = &small_specs()[0];
    let key = cache::cell_key(spec);
    assert!(!key.contains("shard"));
    assert!(key.contains("strategy=US"));
    assert!(key.contains("seeds=5,6"));
}
