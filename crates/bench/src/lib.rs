//! # c4u-bench
//!
//! Experiment harness for the C4U reproduction: shared machinery used by the bench
//! targets that regenerate every table and figure of the paper's evaluation
//! (Tables II–V, Figures 5–7, and the Sec. V-H correlation discussion).
//!
//! Each bench target (`cargo bench -p c4u-bench --bench <name>`) prints the rows or
//! series the corresponding table/figure reports; where the reproduction departs
//! from the paper, the "Substitutions" section of ARCHITECTURE.md says how.
//!
//! The harness honours a few environment variables so that quick smoke runs and
//! full paper-fidelity runs use the same code. All of them are declared in the
//! [`env`](mod@env) knob registry — [`env::render_knob_table`] prints the full
//! table, and unknown `C4U_*` names warn on the first read instead of being
//! silently ignored:
//!
//! * `C4U_CPE_EPOCHS` — cap on the EM epochs per CPE round (default 10; the
//!   paper's `G` is 50). The fit usually converges in fewer, so a higher cap
//!   costs little;
//! * `C4U_TRIALS` — number of answering-noise seeds averaged per cell (default 2);
//! * `C4U_QUAD_WORKERS` / `C4U_QUAD_NODES` / `C4U_QUAD_SAMPLES` — the
//!   `quadrature` bench's sweep cells and sample count;
//! * `C4U_QUAD_MATH` — the quadrature sweep math mode: `exact` (bit-identical
//!   to the scalar oracle), `fast_vector` (the worker-major polynomial-`exp`
//!   sweep, the library default and so the table/figure benches' default),
//!   or `both` (the `quadrature` bench's default, timing the two modes side
//!   by side).
//!
//! Dataset generation is memoised process-wide ([`cached_generate`]): sweep
//! cells sharing a configuration share one generated dataset, so a table that
//! evaluates six strategies on one dataset generates it once, not six times.
//!
//! Every table and figure bench evaluates its cells through one path:
//! [`evaluate_cells`] fans [`CellSpec`]s out over threads, and
//! [`evaluate_cell_on`] runs one cell with the Sec. V-C protocol.

#![forbid(unsafe_code)]

pub mod env;

use c4u_crowd_sim::parallel::{available_threads, run_indexed_jobs};
use c4u_crowd_sim::{generate, CampaignSchedule, Dataset, DatasetConfig, Platform, SimError};
use c4u_selection::{
    evaluate_strategy_with_k, rounds_until_at_most, CrossDomainSelector, EstimationMode,
    GroundTruthOracle, LiEtAl, MedianEliminationBaseline, QuadratureMath, SelectionError,
    SelectorConfig, UniformSampling, WorkerSelector,
};
use env::{C4uEnv, QuadMathKnob};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, OnceLock};

/// Base answering-noise seed; trial `i` uses `BASE_SEED + 1000 * i`.
pub const BASE_SEED: u64 = 20_240_610;

/// Reads `C4U_CPE_EPOCHS` (default [`env::DEFAULT_CPE_EPOCHS`]) via the
/// [`env`](mod@env) knob registry.
pub fn cpe_epochs() -> usize {
    C4uEnv::from_env().cpe_epochs
}

/// Reads `C4U_TRIALS` (default [`env::DEFAULT_TRIALS`]).
pub fn trials() -> usize {
    C4uEnv::from_env().trials
}

/// Reads `C4U_QUAD_MATH` as a single sweep math mode for the table/figure
/// benches: `exact` or `fast_vector` selects that mode, and anything else —
/// unset, or `both`, which only the roofline bench distinguishes — is the
/// library default ([`QuadratureMath::default`]), so the tables report what
/// the library computes.
pub fn quad_math() -> QuadratureMath {
    match C4uEnv::from_env().quad_math {
        QuadMathKnob::Exact => QuadratureMath::Exact,
        QuadMathKnob::FastVector => QuadratureMath::FastVector,
        _ => QuadratureMath::default(),
    }
}

/// Reads `C4U_QUAD_MATH` as the list of modes the `quadrature` roofline bench
/// sweeps: `exact` or `fast_vector` narrow it to one mode, everything else
/// (including the default) times `both` side by side.
pub fn quad_math_modes() -> Vec<QuadratureMath> {
    match C4uEnv::from_env().quad_math {
        QuadMathKnob::Exact => vec![QuadratureMath::Exact],
        QuadMathKnob::FastVector => vec![QuadratureMath::FastVector],
        _ => vec![QuadratureMath::Exact, QuadratureMath::FastVector],
    }
}

/// The answering-noise seeds used for a given number of trials.
pub fn trial_seeds(trials: usize) -> Vec<u64> {
    (0..trials as u64).map(|i| BASE_SEED + 1000 * i).collect()
}

/// The strategy line-up of Table V, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uniform Sampling.
    UniformSampling,
    /// Plain Median Elimination.
    MedianElimination,
    /// Li et al. linear regression on profiles.
    LiEtAl,
    /// ME + CPE (ablation without LGE).
    MeCpe,
    /// The full method (CPE + LGE + ME).
    Ours,
    /// Ground-truth oracle.
    GroundTruth,
    /// LGE driven by raw observed sheet accuracies (no CPE model).
    LgeOnly,
}

impl StrategyKind {
    /// All strategies in Table V row order.
    pub fn all() -> Vec<StrategyKind> {
        vec![
            StrategyKind::UniformSampling,
            StrategyKind::MedianElimination,
            StrategyKind::LiEtAl,
            StrategyKind::MeCpe,
            StrategyKind::Ours,
            StrategyKind::GroundTruth,
        ]
    }

    /// Every [`StagePipeline`]-backed estimation pipeline: the full method and
    /// its two ablations (the `examples/stage_ablation.rs` and `robustness`
    /// line-up).
    ///
    /// [`StagePipeline`]: c4u_selection::StagePipeline
    pub fn stage_pipelines() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Ours,
            StrategyKind::MeCpe,
            StrategyKind::LgeOnly,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::UniformSampling => "US",
            StrategyKind::MedianElimination => "ME",
            StrategyKind::LiEtAl => "Li et al.",
            StrategyKind::MeCpe => "ME-CPE",
            StrategyKind::Ours => "Ours",
            StrategyKind::GroundTruth => "Ground Truth",
            StrategyKind::LgeOnly => "LGE-only",
        }
    }

    /// Relative evaluation cost of the strategy (higher = more expensive),
    /// used by [`sweep_schedule`] to start the slowest cells first. The ranks
    /// order the per-round work: a full CPE EM fit dominates everything, the
    /// LGE fits on raw accuracies cost a fraction of it, and the non-learning
    /// baselines are near-free.
    pub fn cost_rank(self) -> u8 {
        match self {
            StrategyKind::Ours => 5,
            StrategyKind::MeCpe => 3,
            StrategyKind::LgeOnly => 2,
            StrategyKind::LiEtAl => 1,
            StrategyKind::UniformSampling
            | StrategyKind::MedianElimination
            | StrategyKind::GroundTruth => 0,
        }
    }

    /// Builds the selector with the given CPE epoch budget and initial target
    /// accuracy `a_T`.
    pub fn build(&self, epochs: usize, initial_target_accuracy: f64) -> Box<dyn WorkerSelector> {
        if let Some(selector) = self.zoo_selector(epochs, initial_target_accuracy) {
            return Box::new(selector);
        }
        match self {
            StrategyKind::UniformSampling => Box::new(UniformSampling::new()),
            StrategyKind::MedianElimination => Box::new(MedianEliminationBaseline::new()),
            StrategyKind::LiEtAl => Box::new(LiEtAl::new()),
            StrategyKind::GroundTruth => Box::new(GroundTruthOracle::new()),
            // zoo_selector covered every stage-pipeline kind above.
            _ => unreachable!("stage-pipeline kinds are built by zoo_selector"),
        }
    }

    /// Builds the concrete [`CrossDomainSelector`] for a stage-pipeline kind, or
    /// `None` for the non-pipeline baselines (US, ME, Li et al., oracle).
    ///
    /// [`evaluate_cell_on`] needs the concrete type: an open-world (churn)
    /// campaign runs through [`CrossDomainSelector::run_with_events`], which
    /// the type-erased [`WorkerSelector`] seam deliberately does not expose.
    pub fn zoo_selector(
        &self,
        epochs: usize,
        initial_target_accuracy: f64,
    ) -> Option<CrossDomainSelector> {
        let mut config = SelectorConfig::default();
        config.cpe.epochs = epochs;
        config.cpe.initial_target_accuracy = initial_target_accuracy;
        config.cpe.quadrature_math = quad_math();
        Some(match self {
            StrategyKind::MeCpe => CrossDomainSelector::new(config.cpe_only()),
            StrategyKind::Ours => CrossDomainSelector::new(config),
            StrategyKind::LgeOnly => {
                CrossDomainSelector::new(config.with_mode(EstimationMode::LgeOnly))
            }
            StrategyKind::UniformSampling
            | StrategyKind::MedianElimination
            | StrategyKind::LiEtAl
            | StrategyKind::GroundTruth => return None,
        })
    }
}

/// One experiment cell: a strategy evaluated on a dataset configuration, averaged
/// over answering-noise seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Dataset name.
    pub dataset: String,
    /// Strategy name.
    pub strategy: String,
    /// Mean working-task accuracy of the selected workers.
    pub mean_accuracy: f64,
    /// Standard deviation across trials.
    pub std_accuracy: f64,
}

/// Parameters of one experiment cell evaluation.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Dataset configuration to generate.
    pub config: DatasetConfig,
    /// Strategy to run.
    pub strategy: StrategyKind,
    /// Number of workers to select (usually `config.select_k`, overridden by the
    /// Figure 6 sweep).
    pub k: usize,
    /// CPE epochs.
    pub epochs: usize,
    /// Initial target-domain accuracy `a_T` (Figure 5 sweep).
    pub initial_target_accuracy: f64,
    /// Answering-noise seeds to average over.
    pub seeds: Vec<u64>,
}

impl CellSpec {
    /// A cell with the dataset's default `k` and `a_T = 0.5`.
    pub fn standard(
        config: DatasetConfig,
        strategy: StrategyKind,
        epochs: usize,
        seeds: Vec<u64>,
    ) -> Self {
        let k = config.select_k;
        Self {
            config,
            strategy,
            k,
            epochs,
            initial_target_accuracy: 0.5,
            seeds,
        }
    }
}

/// One memo slot per configuration: same-config threads serialise on the slot
/// (the first generates, the rest wait and share), while distinct
/// configurations generate concurrently.
type DatasetSlot = Arc<Mutex<Option<Arc<Dataset>>>>;

/// Process-wide dataset memo: one generated [`Dataset`] per distinct
/// [`DatasetConfig`], shared across sweep cells and worker threads. A
/// `BTreeMap` so every walk over the memo observes sorted-key order
/// (`hashmap-iter-order` invariant).
fn dataset_cache() -> &'static Mutex<BTreeMap<String, DatasetSlot>> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, DatasetSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Stable memo key for a dataset configuration.
///
/// `DatasetConfig` carries floats, so it cannot implement `Hash`/`Eq` itself;
/// its `Debug` rendering covers every field (including the generation seed) and
/// is deterministic, which is all a cache key needs.
fn config_key(config: &DatasetConfig) -> String {
    format!("{config:?}")
}

/// Memoised [`generate`]: repeated sweep cells with the same configuration
/// share one generated dataset instead of regenerating it per cell.
///
/// Sound because generation is deterministic in `config.seed` (the same
/// configuration always yields the same dataset) and evaluation never mutates
/// the dataset — every trial builds its own `Platform` on top. The memo lives
/// for the process, which matches the bench targets' lifetime.
pub fn cached_generate(config: &DatasetConfig) -> Result<Arc<Dataset>, SimError> {
    // Two-level locking: the map lock is held only long enough to fetch or
    // insert the per-key slot, and generation happens under the slot lock —
    // so concurrent same-config cells generate once and wait for it, while
    // distinct configs generate in parallel.
    let slot = {
        let mut cache = dataset_cache().lock().expect("dataset cache lock");
        Arc::clone(cache.entry(config_key(config)).or_default())
    };
    let mut guard = slot.lock().expect("dataset slot lock");
    if let Some(hit) = guard.as_ref() {
        return Ok(Arc::clone(hit));
    }
    // On error the slot stays empty, so a later call simply retries.
    let dataset = Arc::new(generate(config)?);
    *guard = Some(Arc::clone(&dataset));
    Ok(dataset)
}

/// Evaluates one cell on an already-generated dataset, with the Sec. V-C
/// protocol: every answering-noise seed runs the strategy on its own fresh
/// [`Platform`], and the cell averages the working accuracy of the selected
/// workers over the seeds.
///
/// A stage-pipeline strategy ([`StrategyKind::zoo_selector`]) runs through
/// [`CrossDomainSelector::run_with_events`] with the configuration's churn
/// schedule ([`CampaignSchedule::churn`]). That schedule is empty unless the
/// scenario has churn, and an empty schedule is exactly the closed-world
/// [`CrossDomainSelector::run`]. The schedule depends only on the dataset
/// seed, so a churn cell stays reproducible and shard-invariant
/// (`tests/churn_determinism.rs`). The baselines select through the
/// [`WorkerSelector`] seam ([`evaluate_strategy_with_k`]).
///
/// A failed trial is reported on stderr and left out of the mean. A cell with
/// no successful trial has a `NaN` mean and standard deviation, which the
/// tables print as `-`.
pub fn evaluate_cell_on(dataset: &Dataset, spec: &CellSpec) -> Cell {
    let warn = |err: SelectionError| {
        eprintln!(
            "warning: {} on {} (k = {}) failed: {err}",
            spec.strategy.name(),
            spec.config.name,
            spec.k
        );
    };
    let accuracies: Vec<f64> = match trial_runner(dataset, spec) {
        Ok(trial) => spec
            .seeds
            .iter()
            .filter_map(|&seed| trial(seed).map_err(warn).ok())
            .collect(),
        Err(err) => {
            warn(err);
            Vec::new()
        }
    };
    summarise(spec, &accuracies)
}

/// One trial of a cell: the working accuracy its strategy reaches under one
/// answering-noise seed.
type Trial<'a> = Box<dyn Fn(u64) -> Result<f64, SelectionError> + 'a>;

/// Builds the cell's strategy (and, for a stage-pipeline kind, its campaign
/// schedule) once, and returns the per-seed trial.
fn trial_runner<'a>(dataset: &'a Dataset, spec: &'a CellSpec) -> Result<Trial<'a>, SelectionError> {
    let Some(selector) = spec
        .strategy
        .zoo_selector(spec.epochs, spec.initial_target_accuracy)
    else {
        let strategy = spec
            .strategy
            .build(spec.epochs, spec.initial_target_accuracy);
        return Ok(Box::new(move |seed| {
            Ok(
                evaluate_strategy_with_k(dataset, strategy.as_ref(), spec.k, seed)?
                    .working_accuracy,
            )
        }));
    };
    let rounds = rounds_until_at_most(spec.config.pool_size, spec.k);
    let schedule = CampaignSchedule::churn(&spec.config, rounds)?;
    Ok(Box::new(move |seed| {
        let mut platform = Platform::from_dataset(dataset, seed)?;
        let report = selector.run_with_events(&mut platform, spec.k, &schedule)?;
        Ok(platform.evaluate_working_accuracy(&report.outcome.selected)?)
    }))
}

/// The cell of `spec` over the accuracies of its successful trials; `NaN`
/// when there are none.
fn summarise(spec: &CellSpec, accuracies: &[f64]) -> Cell {
    let (mean_accuracy, std_accuracy) = if accuracies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (c4u_stats::mean(accuracies), c4u_stats::std_dev(accuracies))
    };
    Cell {
        dataset: spec.config.name.clone(),
        strategy: spec.strategy.name().to_string(),
        mean_accuracy,
        std_accuracy,
    }
}

/// Evaluates one cell, generating (or reusing a memoised copy of) the dataset
/// from its configuration first. A generation failure is reported on stderr
/// and yields a `NaN` cell.
pub fn evaluate_cell(spec: &CellSpec) -> Cell {
    match cached_generate(&spec.config) {
        Ok(dataset) => evaluate_cell_on(&dataset, spec),
        Err(err) => {
            eprintln!("warning: generating {} failed: {err}", spec.config.name);
            summarise(spec, &[])
        }
    }
}

/// Evaluates a batch of cells, spreading independent cells over worker threads.
///
/// Cells are independent (each generates its own dataset and platforms), so they
/// are fanned out through the workspace's shared scoped-thread work queue
/// ([`run_indexed_jobs`]) in [`sweep_schedule`] order: expensive strategies
/// start first, so the slowest cell is never the last job started on an
/// otherwise idle pool. The scheduling is invisible in the output: cells come
/// back in spec order, identical to a sequential evaluation.
pub fn evaluate_cells(specs: &[CellSpec]) -> Vec<Cell> {
    let order = sweep_schedule(specs);
    let result: Result<Vec<(usize, Cell)>, Infallible> =
        run_indexed_jobs(available_threads(), order.len(), |job| {
            let index = order[job];
            Ok((index, evaluate_cell(&specs[index])))
        });
    let Ok(mut evaluated) = result;
    evaluated.sort_by_key(|&(index, _)| index);
    evaluated.into_iter().map(|(_, cell)| cell).collect()
}

/// Orders a sweep's spec indices for the work queue: most expensive
/// strategy first ([`StrategyKind::cost_rank`]), original spec index as the
/// stable tie-break. Longest-processing-time-first keeps the pool busy: the
/// costly `Ours`/ensemble cells start while the trivial baselines fill the
/// gaps, instead of a full CPE run starting last on an idle pool.
pub fn sweep_schedule(specs: &[CellSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&index| (std::cmp::Reverse(specs[index].strategy.cost_rank()), index));
    order
}

/// One accuracy column of a table, right-aligned in `width` characters after
/// a separating space: the mean to three decimals, or `-` when it is not
/// finite (a cell with no successful trial, or one [`lookup`] did not find).
pub fn accuracy_column(mean_accuracy: f64, width: usize) -> String {
    if mean_accuracy.is_finite() {
        format!(" {mean_accuracy:>width$.3}")
    } else {
        format!(" {:>width$}", "-")
    }
}

/// One uplift column of a table, right-aligned in `width` characters after a
/// separating space: [`uplift`] in percent to one decimal, or `-` when either
/// accuracy is not finite.
pub fn uplift_column(ours: f64, baseline: f64, width: usize) -> String {
    if ours.is_finite() && baseline.is_finite() {
        format!(
            " {:>digits$.1}%",
            uplift(ours, baseline),
            digits = width.saturating_sub(1)
        )
    } else {
        format!(" {:>width$}", "-")
    }
}

/// Formats a dataset-by-strategy accuracy table (rows = strategies, columns =
/// datasets), matching the layout of Table V. A missing cell, or one whose
/// mean is not finite, prints as `-`.
pub fn format_accuracy_table(datasets: &[String], strategies: &[String], cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "strategy"));
    for d in datasets {
        out.push_str(&format!(" {:>10}", d));
    }
    out.push('\n');
    for s in strategies {
        out.push_str(&format!("{s:<14}"));
        for d in datasets {
            let cell = cells.iter().find(|c| &c.strategy == s && &c.dataset == d);
            out.push_str(&accuracy_column(
                cell.map_or(f64::NAN, |c| c.mean_accuracy),
                10,
            ));
        }
        out.push('\n');
    }
    out
}

/// Looks up a cell's mean accuracy in a result set; `NaN` when no cell
/// matches, so an absent cell prints as `-` like a failed one.
pub fn lookup(cells: &[Cell], dataset: &str, strategy: &str) -> f64 {
    cells
        .iter()
        .find(|c| c.dataset == dataset && c.strategy == strategy)
        .map_or(f64::NAN, |c| c.mean_accuracy)
}

/// Relative improvement (percent) of `ours` over `baseline`.
pub fn uplift(ours: f64, baseline: f64) -> f64 {
    c4u_selection::relative_improvement(ours, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::*;

    #[test]
    fn environment_defaults() {
        assert!(cpe_epochs() >= 1);
        assert!(trials() >= 1);
        assert_eq!(trial_seeds(3).len(), 3);
        assert_ne!(trial_seeds(2)[0], trial_seeds(2)[1]);
        if std::env::var("C4U_QUAD_MATH").is_err() {
            // Table/figure benches default to the library's mode; the
            // roofline bench times both.
            assert_eq!(quad_math(), QuadratureMath::default());
            assert_eq!(
                quad_math_modes(),
                vec![QuadratureMath::Exact, QuadratureMath::FastVector]
            );
        }
    }

    #[test]
    fn strategy_lineup_matches_table_v() {
        let all = StrategyKind::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name(), "US");
        assert_eq!(all[4].name(), "Ours");
        for kind in all {
            let strategy = kind.build(3, 0.5);
            assert_eq!(strategy.name(), kind.name());
        }
    }

    #[test]
    fn stage_pipeline_lineup_covers_the_zoo() {
        let zoo = StrategyKind::stage_pipelines();
        assert_eq!(zoo.len(), 3);
        let names: Vec<&str> = zoo.iter().map(StrategyKind::name).collect();
        assert_eq!(names, vec!["Ours", "ME-CPE", "LGE-only"]);
        for kind in zoo {
            let strategy = kind.build(2, 0.5);
            assert_eq!(strategy.name(), kind.name());
        }
    }

    #[test]
    fn cached_generate_shares_datasets_per_config() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 9;
        config.select_k = 2;
        let a = cached_generate(&config).unwrap();
        let b = cached_generate(&config).unwrap();
        // Same configuration -> literally the same dataset allocation.
        assert!(Arc::ptr_eq(&a, &b));
        // Any configuration change (here: the generation seed) is a different key.
        let c = cached_generate(&config.with_seed(config.seed.wrapping_add(1))).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(config_key(&config), config_key(&config.with_seed(1)));
    }

    #[test]
    fn concurrent_cached_generate_shares_one_dataset() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 8;
        config.select_k = 2;
        let config = config.with_seed(777);
        let datasets: Vec<Arc<Dataset>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cached_generate(&config).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Cold-cache race included: every thread gets the same allocation.
        for dataset in &datasets[1..] {
            assert!(Arc::ptr_eq(&datasets[0], dataset));
        }
    }

    #[test]
    fn cell_evaluation_produces_bounded_accuracy() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 12;
        config.select_k = 3;
        let spec = CellSpec::standard(config, StrategyKind::MedianElimination, 2, vec![1, 2]);
        let cell = evaluate_cell(&spec);
        assert_eq!(cell.strategy, "ME");
        assert!((0.0..=1.0).contains(&cell.mean_accuracy));
        assert!(cell.std_accuracy >= 0.0);
    }

    #[test]
    fn a_cell_whose_trials_all_fail_has_a_nan_mean() {
        // k above the pool size fails every trial, for a baseline and for a
        // stage-pipeline strategy alike; the cell must not read as accuracy 0.
        let mut config = DatasetConfig::rw1();
        config.pool_size = 6;
        config.select_k = 2;
        for kind in [StrategyKind::MedianElimination, StrategyKind::Ours] {
            let mut spec = CellSpec::standard(config.clone(), kind, 2, vec![1, 2]);
            spec.k = config.pool_size + 1;
            let cell = evaluate_cell(&spec);
            assert!(cell.mean_accuracy.is_nan(), "{}", kind.name());
            assert!(cell.std_accuracy.is_nan(), "{}", kind.name());
        }
    }

    #[test]
    fn a_cell_whose_dataset_fails_to_generate_has_a_nan_mean() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 0;
        let spec = CellSpec::standard(config, StrategyKind::UniformSampling, 2, vec![1]);
        let cell = evaluate_cell(&spec);
        assert!(cell.mean_accuracy.is_nan() && cell.std_accuracy.is_nan());
        assert_eq!(
            (cell.dataset.as_str(), cell.strategy.as_str()),
            ("RW-1", "US")
        );
    }

    #[test]
    fn tables_print_a_dash_for_a_failed_cell() {
        let failed = Cell {
            dataset: "RW-1".into(),
            strategy: "Ours".into(),
            mean_accuracy: f64::NAN,
            std_accuracy: f64::NAN,
        };
        let table = format_accuracy_table(
            std::slice::from_ref(&failed.dataset),
            std::slice::from_ref(&failed.strategy),
            std::slice::from_ref(&failed),
        );
        assert_eq!(
            table.lines().nth(1),
            Some(format!("{:<14} {:>10}", "Ours", "-").as_str())
        );
        assert!(!table.contains("NaN"), "{table}");
        // The robustness and figure tables print their columns with the same
        // helper, at their own widths.
        assert_eq!(accuracy_column(0.8, 10), format!(" {:>10}", "0.800"));
        assert_eq!(accuracy_column(0.8, 8), format!(" {:>8.3}", 0.8));
        assert_eq!(accuracy_column(0.8, 12), format!(" {:>12.3}", 0.8));
        for mean in [f64::NAN, f64::INFINITY] {
            assert_eq!(accuracy_column(mean, 10), format!(" {:>10}", "-"));
            assert_eq!(accuracy_column(mean, 8), format!(" {:>8}", "-"));
        }
    }

    #[test]
    fn parallel_evaluation_preserves_order() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 10;
        config.select_k = 3;
        let specs: Vec<CellSpec> = [
            StrategyKind::UniformSampling,
            StrategyKind::MedianElimination,
        ]
        .iter()
        .map(|&s| CellSpec::standard(config.clone(), s, 2, vec![7]))
        .collect();
        let cells = evaluate_cells(&specs);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].strategy, "US");
        assert_eq!(cells[1].strategy, "ME");
    }

    #[test]
    fn table_formatting_and_lookup() {
        let cells = vec![
            Cell {
                dataset: "RW-1".into(),
                strategy: "US".into(),
                mean_accuracy: 0.75,
                std_accuracy: 0.01,
            },
            Cell {
                dataset: "RW-1".into(),
                strategy: "Ours".into(),
                mean_accuracy: 0.80,
                std_accuracy: 0.01,
            },
        ];
        let table = format_accuracy_table(
            &["RW-1".to_string()],
            &["US".to_string(), "Ours".to_string(), "Missing".to_string()],
            &cells,
        );
        assert!(table.contains("0.750"));
        assert!(table.contains("0.800"));
        assert!(table.contains('-'));
        assert_eq!(lookup(&cells, "RW-1", "Ours"), 0.80);
        // A missing cell reads as NaN, never as an accuracy of 0.
        let missing = lookup(&cells, "RW-1", "GT");
        assert!(missing.is_nan());
        assert_eq!(accuracy_column(missing, 8), format!(" {:>8}", "-"));
        assert!((uplift(0.8, 0.75) - 6.666).abs() < 0.01);
        // Uplift columns keep the benches' `{:>N.1}%` layout for finite
        // accuracies and print `-` when either side is missing or failed.
        assert_eq!(uplift_column(0.8, 0.75, 8), format!(" {:>7.1}%", 6.666_f64));
        assert_eq!(
            uplift_column(0.8, 0.75, 16),
            format!(" {:>15.1}%", 6.666_f64)
        );
        for (ours, base) in [(0.8, missing), (missing, 0.75), (f64::NAN, f64::NAN)] {
            assert_eq!(uplift_column(ours, base, 8), format!(" {:>8}", "-"));
            assert_eq!(uplift_column(ours, base, 16), format!(" {:>16}", "-"));
        }
    }

    #[test]
    fn sweep_schedule_runs_costly_strategies_first() {
        let config = DatasetConfig::rw1();
        let specs: Vec<CellSpec> = [
            StrategyKind::UniformSampling,
            StrategyKind::Ours,
            StrategyKind::LiEtAl,
            StrategyKind::Ours,
            StrategyKind::MeCpe,
        ]
        .iter()
        .map(|&s| CellSpec::standard(config.clone(), s, 1, vec![1]))
        .collect();
        assert_eq!(sweep_schedule(&specs), vec![1, 3, 4, 2, 0]);
        assert!(sweep_schedule(&[]).is_empty());
    }

    #[test]
    fn zoo_selectors_are_exactly_the_stage_pipelines() {
        let zoo = StrategyKind::stage_pipelines();
        for kind in StrategyKind::all().into_iter().chain(zoo.iter().copied()) {
            let selector = kind.zoo_selector(2, 0.5);
            assert_eq!(selector.is_some(), zoo.contains(&kind), "{}", kind.name());
            if let Some(selector) = selector {
                assert_eq!(selector.config().cpe.epochs, 2);
                assert_eq!(selector.name(), kind.name());
            }
        }
    }

    #[test]
    fn trial_seeds_step_from_the_base_seed() {
        assert_eq!(
            trial_seeds(3),
            vec![BASE_SEED, BASE_SEED + 1000, BASE_SEED + 2000]
        );
        assert!(trial_seeds(0).is_empty());
    }

    // The `env` module: knob registry, parsers and snapshot.

    #[test]
    fn registry_names_are_unique_prefixed_and_documented() {
        let mut seen = Vec::new();
        for k in KNOBS {
            assert!(k.name.starts_with("C4U_"), "{}", k.name);
            assert!(!seen.contains(&k.name), "duplicate {}", k.name);
            assert!(!k.doc.is_empty() && !k.default.is_empty(), "{}", k.name);
            seen.push(k.name);
        }
        assert!(is_registered(names::TRIALS));
        assert!(!is_registered("C4U_NOT_A_KNOB"));
        assert_eq!(knob(names::LINT_ROOT).map(|k| k.kind), Some(KnobKind::Path));
    }

    #[test]
    fn knob_table_renders_one_row_per_knob() {
        let table = render_knob_table();
        // Header + separator + one row per knob.
        assert_eq!(table.lines().count(), 2 + KNOBS.len());
        for k in KNOBS {
            assert!(table.contains(k.name), "{} missing from table", k.name);
        }
        assert!(table.starts_with("| Variable | Kind | Default | Effect |"));
        // README embeds the rendered table verbatim, so dropping or editing a
        // knob cannot leave the documentation stale.
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&table),
            "README.md's knob table differs from render_knob_table(); regenerate it"
        );
    }

    #[test]
    fn unknown_names_flags_only_unregistered_c4u_vars() {
        let candidates = [
            "C4U_TRAILS",     // typo: flagged
            "C4U_TRIALS",     // registered: fine
            "PATH",           // not ours: ignored
            "C4U_TRAILS",     // duplicate: reported once
            "RUST_BACKTRACE", // not ours: ignored
            "C4U_QUAD_MATHS", // typo: flagged
        ];
        assert_eq!(
            unknown_names(candidates),
            vec!["C4U_QUAD_MATHS".to_string(), "C4U_TRAILS".to_string()]
        );
        assert!(unknown_names(Vec::<String>::new()).is_empty());
    }

    #[test]
    fn the_deleted_cell_cache_knob_is_flagged_as_unknown() {
        // The on-disk cell cache is gone: a leftover setting must warn
        // instead of silently doing nothing.
        assert_eq!(
            unknown_names(["C4U_CELL_CACHE"]),
            vec!["C4U_CELL_CACHE".to_string()]
        );
    }

    #[test]
    fn count_parsing_keeps_defaults_on_bad_input() {
        assert_eq!(parse_count(None, 7), 7);
        assert_eq!(parse_count(Some("12"), 7), 12);
        assert_eq!(parse_count(Some(" 12 "), 7), 12);
        assert_eq!(parse_count(Some("0"), 7), 7);
        assert_eq!(parse_count(Some("-3"), 7), 7);
        assert_eq!(parse_count(Some("twelve"), 7), 7);
    }

    #[test]
    fn count_list_parsing_drops_bad_entries_and_defaults_when_empty() {
        assert_eq!(parse_count_list(None, &[1, 2]), vec![1, 2]);
        assert_eq!(parse_count_list(Some(""), &[1, 2]), vec![1, 2]);
        assert_eq!(parse_count_list(Some("4, 8 ,15"), &[1]), vec![4, 8, 15]);
        assert_eq!(parse_count_list(Some("4,zero,0,16"), &[1]), vec![4, 16]);
        assert_eq!(parse_count_list(Some("zero,0"), &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn quad_math_parses_the_three_modes_and_defaults_the_rest() {
        assert_eq!(QuadMathKnob::parse(Some("exact")), QuadMathKnob::Exact);
        assert_eq!(
            QuadMathKnob::parse(Some("fast_vector")),
            QuadMathKnob::FastVector
        );
        assert_eq!(QuadMathKnob::parse(Some("both")), QuadMathKnob::Both);
        assert_eq!(QuadMathKnob::parse(Some("fast")), QuadMathKnob::Default);
        assert_eq!(QuadMathKnob::parse(None), QuadMathKnob::Default);
    }

    #[test]
    fn snapshot_reads_the_process_environment_with_defaults() {
        // The snapshot must work in any environment; only assert invariants
        // that hold whether or not knobs are set.
        let env = C4uEnv::from_env();
        assert!(env.cpe_epochs >= 1);
        assert!(env.trials >= 1);
        assert!(env.quad_samples >= 1);
        if std::env::var_os(names::QUAD_WORKERS).is_none() {
            assert_eq!(env.quad_workers, DEFAULT_QUAD_WORKERS);
        }
        // Snapshots of the same environment are equal.
        assert_eq!(env, C4uEnv::from_env());
    }

    #[test]
    fn rendered_defaults_match_the_parsed_defaults() {
        let default_of = |name: &str| knob(name).map(|k| k.default);
        let list = |values: &[usize]| {
            values
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let cpe_epochs = DEFAULT_CPE_EPOCHS.to_string();
        assert_eq!(default_of(names::CPE_EPOCHS), Some(cpe_epochs.as_str()));
        assert_eq!(
            default_of(names::TRIALS),
            Some(DEFAULT_TRIALS.to_string().as_str())
        );
        let samples = DEFAULT_QUAD_SAMPLES.to_string();
        assert_eq!(default_of(names::QUAD_SAMPLES), Some(samples.as_str()));
        let workers = list(DEFAULT_QUAD_WORKERS);
        assert_eq!(default_of(names::QUAD_WORKERS), Some(workers.as_str()));
        let nodes = list(DEFAULT_QUAD_NODES);
        assert_eq!(default_of(names::QUAD_NODES), Some(nodes.as_str()));
    }

    #[test]
    fn kind_labels_are_distinct() {
        let kinds = [
            KnobKind::Count,
            KnobKind::CountList,
            KnobKind::Path,
            KnobKind::Mode,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert!(parse_count(Some("2.5"), 7) == 7 && parse_count(Some("+4"), 7) == 4);
        assert_eq!(parse_count(Some("99999999999999999999999"), 7), 7);
    }
}
