//! Ablation study (the ME / ME-CPE / Ours rows of Table V, Sec. V-E): quantifies the
//! contribution of the Cross-domain-aware Performance Estimation and of the Learning
//! Gain Estimation separately.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench ablation
//! # Resumable: persist every evaluated cell, so re-runs and interrupted
//! # sweeps only evaluate what is missing (CI uploads this as an artifact).
//! C4U_CELL_CACHE=target/cell-cache cargo bench -p c4u-bench --bench ablation
//! ```

use c4u_bench::{
    cell_cache_dir, cpe_epochs, evaluate_cells_resumable, lookup, trial_seeds, trials, uplift,
    CellSpec, StrategyKind,
};
use c4u_crowd_sim::DatasetConfig;

fn main() {
    let epochs = cpe_epochs();
    let seeds = trial_seeds(trials());
    println!(
        "Ablation — contribution of CPE and LGE (CPE epochs = {epochs}, trials = {})\n",
        seeds.len()
    );

    let configs = DatasetConfig::all_paper_datasets();
    let strategies = [
        StrategyKind::MedianElimination,
        StrategyKind::MeCpe,
        StrategyKind::Ours,
    ];
    let mut specs = Vec::new();
    for config in &configs {
        for &strategy in &strategies {
            specs.push(CellSpec::standard(
                config.clone(),
                strategy,
                epochs,
                seeds.clone(),
            ));
        }
    }
    let cache = cell_cache_dir();
    let (cells, stats) = evaluate_cells_resumable(&specs, cache.as_deref());

    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>16} {:>16}",
        "data", "ME", "ME-CPE", "Ours", "CPE uplift", "LGE uplift"
    );
    for config in &configs {
        let me = lookup(&cells, &config.name, "ME").unwrap_or(0.0);
        let me_cpe = lookup(&cells, &config.name, "ME-CPE").unwrap_or(0.0);
        let ours = lookup(&cells, &config.name, "Ours").unwrap_or(0.0);
        println!(
            "{:<6} {:>8.3} {:>8.3} {:>8.3} {:>15.1}% {:>15.1}%",
            config.name,
            me,
            me_cpe,
            ours,
            uplift(me_cpe, me),
            uplift(ours, me_cpe)
        );
    }
    println!("\nCPE uplift = ME-CPE over ME (cross-domain information); LGE uplift = Ours over");
    println!("ME-CPE (learning-gain modelling). The paper reports both as positive on every");
    println!("dataset; under the simulator the CPE uplift reproduces while the LGE uplift is");
    println!("within noise of zero on the synthetic pools (see ARCHITECTURE.md, Substitutions).");
    match cache {
        Some(dir) => println!(
            "\ncell cache: {} hits, {} misses of {} cells under {}",
            stats.hits,
            stats.misses,
            stats.total(),
            dir.display()
        ),
        None => {
            println!("\ncell cache: disabled (set C4U_CELL_CACHE to make this sweep resumable)")
        }
    }
}
