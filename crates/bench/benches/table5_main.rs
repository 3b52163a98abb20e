//! Regenerates Table V: the main comparison of US, ME, Li et al., ME-CPE, Ours and
//! the ground-truth oracle on all six datasets, plus the relative uplifts and the
//! Sec. V-H estimated cross-domain correlations.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench table5_main
//! # paper-fidelity CPE epochs:
//! C4U_CPE_EPOCHS=50 C4U_TRIALS=5 cargo bench -p c4u-bench --bench table5_main
//! ```

use c4u_bench::{
    cpe_epochs, evaluate_cells, format_accuracy_table, lookup, trial_seeds, trials, uplift_column,
    CellSpec, StrategyKind,
};
use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{CrossDomainSelector, SelectorConfig};

fn main() {
    let epochs = cpe_epochs();
    let seeds = trial_seeds(trials());
    println!(
        "Table V — average selected-worker accuracy on the working tasks\n(CPE epochs = {epochs}, trials = {}, seeds = {seeds:?})\n",
        seeds.len()
    );

    let configs = DatasetConfig::all_paper_datasets();
    let strategies = StrategyKind::all();
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
    let cells = evaluate_cells(&specs);

    let dataset_names: Vec<String> = configs.iter().map(|c| c.name.clone()).collect();
    let strategy_names: Vec<String> = strategies.iter().map(|s| s.name().to_string()).collect();
    println!(
        "{}",
        format_accuracy_table(&dataset_names, &strategy_names, &cells)
    );

    println!("Relative improvement of Ours over each baseline (percent):\n");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "baseline", "RW-1", "RW-2", "S-1", "S-2", "S-3", "S-4"
    );
    for baseline in ["US", "ME", "Li et al.", "ME-CPE"] {
        print!("{baseline:<14}");
        for dataset in &dataset_names {
            let ours = lookup(&cells, dataset, "Ours");
            let base = lookup(&cells, dataset, baseline);
            print!("{}", uplift_column(ours, base, 8));
        }
        println!();
    }

    // Sec. V-H: estimated cross-domain correlations on the real-world surrogates.
    println!("\nEstimated prior-domain / target-domain correlations (Sec. V-H):\n");
    for (config, labels) in [
        (DatasetConfig::rw1(), ["E-F", "F-F", "P-F"]),
        (DatasetConfig::rw2(), ["P-L", "R-L", "E-L"]),
    ] {
        let dataset = generate(&config).expect("dataset");
        let mut platform = Platform::from_dataset(&dataset, seeds[0]).expect("platform");
        let mut sel_config = SelectorConfig::default();
        sel_config.cpe.epochs = epochs;
        let report = CrossDomainSelector::new(sel_config)
            .run(&mut platform, config.select_k)
            .expect("pipeline");
        let formatted: Vec<String> = labels
            .iter()
            .zip(report.target_correlations.iter())
            .map(|(label, rho)| format!("{label} = {rho:.2}"))
            .collect();
        println!("  {}: {}", config.name, formatted.join(", "));
    }
}
