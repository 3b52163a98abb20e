//! Stage-zoo ablation: a Table-5-style comparison of every estimation pipeline
//! the [`c4u_selection::StagePipeline`] seam composes — the full method, the
//! CPE-only and LGE-only halves, the two IRT-backed single-model ablations,
//! and the CPE + BKT ensemble — answering "how much does each modelling choice
//! buy?" in one run.
//!
//! ```bash
//! cargo run --release --example stage_ablation
//! # Quick mode (what CI runs): 2 CPE epochs, 1 trial.
//! C4U_CPE_EPOCHS=2 C4U_TRIALS=1 cargo run --release --example stage_ablation
//! ```

use c4u_bench::{
    cpe_epochs, evaluate_cells, format_accuracy_table, trial_seeds, trials, CellSpec, StrategyKind,
};
use c4u_crowd_sim::DatasetConfig;

fn main() {
    let epochs = cpe_epochs();
    let seeds = trial_seeds(trials());
    println!(
        "Stage zoo — every estimation pipeline on the RW datasets (CPE epochs = {epochs}, trials = {})\n",
        seeds.len()
    );

    let configs = [DatasetConfig::rw1(), DatasetConfig::rw2()];
    let pipelines = StrategyKind::stage_pipelines();
    let mut specs = Vec::new();
    for config in &configs {
        for &strategy in &pipelines {
            specs.push(CellSpec::standard(
                config.clone(),
                strategy,
                epochs,
                seeds.clone(),
            ));
        }
    }
    let cells = evaluate_cells(&specs);

    let datasets: Vec<String> = configs.iter().map(|c| c.name.clone()).collect();
    let strategies: Vec<String> = pipelines.iter().map(|s| s.name().to_string()).collect();
    print!("{}", format_accuracy_table(&datasets, &strategies, &cells));

    println!("\nPipelines: Ours = CPE + LGE (the paper's method); ME-CPE drops the learning");
    println!("curve; LGE-only replaces the CPE model with raw per-round sample means; BKT and");
    println!("Rasch swap the whole estimation for a single classic learner model; CPE+BKT");
    println!("blends the cross-domain model with BKT posteriors. The gap between the");
    println!("CPE-backed rows (Ours, ME-CPE, CPE+BKT) and the model-free ablations is what");
    println!("the cross-domain information is worth — visible at paper-fidelity epoch");
    println!("budgets (C4U_CPE_EPOCHS=50); in quick mode the CPE model is deliberately");
    println!("undertrained and the single-model ablations can tie or lead.");
}
