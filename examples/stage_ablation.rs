//! Stage ablation: a Table-5-style comparison of the three estimation
//! pipelines the [`c4u_selection::StagePipeline`] seam composes — the full
//! method (CPE → LGE) and its CPE-only and LGE-only halves — answering "how
//! much does each half of the method buy?" in one run.
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
        "Stage ablation — every estimation pipeline on the RW datasets (CPE epochs = {epochs}, trials = {})\n",
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
    println!("curve and ranks by the cross-domain model's static estimate; LGE-only keeps the");
    println!("learning curve but feeds it raw per-round sample means instead of the CPE");
    println!("model. Ours minus ME-CPE is what the learning curve is worth, Ours minus");
    println!("LGE-only what the cross-domain information is worth — visible at paper-fidelity");
    println!("epoch budgets (C4U_CPE_EPOCHS=50); in quick mode the CPE model is deliberately");
    println!("undertrained and LGE-only can tie or lead.");
}
