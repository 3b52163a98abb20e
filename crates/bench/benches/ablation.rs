//! Ablation study (the ME / ME-CPE / Ours rows of Table V, Sec. V-E): quantifies the
//! contribution of the Cross-domain-aware Performance Estimation and of the Learning
//! Gain Estimation separately.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench ablation
//! ```

use c4u_bench::{
    accuracy_column, cpe_epochs, evaluate_cells, lookup, trial_seeds, trials, uplift_column,
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
    let cells = evaluate_cells(&specs);

    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>16} {:>16}",
        "data", "ME", "ME-CPE", "Ours", "CPE uplift", "LGE uplift"
    );
    for config in &configs {
        let me = lookup(&cells, &config.name, "ME");
        let me_cpe = lookup(&cells, &config.name, "ME-CPE");
        let ours = lookup(&cells, &config.name, "Ours");
        println!(
            "{:<6}{}{}{}{}{}",
            config.name,
            accuracy_column(me, 8),
            accuracy_column(me_cpe, 8),
            accuracy_column(ours, 8),
            uplift_column(me_cpe, me, 16),
            uplift_column(ours, me_cpe, 16)
        );
    }
    println!("\nCPE uplift = ME-CPE over ME (cross-domain information); LGE uplift = Ours over");
    println!("ME-CPE (learning-gain modelling). The paper reports both as positive on every");
    println!("dataset. Under the simulator the CPE uplift reproduces, but the LGE uplift does");
    println!("not: under the EM fit, over 40 paired trials at 50 epochs (10 dataset draws x 4");
    println!("platform seeds), Ours - ME-CPE was -1.05 to -1.53 pp on RW-2 and S-1 ... S-4");
    println!("(2.5-7.6 standard errors) and -0.14 pp, within noise, on RW-1 (per-preset table");
    println!("in ARCHITECTURE.md, Substitutions).");
}
