//! Table-IV-style robustness sweep: the three estimation pipelines under
//! adversarial and open-world scenario presets.
//!
//! Rows are the RW-1 scenario family ([`DatasetConfig::robustness_scenarios`]):
//! the closed-world baseline, a 20% spammer tail (deceptively ordinary
//! profiles, chance-level target accuracy), a 20% colluder group (one shared
//! fabricated profile), fatigue-style accuracy drift, and worker churn (two
//! joins and one departure per mid-campaign round, run as an open-world
//! campaign through `run_with_events`). Columns are the estimation pipelines
//! Ours (CPE → LGE), ME-CPE and LGE-only ([`StrategyKind::stage_pipelines`]);
//! every cell is the mean working accuracy of the selected workers over the
//! answering-noise seeds, evaluated by `c4u_bench::evaluate_cells` like every
//! other table (a cell with no successful trial prints as `-`).
//!
//! ```bash
//! cargo bench -p c4u-bench --bench robustness
//! # Smoke run:
//! C4U_TRIALS=1 C4U_CPE_EPOCHS=3 cargo bench -p c4u-bench --bench robustness
//! ```
//!
//! Expected shape: the full method degrades gracefully — spammers and
//! colluders are eliminated once their observed sheets contradict their
//! profiles, drift lowers every column roughly uniformly, and churn leaves
//! the selection quality close to the closed-world row (joins only widen the
//! candidate pool; survivors' answer streams are unchanged by construction).
//!
//! Honours `C4U_CPE_EPOCHS` and `C4U_TRIALS` (see the `c4u_bench::env` knob
//! table).

use c4u_bench::{
    accuracy_column, cpe_epochs, evaluate_cells, trial_seeds, trials, CellSpec, StrategyKind,
};
use c4u_crowd_sim::DatasetConfig;

fn main() {
    let epochs = cpe_epochs();
    let seeds = trial_seeds(trials());
    let scenarios = DatasetConfig::robustness_scenarios();
    let strategies = StrategyKind::stage_pipelines();
    let mut specs = Vec::new();
    for config in &scenarios {
        for &kind in &strategies {
            specs.push(CellSpec::standard(
                config.clone(),
                kind,
                epochs,
                seeds.clone(),
            ));
        }
    }
    let cells = evaluate_cells(&specs);

    println!(
        "Robustness sweep — mean working accuracy under scenario presets \
         ({} seed(s), {} CPE epochs)\n",
        seeds.len(),
        epochs
    );
    print!("{:<12}", "scenario");
    for kind in &strategies {
        print!(" {:>10}", kind.name());
    }
    println!();

    for (config, row) in scenarios.iter().zip(cells.chunks(strategies.len())) {
        print!("{:<12}", config.name);
        for cell in row {
            print!("{}", accuracy_column(cell.mean_accuracy, 10));
        }
        println!();
    }

    println!("\n(Spammer/colluder/drift rows re-generate the pool with the scenario applied;");
    println!("the churn row replays the preset's deterministic join/leave schedule through");
    println!("the open-world campaign loop. tests/churn_determinism.rs pins that the same");
    println!("schedule is bit-for-bit shard-invariant.)");
}
