//! Regenerates Figure 7 (a–d): sensitivity to the number of learning tasks per batch
//! `Q` on the four synthetic datasets, with `k` fixed and the budget scaling with `Q`.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench fig7_q_sensitivity
//! ```

use c4u_bench::{accuracy_column, cpe_epochs, evaluate_cells, trial_seeds, CellSpec, StrategyKind};
use c4u_crowd_sim::DatasetConfig;

fn main() {
    let epochs = cpe_epochs();
    let seeds = trial_seeds(1);
    let q_values = [16usize, 20, 30, 40];
    let strategies = [
        StrategyKind::UniformSampling,
        StrategyKind::MedianElimination,
        StrategyKind::LiEtAl,
        StrategyKind::Ours,
        StrategyKind::GroundTruth,
    ];

    println!("Figure 7 — sensitivity to the learning tasks per batch Q (CPE epochs = {epochs})\n");

    for base in [
        DatasetConfig::s1(),
        DatasetConfig::s2(),
        DatasetConfig::s3(),
        DatasetConfig::s4(),
    ] {
        let mut specs = Vec::new();
        for &q in &q_values {
            let config = base.with_tasks_per_batch(q);
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

        println!("--- {} (|W| = {}) ---", base.name, base.pool_size);
        print!("{:<6} {:>8}", "Q", "budget");
        for strategy in &strategies {
            print!(" {:>12}", strategy.name());
        }
        println!();
        for (i, &q) in q_values.iter().enumerate() {
            let budget = base.with_tasks_per_batch(q).budget();
            print!("{q:<6} {budget:>8}");
            for (j, _) in strategies.iter().enumerate() {
                let cell = &cells[i * strategies.len() + j];
                print!("{}", accuracy_column(cell.mean_accuracy, 12));
            }
            println!();
        }
        println!();
    }
    println!("Expected shape (Figure 7): every method improves as Q (and with it the budget)");
    println!("grows, and the advantage of the cross-domain-aware methods over the observation-");
    println!("only baselines is largest at the smallest Q.");
}
