//! Regenerates Table II (dataset statistics) and Table III (real-world domain
//! composition) of the paper.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench table2_datasets
//! ```

use c4u_crowd_sim::DatasetConfig;

fn main() {
    println!("Table II — dataset statistics\n");
    println!(
        "{:<6} {:>5} {:>4} {:>4} {:>10} {:>8} {:>7}",
        "data", "|W|", "Q", "k", "# batches", "B", "rounds"
    );
    for config in DatasetConfig::all_paper_datasets() {
        println!(
            "{:<6} {:>5} {:>4} {:>4} {:>10} {:>8} {:>7}",
            config.name,
            config.pool_size,
            config.tasks_per_batch,
            config.select_k,
            config.num_batches(),
            config.budget(),
            config.rounds()
        );
    }
    println!(
        "\nNote: S-2 follows Eq. 12 exactly (n = ceil(log2(50/5)) = 4, B = 4000); the paper's"
    );
    println!(
        "Table II lists B = 3000 / 7 batches, which corresponds to n = 3 (see ARCHITECTURE.md, Substitutions)."
    );

    println!("\nTable III — real-world domain composition\n");
    println!(
        "{:<8} {:<10} {:<18} {:<14} {:<10}",
        "dataset", "domain", "topic", "features", "source"
    );
    for config in [DatasetConfig::rw1(), DatasetConfig::rw2()] {
        for descriptor in &config.descriptors {
            println!(
                "{:<8} {:<10} {:<18} {:<14} {:<10}",
                config.name,
                descriptor.domain.to_string(),
                descriptor.name,
                descriptor.features.to_string(),
                descriptor.knowledge_source
            );
        }
    }
}
