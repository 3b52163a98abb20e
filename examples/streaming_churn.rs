//! Streaming campaign walkthrough: worker churn as first-class round events.
//!
//! Builds the RW-1-churn preset (two joins and one departure before every
//! mid-campaign round), derives its deterministic [`CampaignSchedule`], and
//! runs the full method as an **open-world** campaign next to the closed-world
//! batch run — printing, per round, who joined, who departed, and how the
//! pool and per-worker task share respond.
//!
//! Two contracts to watch in the output:
//!
//! * survivors' answer streams are keyed by (round, worker id), so the
//!   closed-world and open-world runs agree wherever no event touched the
//!   pool — an empty schedule would reproduce the batch run bit-for-bit
//!   (pinned by `tests/event_equivalence.rs`);
//! * the budget plan hands each remaining worker `floor(t / |W_c|)` tasks, so
//!   arrivals shrink the share instead of overrunning the round budget.
//!
//! ```bash
//! cargo run --release --example streaming_churn
//! ```

use c4u_crowd_sim::{generate, CampaignSchedule, DatasetConfig, Platform};
use c4u_selection::{rounds_until_at_most, CrossDomainSelector, SelectorConfig};

fn main() {
    let config = DatasetConfig::rw1_churn();
    let dataset = generate(&config).expect("valid dataset");
    let rounds = rounds_until_at_most(config.pool_size, config.select_k);
    let schedule = CampaignSchedule::churn(&config, rounds).expect("valid churn schedule");

    let mut selector_config = SelectorConfig::default();
    selector_config.cpe.epochs = 20;
    let selector = CrossDomainSelector::new(selector_config);

    let seed = 17;
    let closed = {
        let mut platform = Platform::from_dataset(&dataset, seed).expect("platform");
        let report = selector
            .run(&mut platform, config.select_k)
            .expect("closed-world run");
        let accuracy = platform
            .evaluate_working_accuracy(&report.outcome.selected)
            .expect("working accuracy");
        (report, accuracy)
    };
    let mut platform = Platform::from_dataset(&dataset, seed).expect("platform");
    let open = selector
        .run_with_events(&mut platform, config.select_k, &schedule)
        .expect("open-world run");
    let open_accuracy = platform
        .evaluate_working_accuracy(&open.outcome.selected)
        .expect("working accuracy");

    println!(
        "Open-world campaign on {} (|W| = {}, k = {}, {} rounds)\n",
        config.name, config.pool_size, config.select_k, rounds
    );
    println!(
        "{:>5} {:>8} {:>8} {:>14} {:>14}",
        "round", "entered", "tasks/w", "joined", "departed"
    );
    for d in &open.rounds {
        let list = |ids: &[usize]| {
            if ids.is_empty() {
                "-".to_string()
            } else {
                ids.iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            }
        };
        println!(
            "{:>5} {:>8} {:>8} {:>14} {:>14}",
            d.round,
            d.entered.len(),
            d.tasks_per_worker,
            list(&d.joined),
            list(&d.departed)
        );
    }

    println!("\nselected (open world):   {:?}", open.outcome.selected);
    println!("selected (closed world): {:?}", closed.0.outcome.selected);
    println!(
        "working accuracy:  open {open_accuracy:.3}  closed {:.3}",
        closed.1
    );
    println!("\n(The schedule is derived from the dataset seed alone, so this walkthrough is");
    println!("deterministic; replaying it at any shard count gives identical reports —");
    println!("see tests/churn_determinism.rs.)");
}
