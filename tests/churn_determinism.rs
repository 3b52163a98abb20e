//! Determinism pins for open-world (churn) campaigns:
//!
//! * one fixed join/leave schedule, replayed at worker-range shard counts
//!   {1, 3, 16}, produces **bit-for-bit identical** selector reports for every
//!   estimation preset — churn does not break the shard-count invariance the
//!   closed-world suite pins, nor the cross-round state each stage keeps (the
//!   CPE model, LGE's per-worker trajectories) across joins and leaves;
//! * the same replay is deterministic run-to-run;
//! * removing a worker and re-adding its spec (as a fresh id) leaves every
//!   *other* worker's answer stream untouched, property-tested over fuzzed
//!   departure sets — per-(round, worker) RNG streams are keyed by worker id,
//!   never by pool position.

use c4u_crowd_sim::{generate, CampaignSchedule, DatasetConfig, Platform, RoundEvents};
use c4u_selection::{CrossDomainSelector, EstimationMode, PipelineReport, SelectorConfig};
use proptest::prelude::*;

/// Every estimation preset: the full method and its two ablations.
const MODES: [EstimationMode; 3] = [
    EstimationMode::CpeAndLge,
    EstimationMode::CpeOnly,
    EstimationMode::LgeOnly,
];

fn fast_config(mode: EstimationMode) -> SelectorConfig {
    let mut config = SelectorConfig::default().with_mode(mode);
    config.cpe.epochs = 5;
    config
}

/// A two-round schedule exercising joins and leaves together: two fresh
/// workers (recruited from the dataset's own spec pool, so the test is fully
/// deterministic) join before round 2 while workers 0 and 3 depart.
fn fixed_schedule(dataset: &c4u_crowd_sim::Dataset) -> CampaignSchedule {
    CampaignSchedule::empty().with_round(
        2,
        RoundEvents {
            joins: vec![dataset.workers[1].clone(), dataset.workers[4].clone()],
            leaves: vec![0, 3],
        },
    )
}

fn run_with(
    dataset: &c4u_crowd_sim::Dataset,
    schedule: &CampaignSchedule,
    mode: EstimationMode,
    num_shards: usize,
) -> PipelineReport {
    let selector = CrossDomainSelector::new(fast_config(mode).with_num_shards(num_shards));
    let mut platform = Platform::from_dataset(dataset, 43).unwrap();
    selector
        .run_with_events(&mut platform, 7, schedule)
        .unwrap()
}

#[test]
fn identical_churn_replays_are_shard_count_invariant() {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let schedule = fixed_schedule(&dataset);
    for mode in MODES {
        let reference = run_with(&dataset, &schedule, mode, 1);

        // The joins and leaves actually happened.
        let round2 = &reference.rounds[1];
        assert_eq!(round2.joined.len(), 2, "{mode:?}");
        assert_eq!(round2.departed, vec![0, 3], "{mode:?}");

        for shards in [3, 16] {
            let candidate = run_with(&dataset, &schedule, mode, shards);
            assert_eq!(
                reference.outcome, candidate.outcome,
                "{mode:?}: outcome diverged at {shards} shards"
            );
            assert_eq!(
                reference.rounds, candidate.rounds,
                "{mode:?}: rounds diverged at {shards} shards"
            );
            assert_eq!(
                reference.target_correlations, candidate.target_correlations,
                "{mode:?}: correlations diverged at {shards} shards"
            );
        }
        // And the replay is deterministic run-to-run at a fixed shard count.
        let again = run_with(&dataset, &schedule, mode, 1);
        assert_eq!(reference.outcome, again.outcome, "{mode:?}");
        assert_eq!(reference.rounds, again.rounds, "{mode:?}");
    }
}

#[test]
fn preset_churn_schedules_are_deterministic_and_shard_invariant() {
    // The RW-1-churn preset derives its schedule from the dataset seed; the
    // derived schedule must replay identically and stay shard-invariant too.
    let config = DatasetConfig::rw1_churn();
    let dataset = generate(&config).unwrap();
    let schedule = CampaignSchedule::churn(&config, 2).unwrap();
    assert_eq!(
        schedule,
        CampaignSchedule::churn(&config, 2).unwrap(),
        "preset schedule derivation must be deterministic"
    );
    for mode in MODES {
        let reference = run_with(&dataset, &schedule, mode, 1);
        let sharded = run_with(&dataset, &schedule, mode, 16);
        assert_eq!(reference.outcome, sharded.outcome, "{mode:?}");
        assert_eq!(reference.rounds, sharded.rounds, "{mode:?}");
        // A joiner is selected, so the pin covers state a stage started
        // keeping mid-campaign.
        assert!(
            reference
                .outcome
                .selected
                .iter()
                .any(|&w| w >= dataset.workers.len()),
            "{mode:?}: {:?}",
            reference.outcome.selected
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Remove an arbitrary set of workers, re-add their specs as fresh
    /// recruits, and answer one learning round: every worker that never left
    /// must produce the exact same answer sheet as on a platform that saw no
    /// churn at all.
    #[test]
    fn remove_then_readd_leaves_other_streams_untouched(
        raw_departures in prop::collection::vec(0usize..20, 1..6),
        tasks in 4usize..12,
    ) {
        // Deduplicate into a sorted departure set (the RW-1 pool has 27
        // workers, so every fuzzed index is valid).
        let departures: std::collections::BTreeSet<usize> =
            raw_departures.into_iter().collect();
        let dataset = generate(&DatasetConfig::rw1()).unwrap();

        let reference = {
            let mut p = Platform::from_dataset(&dataset, 47).unwrap();
            let ids = p.worker_ids();
            p.assign_learning_batch(&ids, tasks).unwrap()
        };

        let mut churned = Platform::from_dataset(&dataset, 47).unwrap();
        let mut events = RoundEvents::none();
        for &w in &departures {
            events.leaves.push(w);
            events.joins.push(dataset.workers[w].clone());
        }
        let applied = churned.apply_events(&events).unwrap();
        prop_assert_eq!(applied.departed.len(), departures.len());
        // Re-added specs are fresh identities, not resurrected ids.
        for (&gone, &back) in departures.iter().zip(applied.joined.iter()) {
            prop_assert!(back >= dataset.workers.len());
            prop_assert!(!churned.is_active(gone));
        }

        let record = churned
            .assign_learning_batch(&churned.active_worker_ids(), tasks)
            .unwrap();
        for sheet in &reference.sheets {
            if departures.contains(&sheet.worker) {
                continue;
            }
            let survived = record
                .sheets
                .iter()
                .find(|s| s.worker == sheet.worker)
                .expect("survivor answered");
            prop_assert_eq!(sheet, survived, "worker {} stream changed", sheet.worker);
        }
    }
}
