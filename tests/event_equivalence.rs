//! Closed-world-equivalence pins for the event-driven campaign loop
//! ([`CrossDomainSelector::run_with_events`]):
//!
//! * an **empty** event stream reproduces the batch `run` **bit-for-bit** —
//!   same selection, same scores, same per-round diagnostics — for the full
//!   method and both of its ablations;
//! * a schedule of explicit **no-op** events (present rounds, empty
//!   join/leave lists) is the same closed world;
//! * the equivalence survives the end-to-end evaluation (working-phase
//!   accuracy), not just the selector report.
//!
//! Together with `tests/churn_determinism.rs`, this is the contract that lets
//! every closed-world pin in the suite keep guarding the event-driven code
//! path: `run` *is* `run_with_events` with no events.

use c4u_crowd_sim::{generate, CampaignSchedule, DatasetConfig, Platform, RoundEvents};
use c4u_selection::{
    evaluate_strategy, CrossDomainSelector, EstimationMode, PipelineReport, SelectorConfig,
    WorkerSelector,
};

fn fast_config(mode: EstimationMode) -> SelectorConfig {
    let mut config = SelectorConfig::default().with_mode(mode);
    config.cpe.epochs = 5;
    config
}

/// Asserts two pipeline reports are bit-for-bit identical.
fn assert_reports_identical(reference: &PipelineReport, candidate: &PipelineReport, what: &str) {
    assert_eq!(
        reference.outcome, candidate.outcome,
        "{what}: outcome diverged"
    );
    assert_eq!(
        reference.rounds, candidate.rounds,
        "{what}: rounds diverged"
    );
    assert_eq!(
        reference.target_correlations, candidate.target_correlations,
        "{what}: correlations diverged"
    );
}

#[test]
fn empty_event_stream_reproduces_the_closed_world_batch_run() {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let modes = [
        (EstimationMode::CpeAndLge, "Ours"),
        (EstimationMode::CpeOnly, "ME-CPE"),
        (EstimationMode::LgeOnly, "LGE-only"),
    ];
    for (mode, name) in modes {
        let selector = CrossDomainSelector::new(fast_config(mode));
        let reference = {
            let mut platform = Platform::from_dataset(&dataset, 31).unwrap();
            selector.run(&mut platform, 7).unwrap()
        };
        let via_events = {
            let mut platform = Platform::from_dataset(&dataset, 31).unwrap();
            selector
                .run_with_events(&mut platform, 7, &CampaignSchedule::empty())
                .unwrap()
        };
        assert_reports_identical(&reference, &via_events, name);
        for d in &via_events.rounds {
            assert!(d.joined.is_empty(), "{name}: round {} joined", d.round);
            assert!(d.departed.is_empty(), "{name}: round {} departed", d.round);
        }
    }
}

#[test]
fn explicit_no_op_events_are_still_the_closed_world() {
    // A schedule whose rounds are *present* but carry empty join/leave lists
    // exercises the event-application branch, yet must stay bit-identical to
    // the batch run: applying nothing is indistinguishable from having no
    // schedule entry at all.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let selector = CrossDomainSelector::new(fast_config(EstimationMode::CpeAndLge));
    let reference = {
        let mut platform = Platform::from_dataset(&dataset, 37).unwrap();
        selector.run(&mut platform, 7).unwrap()
    };
    let rounds = reference.rounds.len();
    let mut schedule = CampaignSchedule::empty();
    for round in 1..=rounds {
        schedule = schedule.with_round(round, RoundEvents::none());
    }
    let via_noop_events = {
        let mut platform = Platform::from_dataset(&dataset, 37).unwrap();
        selector
            .run_with_events(&mut platform, 7, &schedule)
            .unwrap()
    };
    assert_reports_identical(&reference, &via_noop_events, "no-op events");
}

#[test]
fn closed_world_equivalence_survives_the_end_to_end_evaluation() {
    // evaluate_strategy drives selection *and* the working phase; since `run`
    // delegates to `run_with_events` with the empty schedule, the published
    // evaluation numbers are pinned to the event-driven loop too.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let selector = CrossDomainSelector::new(fast_config(EstimationMode::CpeAndLge));
    let a = evaluate_strategy(&dataset, &selector, 13).unwrap();
    let b = evaluate_strategy(&dataset, &selector, 13).unwrap();
    assert_eq!(a.working_accuracy.to_bits(), b.working_accuracy.to_bits());
    assert_eq!(selector.name(), "Ours");
}

#[test]
fn scenario_free_presets_generate_identical_pools() {
    // The scenario field's closed-world default must leave generation
    // untouched: a config with `ScenarioConfig::none()` is the same dataset,
    // worker for worker, as the plain preset.
    let plain = generate(&DatasetConfig::rw1()).unwrap();
    let mut with_none = DatasetConfig::rw1();
    with_none.scenario = c4u_crowd_sim::ScenarioConfig::none();
    let scenario = generate(&with_none).unwrap();
    assert_eq!(plain.workers, scenario.workers);
}
