//! Equivalence and determinism coverage for the three estimation pipelines
//! on the `EstimationStage` seam (Ours, ME-CPE, LGE-only):
//!
//! * the LGE half of `cpe_and_lge` is exactly the `LgeStage` the LGE-only
//!   pipeline runs — fed the same static estimates each round, it reproduces
//!   the full pipeline's second-stage outputs **bit-for-bit**;
//! * every pipeline is deterministic: two runs from the same dataset and
//!   platform seed produce identical reports.

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{
    num_prior_domains, CrossDomainSelector, EstimationMode, EstimationStage, HistoricalProfile,
    LgeStage, RoundContext, RoundHeader, SelectorConfig, StageInit, StagePipeline, WorkerSelector,
};

fn fast_config(mode: EstimationMode) -> SelectorConfig {
    let mut config = SelectorConfig::default().with_mode(mode);
    config.cpe.epochs = 5;
    config
}

#[test]
fn lge_only_runs_the_exact_lge_half_of_cpe_and_lge() {
    // Drive the full CPE + LGE pipeline round by round; in parallel, feed a
    // standalone LgeStage (the very component StagePipeline::lge_only
    // composes) the full pipeline's CPE outputs. The standalone stage must
    // reproduce the full pipeline's second-stage estimates exactly — the LGE
    // half is composition-independent, only its static-estimate input differs
    // between the two pipelines.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 19).unwrap();
    let ids = platform.worker_ids();

    let mut config = SelectorConfig::default();
    config.cpe.epochs = 5;
    let mut full = StagePipeline::cpe_and_lge(config.cpe);
    let mut lge_half = LgeStage::new();
    {
        let profiles = platform.profiles();
        let init = StageInit {
            profiles: &profiles,
            num_prior_domains: num_prior_domains(&profiles),
            initial_target_accuracy: config.cpe.initial_target_accuracy,
        };
        full.initialize(&init).unwrap();
        lge_half.initialize(&init).unwrap();
    }

    // Three rounds over a shrinking pool, mirroring the elimination schedule.
    let cumulative = [0.0, 6.0, 18.0, 42.0];
    let pools: [&[usize]; 3] = [&ids, &ids[..14], &ids[..7]];
    for (index, pool) in pools.iter().enumerate() {
        let round = index + 1;
        let record = platform.assign_learning_batch(pool, 6).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let ctx = RoundContext {
            header: RoundHeader {
                round,
                total_rounds: pools.len(),
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
        };
        let estimates = full.score_round(&ctx).unwrap();
        // The standalone LGE stage sees the same round and the full
        // pipeline's static estimates; it keeps their trajectory itself.
        let standalone = lge_half.estimate(&ctx, estimates.first()).unwrap();
        assert_eq!(
            standalone,
            estimates.last().to_vec(),
            "round {round}: standalone LgeStage diverged from the pipeline's LGE half"
        );
    }
}

#[test]
fn every_zoo_pipeline_selects_k_workers_deterministically() {
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let modes = [
        (EstimationMode::CpeAndLge, "Ours"),
        (EstimationMode::CpeOnly, "ME-CPE"),
        (EstimationMode::LgeOnly, "LGE-only"),
    ];
    for (mode, name) in modes {
        let selector = CrossDomainSelector::new(fast_config(mode));
        assert_eq!(selector.name(), name);
        let run = || {
            let mut platform = Platform::from_dataset(&dataset, 41).unwrap();
            selector.run(&mut platform, 7).unwrap()
        };
        let first = run();
        assert_eq!(first.outcome.selected.len(), 7, "{name}");
        assert_eq!(first.rounds.len(), 2, "{name}");
        for d in &first.rounds {
            assert_eq!(d.static_estimates.len(), d.entered.len(), "{name}");
            assert!(
                d.dynamic_estimates.iter().all(|p| (0.0..=1.0).contains(p)),
                "{name}"
            );
        }
        // Same dataset + platform seed -> identical report, every time.
        let second = run();
        assert_eq!(second.outcome.selected, first.outcome.selected, "{name}");
        assert_eq!(second.outcome.scores, first.outcome.scores, "{name}");
        assert_eq!(second.rounds, first.rounds, "{name}");
    }
}

#[test]
fn zoo_pipelines_have_the_documented_stage_compositions() {
    let config = SelectorConfig::default();
    let expect = |mode: EstimationMode, names: &[&str]| {
        let selector = CrossDomainSelector::new(config.clone().with_mode(mode));
        assert_eq!(selector.pipeline().stage_names(), names, "{mode:?}");
    };
    expect(EstimationMode::CpeAndLge, &["cpe", "lge"]);
    expect(EstimationMode::CpeOnly, &["cpe"]);
    expect(EstimationMode::LgeOnly, &["empirical", "lge"]);
}
