//! Cross-strategy comparison tests: the Table V ordering on a fixed seed set.
//!
//! These tests check the *shape* the paper reports — the oracle on top, the full
//! method at least as good as the static baselines on average — without asserting
//! any absolute accuracy values, which depend on the simulator's noise.

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{
    evaluate_over_trials, evaluate_strategy, CrossDomainSelector, GroundTruthOracle, LiEtAl,
    MedianEliminationBaseline, SelectorConfig, UniformSampling, WorkerSelector,
};

fn fast_ours() -> CrossDomainSelector {
    let mut config = SelectorConfig::default();
    config.cpe.epochs = 5;
    CrossDomainSelector::new(config)
}

fn fast_me_cpe() -> CrossDomainSelector {
    let mut config = SelectorConfig::default();
    config.cpe.epochs = 5;
    CrossDomainSelector::new(config.cpe_only())
}

// Several answering-noise seeds: every ordering assertion below compares
// seed-averaged accuracies, never a single stream, so the tests survive a swap
// of the random-number backend (see the ROADMAP "real crates swap-in" caveat).
const SEEDS: [u64; 6] = [11, 23, 37, 53, 71, 89];

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[test]
fn oracle_dominates_on_expected_accuracy() {
    // The oracle should dominate every heuristic on the seed average (per-seed
    // orderings can flip within the answering noise; the average is stable).
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let average = |strategy: &dyn WorkerSelector| -> f64 {
        let per_seed: Vec<f64> = SEEDS
            .iter()
            .map(|&seed| {
                evaluate_strategy(&dataset, strategy, seed)
                    .unwrap()
                    .expected_accuracy
            })
            .collect();
        mean(&per_seed)
    };
    let gt = average(&GroundTruthOracle::new());
    for strategy in [
        &UniformSampling::new() as &dyn WorkerSelector,
        &MedianEliminationBaseline::new(),
        &LiEtAl::new(),
        &fast_ours(),
    ] {
        let result = average(strategy);
        assert!(
            gt >= result - 0.02,
            "oracle {gt} should dominate {} ({result})",
            strategy.name(),
        );
    }
}

#[test]
fn full_method_is_competitive_with_static_baselines_on_rw1() {
    // Averaged over several answering-noise seeds, the full method should not lose
    // to the purely observation-driven baselines on the RW-1 surrogate (the paper
    // reports a 3.5-4.5% uplift; we only require non-inferiority within noise).
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let ours = evaluate_over_trials(&dataset, &fast_ours(), &SEEDS).unwrap();
    let us = evaluate_over_trials(&dataset, &UniformSampling::new(), &SEEDS).unwrap();
    let me = evaluate_over_trials(&dataset, &MedianEliminationBaseline::new(), &SEEDS).unwrap();
    assert!(
        ours.mean_accuracy >= us.mean_accuracy - 0.05,
        "Ours {} vs US {}",
        ours.mean_accuracy,
        us.mean_accuracy
    );
    assert!(
        ours.mean_accuracy >= me.mean_accuracy - 0.05,
        "Ours {} vs ME {}",
        ours.mean_accuracy,
        me.mean_accuracy
    );
}

#[test]
fn all_strategies_select_distinct_workers_within_budget() {
    let dataset = generate(&DatasetConfig::s1()).unwrap();
    let ours = fast_ours();
    let me_cpe = fast_me_cpe();
    let us = UniformSampling::new();
    let me = MedianEliminationBaseline::new();
    let li = LiEtAl::new();
    let gt = GroundTruthOracle::new();
    let strategies: Vec<&dyn WorkerSelector> = vec![&us, &me, &li, &me_cpe, &ours, &gt];
    for strategy in strategies {
        let result = evaluate_strategy(&dataset, strategy, 13).unwrap();
        assert_eq!(result.selected.len(), 5, "{}", result.strategy);
        let mut unique = result.selected.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5, "{} selected duplicates", result.strategy);
        assert!(
            result.budget_spent <= dataset.config.budget(),
            "{} overspent",
            result.strategy
        );
    }
}

#[test]
fn cross_domain_signal_helps_when_budget_is_tiny() {
    // With very few golden questions per worker, observation-only baselines are
    // mostly guessing while the cross-domain profile still carries signal; the
    // cross-domain-aware methods must stay competitive with plain ME (within
    // the trial noise of the seed average) rather than collapse.
    let mut config = DatasetConfig::s1();
    config.tasks_per_batch = 4; // tiny budget: B = 3 * 4 * 40 = 480
    let dataset = generate(&config).unwrap();
    let ours = evaluate_over_trials(&dataset, &fast_ours(), &SEEDS).unwrap();
    let me_cpe = evaluate_over_trials(&dataset, &fast_me_cpe(), &SEEDS).unwrap();
    let me = evaluate_over_trials(&dataset, &MedianEliminationBaseline::new(), &SEEDS).unwrap();
    let best_cross_domain = ours.mean_accuracy.max(me_cpe.mean_accuracy);
    assert!(
        best_cross_domain >= me.mean_accuracy - 0.05,
        "cross-domain methods ({} / {}) should stay competitive with ME ({}) under a tiny budget",
        ours.mean_accuracy,
        me_cpe.mean_accuracy,
        me.mean_accuracy
    );
}

#[test]
fn me_cpe_ablation_sits_between_me_and_full_method_in_structure() {
    // Structural ablation check: ME-CPE must run the same number of rounds as ME and
    // the full method, and all three must spend comparable budgets.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let me = evaluate_strategy(&dataset, &MedianEliminationBaseline::new(), 3).unwrap();
    let me_cpe = evaluate_strategy(&dataset, &fast_me_cpe(), 3).unwrap();
    let ours = evaluate_strategy(&dataset, &fast_ours(), 3).unwrap();
    assert_eq!(me.rounds, me_cpe.rounds);
    assert_eq!(me_cpe.rounds, ours.rounds);
    assert_eq!(me.budget_spent, me_cpe.budget_spent);
    assert_eq!(me_cpe.budget_spent, ours.budget_spent);
}

#[test]
fn li_et_al_selections_are_pinned_on_every_paper_preset() {
    // Li et al.'s selections and regressed scores at platform seed 7, one row
    // per paper preset. The regression solves its Gram matrix by Cholesky;
    // these values were captured while it was still solved by LU with partial
    // pivoting, so the pin also bounds what the factorisation change may move:
    // the same workers in the same order, every score within 1e-12 relative.
    let pins: [(&str, DatasetConfig, &[usize], &[f64]); 6] = [
        (
            "RW-1",
            DatasetConfig::rw1(),
            &[16, 12, 20, 10, 11, 22, 15],
            &[
                0.7556844004636656,
                0.7214147011479071,
                0.7091032089538747,
                0.6978551003977059,
                0.6855436082036737,
                0.682878830937335,
                0.6811754583084537,
            ],
        ),
        (
            "RW-2",
            DatasetConfig::rw2(),
            &[33, 1, 31, 21, 16, 23, 15, 27, 25],
            &[
                0.8498663724037666,
                0.8391014923422662,
                0.8373587530472488,
                0.8265917082907505,
                0.7890688502211972,
                0.7854776706073665,
                0.7675325960132026,
                0.7549149462428928,
                0.737295633500109,
            ],
        ),
        (
            "S-1",
            DatasetConfig::s1(),
            &[36, 34, 33, 22, 6],
            &[
                0.5212698198413757,
                0.5204487542582142,
                0.5203571222204769,
                0.5191766314047268,
                0.5126644345412565,
            ],
        ),
        (
            "S-2",
            DatasetConfig::s2(),
            &[11, 25, 23, 32, 39],
            &[
                0.6350178113462003,
                0.6313410574813286,
                0.6244739558447819,
                0.6108854446240448,
                0.6104965495250902,
            ],
        ),
        (
            "S-3",
            DatasetConfig::s3(),
            &[60, 6, 10, 4, 46],
            &[
                0.5930798132761551,
                0.5903814095259924,
                0.588826941491403,
                0.5880497074741083,
                0.586700505599027,
            ],
        ),
        (
            "S-4",
            DatasetConfig::s4(),
            &[15, 72, 3, 53, 96],
            &[
                0.6433729008130004,
                0.6428744858745997,
                0.6377200907751971,
                0.630275640966872,
                0.6215379663264258,
            ],
        ),
    ];
    for (preset, config, selected, scores) in pins {
        let dataset = generate(&config).unwrap();
        let mut platform = Platform::from_dataset(&dataset, 7).unwrap();
        let outcome = LiEtAl::new()
            .select(&mut platform, dataset.config.select_k)
            .unwrap();
        assert_eq!(outcome.selected, selected, "{preset}");
        assert_eq!(outcome.scores.len(), scores.len(), "{preset}");
        for (got, want) in outcome.scores.iter().zip(scores) {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{preset}: score {got} moved from {want}"
            );
        }
    }
}
