//! End-to-end equivalence of the quadrature math modes at the estimator and
//! selection layers.
//!
//! `QuadratureMath::FastVector`, the default, perturbs each quadrature cell
//! by ~1e-12 relative against the pinned `Exact` path. At the selection
//! layer that perturbation must be invisible: the CPE strategy run on the
//! reproduction datasets must select the **same workers in the same order**
//! under both modes (scores are separated by far more than the sweep drift),
//! and the
//! Table-4-style accuracy metrics must agree exactly once the selections
//! agree. Batch predictions agree to the propagated cell tolerance.
//!
//! The selection-level equality is pinned at 5 CPE epochs on RW-1 and RW-2,
//! and at the paper's 50 epochs by a census of the six presets × platform
//! seeds 1–5: it pins the number of cells whose selections differ between
//! `Exact` and the default math, which is 0 of 30.

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_selection::{
    evaluate_strategy, CpeObservation, CrossDomainEstimator, CrossDomainSelector, QuadratureMath,
    SelectorConfig,
};

fn config_with(math: QuadratureMath) -> SelectorConfig {
    let mut config = SelectorConfig::default();
    config.cpe.epochs = 5; // keep the end-to-end runs quick
    config.cpe.quadrature_math = math;
    config
}

#[test]
fn fast_vector_selects_the_same_workers() {
    for dataset_config in [DatasetConfig::rw1(), DatasetConfig::rw2()] {
        let dataset = generate(&dataset_config).unwrap();
        for seed in [3u64, 11, 27] {
            let exact = evaluate_strategy(
                &dataset,
                &CrossDomainSelector::new(config_with(QuadratureMath::Exact)),
                seed,
            )
            .unwrap();
            let fast = evaluate_strategy(
                &dataset,
                &CrossDomainSelector::new(config_with(QuadratureMath::FastVector)),
                seed,
            )
            .unwrap();
            assert_eq!(
                exact.selected, fast.selected,
                "{} seed {seed}: selections diverged",
                dataset_config.name
            );
            // Identical selections on the same platform seed imply identical
            // realised and expected working accuracies.
            assert_eq!(exact.working_accuracy, fast.working_accuracy);
            assert_eq!(exact.expected_accuracy, fast.expected_accuracy);
            assert_eq!(exact.budget_spent, fast.budget_spent);
        }
    }
}

#[test]
fn fast_vector_estimator_predictions_track_exact() {
    // A trained estimator pair over the same observation stream: predictions
    // must agree to well below any score gap the selector ranks on.
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let platform = Platform::from_dataset(&dataset, 7).unwrap();
    let profiles = platform.profiles();
    let observations: Vec<CpeObservation> = profiles
        .iter()
        .enumerate()
        .map(|(w, p)| CpeObservation {
            prior_accuracies: (0..p.num_domains()).map(|d| p.accuracy(d)).collect(),
            correct: 3 + (w % 5),
            wrong: 7 - (w % 5),
        })
        .collect();

    let mut estimators = [QuadratureMath::Exact, QuadratureMath::FastVector].map(|math| {
        let mut config = config_with(math).cpe;
        config.epochs = 10;
        CrossDomainEstimator::from_profiles(&profiles, config).unwrap()
    });
    for est in &mut estimators {
        est.update(&observations).unwrap();
    }
    let [exact, fast] = estimators;
    let p_e = exact.predict_batch(&observations).unwrap();
    let p_f = fast.predict_batch(&observations).unwrap();
    for (w, (&e, &f)) in p_e.iter().zip(&p_f).enumerate() {
        assert!(
            (e - f).abs() <= 1e-9,
            "worker {w}: prediction {e} vs {f} diverged beyond the math-mode drift"
        );
    }
}

/// Cells of the paper-epoch census whose selections differ between `Exact`
/// and the default math.
const CENSUS_DIFFERING_CELLS: usize = 0;

/// The paper-epoch census: the six presets × platform seeds 1–5, each run at
/// the paper's 50 EM epochs under `Exact` and under the default math. The
/// count of cells whose selections differ is pinned, and every other cell
/// must agree on its accuracy metrics too.
#[test]
fn census_at_the_paper_epochs() {
    let mut differing = Vec::new();
    for dataset_config in [
        DatasetConfig::rw1(),
        DatasetConfig::rw2(),
        DatasetConfig::s1(),
        DatasetConfig::s2(),
        DatasetConfig::s3(),
        DatasetConfig::s4(),
    ] {
        let dataset = generate(&dataset_config).unwrap();
        for seed in 1u64..=5 {
            let [exact, default] = [QuadratureMath::Exact, QuadratureMath::default()].map(|math| {
                let mut config = SelectorConfig::default();
                config.cpe.quadrature_math = math;
                evaluate_strategy(&dataset, &CrossDomainSelector::new(config), seed).unwrap()
            });
            if exact.selected == default.selected {
                assert_eq!(exact.working_accuracy, default.working_accuracy);
                assert_eq!(exact.expected_accuracy, default.expected_accuracy);
            } else {
                differing.push(format!(
                    "{} seed {seed}: {:?} vs {:?}",
                    dataset_config.name, exact.selected, default.selected
                ));
            }
        }
    }
    assert_eq!(
        differing.len(),
        CENSUS_DIFFERING_CELLS,
        "cells selecting differently: {differing:#?}"
    );
}
