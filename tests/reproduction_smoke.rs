//! Smoke tests of the paper-reproduction artefacts: Table II arithmetic, Table IV
//! consistency machinery, the Sec. V-H correlation diagnostics, and the Theorem 1/2
//! helpers — everything the benchmark harness builds on.

use c4u_crowd_sim::{
    consistency_report, generate, moments_row, DatasetConfig, Platform, DEFAULT_BUCKETS,
};
use c4u_selection::{theory, CrossDomainSelector, SelectorConfig};

#[test]
fn table2_dataset_parameters() {
    // |W|, Q, k, batches, B for every dataset of Table II (S-2 documented as a
    // formula-consistent exception under "Substitutions" in ARCHITECTURE.md).
    let expect = [
        ("RW-1", 27, 10, 7, 3, 540),
        ("RW-2", 35, 10, 9, 3, 700),
        ("S-1", 40, 20, 5, 7, 2400),
        ("S-3", 80, 20, 5, 15, 6400),
        ("S-4", 160, 20, 5, 31, 16000),
    ];
    let configs = DatasetConfig::all_paper_datasets();
    for (name, pool, q, k, batches, budget) in expect {
        let config = configs.iter().find(|c| c.name == name).unwrap();
        assert_eq!(config.pool_size, pool, "{name} |W|");
        assert_eq!(config.tasks_per_batch, q, "{name} Q");
        assert_eq!(config.select_k, k, "{name} k");
        assert_eq!(config.num_batches(), batches, "{name} batches");
        assert_eq!(config.budget(), budget, "{name} B");
    }
}

#[test]
fn table3_domain_descriptors_are_present() {
    let rw1 = DatasetConfig::rw1();
    let names: Vec<&str> = rw1.descriptors.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, vec!["Elephant", "Clownfish", "Plane", "Petunia"]);
    let rw2 = DatasetConfig::rw2();
    assert_eq!(rw2.descriptors.len(), 4);
    assert_eq!(rw2.descriptors[3].name, "Lenten rose");
}

#[test]
fn table4_moments_and_consistency() {
    let rw1 = generate(&DatasetConfig::rw1()).unwrap();
    let row = moments_row(&rw1);
    // Generated moments track the configured Table IV values (loose bounds: the
    // observed profiles are binomial draws over 10 tasks each).
    assert!(
        (row.prior[0].0 - 0.70).abs() < 0.12,
        "prior-1 mean {}",
        row.prior[0].0
    );
    assert!(
        (row.prior[1].0 - 0.88).abs() < 0.12,
        "prior-2 mean {}",
        row.prior[1].0
    );
    assert!(
        (row.target.0 - 0.55).abs() < 0.12,
        "target mean {}",
        row.target.0
    );

    // Consistency against a synthetic dataset is computable and bounded.
    let s1 = generate(&DatasetConfig::s1()).unwrap();
    let report = consistency_report(&rw1, &s1, DEFAULT_BUCKETS).unwrap();
    assert!(report.pearson.abs() <= 1.0);
    assert!(report.max_mean_gap < 0.2);
}

#[test]
fn estimated_correlations_are_reported_per_prior_domain() {
    // Sec. V-H: the method reports one learned correlation per prior domain. The
    // generated pools use positive cross-domain correlations, so the estimates
    // should be predominantly non-negative. Averaged over several answering-noise
    // seeds so the assertion does not hinge on any single random stream (a single
    // unlucky seed can push one correlation slightly negative).
    let dataset = generate(&DatasetConfig::rw1()).unwrap();
    let seeds = [4u64, 9, 14];
    let mut mean_correlations = vec![0.0; 3];
    for &seed in &seeds {
        let mut platform = Platform::from_dataset(&dataset, seed).unwrap();
        let mut config = SelectorConfig::default();
        config.cpe.epochs = 5;
        let report = CrossDomainSelector::new(config)
            .run(&mut platform, dataset.config.select_k)
            .unwrap();
        assert_eq!(report.target_correlations.len(), 3, "seed {seed}");
        for (mean, rho) in mean_correlations
            .iter_mut()
            .zip(&report.target_correlations)
        {
            assert!((-1.0..=1.0).contains(rho), "seed {seed}: rho {rho}");
            *mean += rho / seeds.len() as f64;
        }
    }
    assert!(
        mean_correlations.iter().filter(|r| **r >= -0.05).count() >= 2,
        "most seed-averaged correlations should be non-negative: {mean_correlations:?}"
    );
}

#[test]
fn theorem_helpers_scale_as_stated() {
    // Theorem 1: task count grows quadratically in 1/eps.
    let t1 = theory::tasks_for_guarantee(0.2, 0.1).unwrap();
    let t2 = theory::tasks_for_guarantee(0.1, 0.1).unwrap();
    assert!(t2 >= 4 * t1 - 4, "t({}) vs t({})", t1, t2);
    // Theorem 2: the bound shrinks with budget and grows with rounds * k.
    let base = theory::epsilon_bound(3, 5, 2400, 0.1).unwrap();
    assert!(theory::epsilon_bound(3, 5, 4800, 0.1).unwrap() < base);
    assert!(theory::epsilon_bound(6, 5, 2400, 0.1).unwrap() > base);
    // The delta schedule halves like Algorithm 4 line 15.
    let schedule = theory::delta_schedule(0.1, 3);
    assert_eq!(schedule.len(), 3);
    assert!((schedule[2] - 0.025).abs() < 1e-12);
}

#[test]
fn budget_is_never_exceeded_across_presets() {
    for config in [
        DatasetConfig::rw1(),
        DatasetConfig::rw2(),
        DatasetConfig::s1(),
    ] {
        let dataset = generate(&config).unwrap();
        let mut platform = Platform::from_dataset(&dataset, 6).unwrap();
        let mut sel_config = SelectorConfig::default();
        sel_config.cpe.epochs = 5;
        let report = CrossDomainSelector::new(sel_config)
            .run(&mut platform, config.select_k)
            .unwrap();
        assert!(
            report.outcome.budget_spent <= config.budget(),
            "{}: spent {} of {}",
            config.name,
            report.outcome.budget_spent,
            config.budget()
        );
    }
}
