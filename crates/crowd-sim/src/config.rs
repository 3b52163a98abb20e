//! Dataset configurations: the RW-1 / RW-2 real-world surrogates and the S-1..S-4
//! synthetic datasets of the paper, plus the budget arithmetic of Table II.
//!
//! The paper fixes, per dataset: the worker-pool size `|W|`, the number of learning
//! tasks per batch `Q`, the number of selected workers `k`, and derives the number of
//! elimination rounds `n = ceil(log2(|W| / k))`, the total budget
//! `B = n * Q * |W|`, and the number of batches `2^n - 1` (Table II). The per-domain
//! accuracy means and standard deviations used to generate workers come from
//! Table IV (RW-1 and S-1..S-4); for RW-2 — whose moments are not published — we use
//! values consistent with the accuracy-uplift figures of Sec. V-H (see
//! "Substitutions" in ARCHITECTURE.md).

use crate::domain::{Domain, DomainDescriptor, FeatureKind};
use crate::SimError;

/// Per-domain mean and standard deviation of worker accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainStats {
    /// Mean worker accuracy on the domain.
    pub mean: f64,
    /// Standard deviation of worker accuracy on the domain.
    pub std_dev: f64,
}

impl DomainStats {
    /// Creates domain statistics; the mean must lie in `[0, 1]` and the standard
    /// deviation must be positive.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&mean) || mean.is_nan() {
            return Err(SimError::InvalidConfig {
                what: "domain mean accuracy must lie in [0, 1]",
                value: mean,
            });
        }
        if std_dev <= 0.0 || !std_dev.is_finite() {
            return Err(SimError::InvalidConfig {
                what: "domain accuracy std-dev must be finite and > 0",
                value: std_dev,
            });
        }
        Ok(Self { mean, std_dev })
    }
}

/// Population scenario overlay for robustness experiments.
///
/// The paper's datasets are closed-world and benign; production campaigns are
/// not. A scenario deforms the generated population (spammers, colluders),
/// the learning dynamics (drift), or the campaign membership (churn), so the
/// Table-4-style robustness sweep can measure how each estimator degrades.
/// The default scenario is the identity: every field zero, and the generator
/// then performs **exactly** the same RNG draws as before this type existed,
/// so all closed-world results are bit-for-bit unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Fraction of the pool generated as spammers: workers whose historical
    /// profile looks ordinary but whose true target-domain accuracy is chance
    /// (0.5) and who never improve with training.
    pub spammer_fraction: f64,
    /// Fraction of the pool generated as colluders: a group sharing one
    /// fabricated, uniformly strong historical profile while their true
    /// target-domain accuracy is below chance-plus-noise.
    pub colluder_fraction: f64,
    /// Per-revealed-task accuracy decay (fatigue-style drift): each learning
    /// task lowers the worker's true target accuracy by this amount on top of
    /// the IRT learning curve. Zero disables drift exactly.
    pub accuracy_drift: f64,
    /// Workers joining the campaign per mid-campaign round in the churn
    /// schedule preset ([`crate::CampaignSchedule::churn`]).
    pub churn_joins_per_round: usize,
    /// Departures per mid-campaign round in the churn schedule preset.
    pub churn_leaves_per_round: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            spammer_fraction: 0.0,
            colluder_fraction: 0.0,
            accuracy_drift: 0.0,
            churn_joins_per_round: 0,
            churn_leaves_per_round: 0,
        }
    }
}

impl ScenarioConfig {
    /// The identity scenario: a benign, closed-world population.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates the scenario parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        for (what, value) in [
            ("spammer_fraction must lie in [0, 1)", self.spammer_fraction),
            (
                "colluder_fraction must lie in [0, 1)",
                self.colluder_fraction,
            ),
        ] {
            if !(0.0..1.0).contains(&value) || value.is_nan() {
                return Err(SimError::InvalidConfig { what, value });
            }
        }
        if self.spammer_fraction + self.colluder_fraction >= 1.0 {
            return Err(SimError::InvalidConfig {
                what: "spammer and colluder fractions must sum below 1",
                value: self.spammer_fraction + self.colluder_fraction,
            });
        }
        if !(0.0..0.5).contains(&self.accuracy_drift) || self.accuracy_drift.is_nan() {
            return Err(SimError::InvalidConfig {
                what: "accuracy_drift must lie in [0, 0.5)",
                value: self.accuracy_drift,
            });
        }
        Ok(())
    }
}

/// Full specification of a dataset to be generated by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Human-readable name ("RW-1", "S-3", ...).
    pub name: String,
    /// Worker-pool size `|W|`.
    pub pool_size: usize,
    /// Learning tasks per batch `Q`.
    pub tasks_per_batch: usize,
    /// Number of workers to select `k`.
    pub select_k: usize,
    /// Accuracy statistics of each prior domain (length `D`).
    pub prior_stats: Vec<DomainStats>,
    /// Accuracy statistics of the target domain.
    pub target_stats: DomainStats,
    /// Number of historical tasks each worker completed per prior domain (`n_{i,d}`).
    pub prior_tasks_per_domain: usize,
    /// Number of working tasks used for evaluation.
    pub working_tasks: usize,
    /// Base random seed for dataset generation.
    pub seed: u64,
    /// Descriptive domain metadata (Table III); optional, may be empty for synthetic
    /// datasets.
    pub descriptors: Vec<DomainDescriptor>,
    /// Optional single-factor loadings (length `D + 1`, prior domains first, target
    /// last) that fix the cross-domain correlation structure:
    /// `rho(i, j) = loading_i * loading_j`. When `None` the loadings are drawn
    /// uniformly at random per dataset seed, which realises the paper's
    /// "correlations uniformly random in (0, 1)" recipe with a guaranteed
    /// positive-definite matrix. The RW-1/RW-2 presets pin the loadings so that the
    /// implied prior/target correlations match the values the paper reports in
    /// Sec. V-H.
    pub factor_loadings: Option<Vec<f64>>,
    /// Robustness scenario overlay (spammers, colluders, drift, churn). The
    /// default is the closed-world identity scenario, under which generation
    /// is bit-for-bit what it was before scenarios existed.
    pub scenario: ScenarioConfig,
}

impl DatasetConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.pool_size == 0 {
            return Err(SimError::InvalidConfig {
                what: "pool_size must be >= 1",
                value: 0.0,
            });
        }
        if self.select_k == 0 || self.select_k > self.pool_size {
            return Err(SimError::InvalidConfig {
                what: "select_k must lie in [1, pool_size]",
                value: self.select_k as f64,
            });
        }
        if self.tasks_per_batch == 0 {
            return Err(SimError::InvalidConfig {
                what: "tasks_per_batch must be >= 1",
                value: 0.0,
            });
        }
        if self.prior_stats.is_empty() {
            return Err(SimError::InvalidConfig {
                what: "at least one prior domain is required",
                value: 0.0,
            });
        }
        if self.prior_tasks_per_domain == 0 {
            return Err(SimError::InvalidConfig {
                what: "prior_tasks_per_domain must be >= 1",
                value: 0.0,
            });
        }
        if self.working_tasks == 0 {
            return Err(SimError::InvalidConfig {
                what: "working_tasks must be >= 1",
                value: 0.0,
            });
        }
        self.scenario.validate()
    }

    /// Number of prior domains `D`.
    pub fn num_prior_domains(&self) -> usize {
        self.prior_stats.len()
    }

    /// Number of elimination rounds `n = ceil(log2(|W| / k))` (Eq. 12).
    pub fn rounds(&self) -> usize {
        rounds_for(self.pool_size, self.select_k)
    }

    /// Total budget `B = n * Q * |W|` (Table II).
    pub fn budget(&self) -> usize {
        self.rounds() * self.tasks_per_batch * self.pool_size
    }

    /// Per-round budget `t = floor(B / n) = Q * |W|` (Eq. 13).
    pub fn per_round_budget(&self) -> usize {
        if self.rounds() == 0 {
            0
        } else {
            self.budget() / self.rounds()
        }
    }

    /// Number of learning batches each surviving worker completes in total:
    /// `2^n - 1` (Table II).
    pub fn num_batches(&self) -> usize {
        (1usize << self.rounds()).saturating_sub(1)
    }

    /// A copy of this configuration with a different per-batch task count (used by
    /// the Figure 7 sensitivity sweep).
    pub fn with_tasks_per_batch(&self, q: usize) -> Self {
        Self {
            tasks_per_batch: q,
            ..self.clone()
        }
    }

    /// A copy of this configuration with a different generation seed (used for
    /// repeated trials).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// RW-1 with a 20% spammer sub-population: ordinary-looking profiles,
    /// chance-level target accuracy, no learning.
    pub fn rw1_spammers() -> Self {
        let mut config = Self::rw1();
        config.name = "RW-1-spam".to_string();
        config.scenario.spammer_fraction = 0.2;
        config
    }

    /// RW-1 with a 20% colluder group: one shared, fabricated strong profile
    /// hiding below-average target-domain accuracy.
    pub fn rw1_colluders() -> Self {
        let mut config = Self::rw1();
        config.name = "RW-1-collude".to_string();
        config.scenario.colluder_fraction = 0.2;
        config
    }

    /// RW-1 with fatigue-style accuracy drift: every revealed learning task
    /// erodes the trained accuracy slightly.
    pub fn rw1_drift() -> Self {
        let mut config = Self::rw1();
        config.name = "RW-1-drift".to_string();
        config.scenario.accuracy_drift = 0.002;
        config
    }

    /// RW-1 with worker churn: two joins and one departure per mid-campaign
    /// round (consumed by [`crate::CampaignSchedule::churn`]).
    pub fn rw1_churn() -> Self {
        let mut config = Self::rw1();
        config.name = "RW-1-churn".to_string();
        config.scenario.churn_joins_per_round = 2;
        config.scenario.churn_leaves_per_round = 1;
        config
    }

    /// The robustness-sweep scenario family: the closed-world baseline plus the
    /// four stress presets, all over the RW-1 pool.
    pub fn robustness_scenarios() -> Vec<Self> {
        vec![
            Self::rw1(),
            Self::rw1_spammers(),
            Self::rw1_colluders(),
            Self::rw1_drift(),
            Self::rw1_churn(),
        ]
    }

    /// The RW-1 surrogate: 27 workers, Q = 10, k = 7; prior domains elephant /
    /// clownfish / plane, target petunia. Accuracy moments from Table IV.
    pub fn rw1() -> Self {
        Self {
            name: "RW-1".to_string(),
            pool_size: 27,
            tasks_per_batch: 10,
            select_k: 7,
            prior_stats: vec![
                DomainStats::new(0.70, 0.22).expect("valid"),
                DomainStats::new(0.88, 0.10).expect("valid"),
                DomainStats::new(0.58, 0.25).expect("valid"),
            ],
            target_stats: DomainStats::new(0.55, 0.17).expect("valid"),
            prior_tasks_per_domain: 20,
            working_tasks: 30,
            seed: 0xC4_01,
            descriptors: vec![
                DomainDescriptor::new(
                    Domain::Prior(0),
                    "Elephant",
                    FeatureKind::ColorAndShape,
                    "Animal",
                ),
                DomainDescriptor::new(
                    Domain::Prior(1),
                    "Clownfish",
                    FeatureKind::ColorAndShape,
                    "Animal",
                ),
                DomainDescriptor::new(Domain::Prior(2), "Plane", FeatureKind::Size, "Machine"),
                DomainDescriptor::new(
                    Domain::Target,
                    "Petunia",
                    FeatureKind::ColorAndShape,
                    "Plant",
                ),
            ],
            // Implied correlations with the target: 0.65 (elephant), 0.69 (fish),
            // 0.50 (plane) — the values the paper estimates on RW-1 (Sec. V-H).
            factor_loadings: Some(vec![0.76, 0.81, 0.59, 0.85]),
            scenario: ScenarioConfig::default(),
        }
    }

    /// The RW-2 surrogate: 35 workers, Q = 10, k = 9; prior domains Peruvian lily /
    /// red fox / English marigold, target Lenten rose. The accuracy moments are not
    /// published; the values here are chosen to be consistent with the Sec. V-H
    /// uplift figures (average accuracy 0.65 before training, high-performing pool).
    pub fn rw2() -> Self {
        Self {
            name: "RW-2".to_string(),
            pool_size: 35,
            tasks_per_batch: 10,
            select_k: 9,
            prior_stats: vec![
                DomainStats::new(0.78, 0.16).expect("valid"),
                DomainStats::new(0.85, 0.12).expect("valid"),
                DomainStats::new(0.72, 0.18).expect("valid"),
            ],
            target_stats: DomainStats::new(0.65, 0.18).expect("valid"),
            prior_tasks_per_domain: 20,
            working_tasks: 30,
            seed: 0xC4_02,
            descriptors: vec![
                DomainDescriptor::new(
                    Domain::Prior(0),
                    "Peruvian lily",
                    FeatureKind::Color,
                    "Plant",
                ),
                DomainDescriptor::new(Domain::Prior(1), "Red fox", FeatureKind::Shape, "Animal"),
                DomainDescriptor::new(
                    Domain::Prior(2),
                    "English marigold",
                    FeatureKind::Shape,
                    "Plant",
                ),
                DomainDescriptor::new(Domain::Target, "Lenten rose", FeatureKind::Shape, "Plant"),
            ],
            // Implied correlations with the target: 0.23 (Peruvian lily), 0.10
            // (red fox), 0.68 (English marigold) — the Sec. V-H estimates for RW-2.
            factor_loadings: Some(vec![0.29, 0.13, 0.85, 0.80]),
            scenario: ScenarioConfig::default(),
        }
    }

    /// Synthetic dataset S-1: 40 workers, Q = 20, k = 5 (Table II / Table IV).
    pub fn s1() -> Self {
        Self::synthetic(
            "S-1",
            40,
            (0.72, 0.23),
            (0.86, 0.13),
            (0.53, 0.29),
            (0.49, 0.18),
            0xC4_11,
        )
    }

    /// Synthetic dataset S-2: 50 workers, Q = 20, k = 5.
    pub fn s2() -> Self {
        Self::synthetic(
            "S-2",
            50,
            (0.64, 0.27),
            (0.83, 0.15),
            (0.51, 0.25),
            (0.51, 0.20),
            0xC4_12,
        )
    }

    /// Synthetic dataset S-3: 80 workers, Q = 20, k = 5.
    pub fn s3() -> Self {
        Self::synthetic(
            "S-3",
            80,
            (0.66, 0.26),
            (0.87, 0.13),
            (0.54, 0.27),
            (0.50, 0.18),
            0xC4_13,
        )
    }

    /// Synthetic dataset S-4: 160 workers, Q = 20, k = 5.
    pub fn s4() -> Self {
        Self::synthetic(
            "S-4",
            160,
            (0.68, 0.25),
            (0.87, 0.13),
            (0.54, 0.27),
            (0.50, 0.18),
            0xC4_14,
        )
    }

    /// All six evaluation datasets in the order used by the paper's tables.
    pub fn all_paper_datasets() -> Vec<Self> {
        vec![
            Self::rw1(),
            Self::rw2(),
            Self::s1(),
            Self::s2(),
            Self::s3(),
            Self::s4(),
        ]
    }

    fn synthetic(
        name: &str,
        pool_size: usize,
        p1: (f64, f64),
        p2: (f64, f64),
        p3: (f64, f64),
        target: (f64, f64),
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            pool_size,
            tasks_per_batch: 20,
            select_k: 5,
            prior_stats: vec![
                DomainStats::new(p1.0, p1.1).expect("valid"),
                DomainStats::new(p2.0, p2.1).expect("valid"),
                DomainStats::new(p3.0, p3.1).expect("valid"),
            ],
            target_stats: DomainStats::new(target.0, target.1).expect("valid"),
            prior_tasks_per_domain: 20,
            working_tasks: 60,
            seed,
            descriptors: Vec::new(),
            factor_loadings: None,
            scenario: ScenarioConfig::default(),
        }
    }
}

/// Number of elimination rounds `n = ceil(log2(pool_size / k))` (Eq. 12), with a
/// minimum of one round so that at least one training pass always happens.
pub fn rounds_for(pool_size: usize, k: usize) -> usize {
    if pool_size == 0 || k == 0 || k >= pool_size {
        return 1;
    }
    let ratio = pool_size as f64 / k as f64;
    (ratio.log2().ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_validation() {
        assert!(DomainStats::new(0.5, 0.2).is_ok());
        assert!(DomainStats::new(-0.1, 0.2).is_err());
        assert!(DomainStats::new(1.5, 0.2).is_err());
        assert!(DomainStats::new(0.5, 0.0).is_err());
        assert!(DomainStats::new(0.5, f64::NAN).is_err());
    }

    #[test]
    fn rounds_formula_matches_paper() {
        // RW-1: ceil(log2(27/7)) = 2; RW-2: ceil(log2(35/9)) = 2;
        // S-1: ceil(log2(40/5)) = 3; S-2: ceil(log2(50/5)) = 4? No: log2(10) = 3.32 -> 4.
        assert_eq!(rounds_for(27, 7), 2);
        assert_eq!(rounds_for(35, 9), 2);
        assert_eq!(rounds_for(40, 5), 3);
        assert_eq!(rounds_for(80, 5), 4);
        assert_eq!(rounds_for(160, 5), 5);
        // Degenerate cases clamp to one round.
        assert_eq!(rounds_for(10, 10), 1);
        assert_eq!(rounds_for(10, 20), 1);
        assert_eq!(rounds_for(0, 5), 1);
        assert_eq!(rounds_for(10, 0), 1);
    }

    #[test]
    fn table2_budgets_are_reproduced() {
        // Table II: RW-1 B=540, RW-2 B=700, S-1 B=2400, S-3 B=6400, S-4 B=16000.
        assert_eq!(DatasetConfig::rw1().budget(), 540);
        assert_eq!(DatasetConfig::rw2().budget(), 700);
        assert_eq!(DatasetConfig::s1().budget(), 2400);
        assert_eq!(DatasetConfig::s3().budget(), 6400);
        assert_eq!(DatasetConfig::s4().budget(), 16000);
        // Batch counts: RW 3, S-1 7, S-3 15, S-4 31.
        assert_eq!(DatasetConfig::rw1().num_batches(), 3);
        assert_eq!(DatasetConfig::s1().num_batches(), 7);
        assert_eq!(DatasetConfig::s3().num_batches(), 15);
        assert_eq!(DatasetConfig::s4().num_batches(), 31);
    }

    #[test]
    fn s2_budget_follows_formula() {
        // Table II lists S-2 with B = 3000 and 7 batches, which corresponds to
        // n = 3 rounds; ceil(log2(50/5)) is 4, so the paper evidently uses the
        // S-1 round count for S-2. We follow the formula (Eq. 12) and document the
        // resulting budget.
        let s2 = DatasetConfig::s2();
        assert_eq!(s2.rounds(), 4);
        assert_eq!(s2.budget(), 4 * 20 * 50);
        assert_eq!(s2.per_round_budget(), 20 * 50);
    }

    #[test]
    fn per_round_budget_and_pool_sizes() {
        let rw1 = DatasetConfig::rw1();
        assert_eq!(rw1.per_round_budget(), 270);
        assert_eq!(rw1.num_prior_domains(), 3);
        let s1 = DatasetConfig::s1();
        assert_eq!(s1.per_round_budget(), 800);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = DatasetConfig::rw1();
        assert!(c.validate().is_ok());
        c.select_k = 0;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.select_k = 100;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.pool_size = 0;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.tasks_per_batch = 0;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.prior_stats.clear();
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.prior_tasks_per_domain = 0;
        assert!(c.validate().is_err());
        let mut c = DatasetConfig::rw1();
        c.working_tasks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sweep_helpers_change_only_one_field() {
        let base = DatasetConfig::s1();
        let q30 = base.with_tasks_per_batch(30);
        assert_eq!(q30.tasks_per_batch, 30);
        assert_eq!(q30.select_k, base.select_k);
        assert_eq!(q30.pool_size, base.pool_size);
        let s = base.with_seed(42);
        assert_eq!(s.seed, 42);
        assert_eq!(s.name, base.name);
    }

    #[test]
    fn paper_dataset_list_is_complete_and_valid() {
        let all = DatasetConfig::all_paper_datasets();
        assert_eq!(all.len(), 6);
        let names: Vec<_> = all.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec!["RW-1", "RW-2", "S-1", "S-2", "S-3", "S-4"]);
        for c in &all {
            c.validate().unwrap();
            assert_eq!(c.num_prior_domains(), 3);
        }
        // Real-world configs carry Table III descriptors; synthetic ones do not.
        assert_eq!(all[0].descriptors.len(), 4);
        assert_eq!(all[1].descriptors.len(), 4);
        assert!(all[2].descriptors.is_empty());
    }

    #[test]
    fn scenario_validation_rejects_out_of_range_values() {
        assert!(ScenarioConfig::none().validate().is_ok());
        let bad = [
            (1.0, 0.0, 0.0),
            (-0.1, 0.0, 0.0),
            (f64::NAN, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.6, 0.4, 0.0),
            (0.0, 0.0, 0.5),
            (0.0, 0.0, -0.01),
            (0.0, 0.0, f64::NAN),
        ];
        for (spammer_fraction, colluder_fraction, accuracy_drift) in bad {
            let s = ScenarioConfig {
                spammer_fraction,
                colluder_fraction,
                accuracy_drift,
                ..ScenarioConfig::none()
            };
            assert!(s.validate().is_err(), "{s:?}");
            let config = DatasetConfig {
                scenario: s,
                ..DatasetConfig::rw1()
            };
            assert!(config.validate().is_err());
        }
    }

    #[test]
    fn robustness_presets_only_change_the_scenario() {
        let base = DatasetConfig::rw1();
        let all = DatasetConfig::robustness_scenarios();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].scenario, ScenarioConfig::none());
        for c in &all[1..] {
            c.validate().unwrap();
            assert_ne!(c.scenario, ScenarioConfig::none(), "{}", c.name);
            assert_ne!(c.name, base.name);
            let reset = DatasetConfig {
                name: base.name.clone(),
                scenario: ScenarioConfig::none(),
                ..c.clone()
            };
            assert_eq!(reset, base);
        }
    }

    #[test]
    fn rw_loadings_imply_the_reported_target_correlations() {
        // Sec. V-H: RW-1 0.65 / 0.69 / 0.50, RW-2 0.23 / 0.10 / 0.68.
        for (config, expected) in [
            (DatasetConfig::rw1(), [0.65, 0.69, 0.50]),
            (DatasetConfig::rw2(), [0.23, 0.10, 0.68]),
        ] {
            let loadings = config.factor_loadings.expect("pinned");
            assert_eq!(loadings.len(), config.prior_stats.len() + 1);
            for (d, rho) in expected.iter().enumerate() {
                assert!((loadings[d] * loadings[3] - rho).abs() < 0.01, "{d}");
            }
        }
        assert!(DatasetConfig::s3().factor_loadings.is_none());
    }

    #[test]
    fn per_round_budget_is_q_times_pool_for_every_dataset() {
        for c in DatasetConfig::all_paper_datasets() {
            assert_eq!(c.per_round_budget(), c.tasks_per_batch * c.pool_size);
        }
    }
}
