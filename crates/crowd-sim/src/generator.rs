//! Synthetic dataset generation (Sec. V-A of the paper).
//!
//! Workers are sampled from a truncated `(D+1)`-dimensional multivariate normal over
//! `(0, 1)` whose per-domain means and standard deviations come from the dataset
//! configuration and whose pairwise correlations are drawn uniformly from `(0, 1)`.
//! Each sampled vector `[h_1, ..., h_D, h_T]` becomes one worker: the prior-domain
//! entries generate an *observed* historical profile by answering
//! `prior_tasks_per_domain` Bernoulli tasks per domain, and `h_T` is the worker's
//! true target-domain accuracy before any training. Learning dynamics (the modified
//! IRT update after each revealed batch) live in [`crate::SimulatedWorker`].

use crate::config::DatasetConfig;
use crate::dataset::Dataset;
use crate::worker::{HistoricalProfile, WorkerSpec};
use crate::SimError;
use c4u_stats::{Bernoulli, Matrix, MultivariateNormal, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates a full dataset from a configuration.
///
/// Generation is deterministic in `config.seed`: the same configuration always
/// produces the same workers, which is what makes every experiment in the benchmark
/// harness reproducible (`crates/crowd-sim/tests/generator_pins.rs` pins the pools).
/// Tasks are not generated: the platform takes their counts from the
/// configuration.
pub fn generate(config: &DatasetConfig) -> Result<Dataset, SimError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mvn = build_population_model(config, &mut rng)?;

    let mut workers = Vec::with_capacity(config.pool_size);
    for _ in 0..config.pool_size {
        workers.push(sample_worker_spec(&mvn, config, &mut rng)?);
    }

    // Learning aptitude: the z-score of each worker's average latent prior-domain
    // accuracy within the pool. Workers with broad cross-domain competence learn the
    // target domain faster than their pre-training target accuracy alone suggests —
    // the behavioural premise of the paper (see "Substitutions" in ARCHITECTURE.md).
    let averages: Vec<f64> = workers
        .iter()
        .map(|w| {
            w.latent_prior_accuracies.iter().sum::<f64>()
                / w.latent_prior_accuracies.len().max(1) as f64
        })
        .collect();
    let pool_mean = c4u_stats::mean(&averages);
    let pool_std = c4u_stats::std_dev(&averages).max(1e-6);
    for (worker, &avg) in workers.iter_mut().zip(averages.iter()) {
        worker.learning_aptitude = (avg - pool_mean) / pool_std;
    }

    apply_scenario(&mut workers, config)?;

    Dataset::new(config.clone(), workers)
}

/// Samples one worker specification from the population model, preserving the exact
/// RNG draw order of the original closed-world generator: one truncated MVN sample,
/// then `D` Bernoulli success counts (one per prior domain).
///
/// The churn scheduler reuses this routine (with its own RNG stream) so that joining
/// workers are drawn from the same population as the initial pool.
pub(crate) fn sample_worker_spec(
    mvn: &MultivariateNormal,
    config: &DatasetConfig,
    rng: &mut StdRng,
) -> Result<WorkerSpec, SimError> {
    let d = config.num_prior_domains();
    let v = mvn.sample_truncated(rng, 1e-3, 1.0 - 1e-3);
    let latent_prior: Vec<f64> = (0..d).map(|j| v[j]).collect();
    let target = v[d];

    // Observed historical profile: the worker answers `prior_tasks_per_domain`
    // Yes/No tasks on each prior domain with the latent accuracy.
    let mut observed = Vec::with_capacity(d);
    for &acc in &latent_prior {
        let bern = Bernoulli::new(acc.clamp(0.0, 1.0))?;
        let correct = bern.count_successes(rng, config.prior_tasks_per_domain);
        observed.push(Some(correct as f64 / config.prior_tasks_per_domain as f64));
    }
    let profile = HistoricalProfile::new(observed, vec![config.prior_tasks_per_domain; d])?;
    Ok(WorkerSpec {
        profile,
        initial_target_accuracy: target,
        latent_prior_accuracies: latent_prior,
        learning_aptitude: 0.0,
    })
}

/// Applies the adversarial-population overlay of the configured scenario.
///
/// The overlay rewrites already-sampled workers in place and draws no randomness,
/// so a configuration with zero spammer/colluder fractions produces a pool that is
/// bit-for-bit identical to the closed-world generator (the equivalence contract in
/// `tests/event_equivalence.rs` pins this).
///
/// * **Spammers** (last `round(n * spammer_fraction)` workers): keep their sampled
///   historical profile — which is what makes them deceptive to profile-based
///   selectors — but answer the target domain at coin-flip accuracy and never learn.
/// * **Colluders** (first `round(n * colluder_fraction)` workers): share one
///   fabricated high-accuracy profile, as if they had copied each other's history,
///   while their true target accuracy is poor and training makes them worse.
fn apply_scenario(workers: &mut [WorkerSpec], config: &DatasetConfig) -> Result<(), SimError> {
    let scenario = &config.scenario;
    let n = workers.len();
    let d = config.num_prior_domains();

    let num_colluders = (n as f64 * scenario.colluder_fraction).round() as usize;
    if num_colluders > 0 {
        let shared =
            HistoricalProfile::new(vec![Some(0.9); d], vec![config.prior_tasks_per_domain; d])?;
        for w in workers.iter_mut().take(num_colluders) {
            w.profile = shared.clone();
            w.initial_target_accuracy = 0.45;
            w.latent_prior_accuracies = vec![0.9; d];
            w.learning_aptitude = -1.0;
        }
    }

    let num_spammers = (n as f64 * scenario.spammer_fraction).round() as usize;
    if num_spammers > 0 {
        for w in workers.iter_mut().skip(n.saturating_sub(num_spammers)) {
            w.initial_target_accuracy = 0.5;
            w.learning_aptitude = 0.0;
        }
    }

    Ok(())
}

/// Builds the `(D+1)`-dimensional truncated-normal population model of Sec. V-A:
/// means/std-devs from the configuration, positive cross-domain correlations from a
/// single-factor ("general worker ability") structure.
///
/// The paper draws the pairwise correlation parameters uniformly from `(0, 1)`; an
/// arbitrary matrix of such draws is usually not positive definite, so this generator
/// realises the same idea through per-domain factor loadings `lambda_d` (drawn
/// uniformly unless pinned by [`DatasetConfig::factor_loadings`]) and
/// `rho(i, j) = lambda_i * lambda_j`, which always yields a valid correlation matrix
/// with entries spread over `(0, 1)`.
pub fn build_population_model(
    config: &DatasetConfig,
    rng: &mut StdRng,
) -> Result<MultivariateNormal, SimError> {
    let d = config.num_prior_domains();
    let mut means = Vec::with_capacity(d + 1);
    let mut stds = Vec::with_capacity(d + 1);
    for s in &config.prior_stats {
        means.push(s.mean);
        stds.push(s.std_dev);
    }
    means.push(config.target_stats.mean);
    stds.push(config.target_stats.std_dev);

    let loadings: Vec<f64> = match &config.factor_loadings {
        Some(l) if l.len() == d + 1 => l.iter().map(|v| v.clamp(0.0, 0.999)).collect(),
        Some(_) => {
            return Err(SimError::InvalidConfig {
                what: "factor_loadings must have one entry per domain plus the target",
                value: config
                    .factor_loadings
                    .as_ref()
                    .map(|l| l.len())
                    .unwrap_or(0) as f64,
            })
        }
        None => {
            let uniform = Uniform::new(0.45, 0.95)?;
            (0..d + 1).map(|_| uniform.sample(rng)).collect()
        }
    };

    let mut corr = Matrix::identity(d + 1);
    for i in 0..(d + 1) {
        for j in (i + 1)..(d + 1) {
            let rho = (loadings[i] * loadings[j]).clamp(0.0, 0.999);
            corr[(i, j)] = rho;
            corr[(j, i)] = rho;
        }
    }
    Ok(MultivariateNormal::from_correlations(&means, &stds, &corr)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_stats::{mean, std_dev};

    #[test]
    fn generation_is_deterministic() {
        let config = DatasetConfig::rw1();
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.workers, b.workers);
    }

    #[test]
    fn different_seeds_give_different_pools() {
        let config = DatasetConfig::rw1();
        let a = generate(&config).unwrap();
        let b = generate(&config.with_seed(12345)).unwrap();
        assert_ne!(a.initial_target_accuracies(), b.initial_target_accuracies());
    }

    #[test]
    fn generated_sizes_match_configuration() {
        for config in DatasetConfig::all_paper_datasets() {
            let ds = generate(&config).unwrap();
            assert_eq!(ds.pool_size(), config.pool_size, "{}", config.name);
            // Every worker profile covers every prior domain.
            for w in &ds.workers {
                assert_eq!(w.profile.num_domains(), config.num_prior_domains());
                assert_eq!(
                    w.profile.observed_accuracies().len(),
                    config.num_prior_domains()
                );
                assert!((0.0..=1.0).contains(&w.initial_target_accuracy));
            }
        }
    }

    #[test]
    fn accuracies_stay_in_unit_interval() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        for w in &ds.workers {
            for d in 0..3 {
                let a = w.profile.accuracy(d).unwrap();
                assert!((0.0..=1.0).contains(&a));
            }
            for &a in &w.latent_prior_accuracies {
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn generated_moments_approximate_configuration() {
        // With 160 workers (S-4) the sample moments should be near the configured
        // truncated-normal parameters (truncation pulls extreme means inward a bit).
        let config = DatasetConfig::s4();
        let ds = generate(&config).unwrap();
        let targets = ds.initial_target_accuracies();
        let m = mean(&targets);
        let s = std_dev(&targets);
        assert!(
            (m - config.target_stats.mean).abs() < 0.08,
            "target mean {m} vs {}",
            config.target_stats.mean
        );
        assert!(s > 0.05 && s < 0.35, "target std {s}");
        for d in 0..3 {
            let (pm, _) = ds.prior_domain_moments(d);
            assert!(
                (pm - config.prior_stats[d].mean).abs() < 0.1,
                "domain {d} mean {pm} vs {}",
                config.prior_stats[d].mean
            );
        }
    }

    #[test]
    fn profiles_are_quantised_by_task_count() {
        // Observed profile accuracies are multiples of 1/prior_tasks_per_domain.
        let config = DatasetConfig::rw1();
        let ds = generate(&config).unwrap();
        let q = config.prior_tasks_per_domain as f64;
        for w in &ds.workers {
            for d in 0..3 {
                let a = w.profile.accuracy(d).unwrap();
                let scaled = a * q;
                assert!((scaled - scaled.round()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn population_model_has_requested_dimension() {
        let config = DatasetConfig::rw1();
        let mut rng = StdRng::seed_from_u64(0);
        let mvn = build_population_model(&config, &mut rng).unwrap();
        assert_eq!(mvn.dim(), 4);
        // Correlations are in (0, 1) as specified by the paper.
        for i in 0..4 {
            for j in 0..4 {
                let rho = mvn.correlation(i, j).unwrap();
                if i == j {
                    assert!((rho - 1.0).abs() < 1e-9);
                } else {
                    assert!((0.0..=1.0).contains(&rho), "rho {rho}");
                }
            }
        }
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let mut config = DatasetConfig::rw1();
        config.pool_size = 0;
        assert!(generate(&config).is_err());
    }

    #[test]
    fn closed_world_scenario_is_bit_identical_to_plain_generation() {
        use crate::config::ScenarioConfig;
        let plain = generate(&DatasetConfig::rw1()).unwrap();
        let scoped = generate(&DatasetConfig {
            scenario: ScenarioConfig::none(),
            ..DatasetConfig::rw1()
        })
        .unwrap();
        assert_eq!(plain.workers, scoped.workers);
    }

    #[test]
    fn spammer_scenario_rewrites_only_the_tail_of_the_pool() {
        let base = generate(&DatasetConfig::rw1()).unwrap();
        let config = DatasetConfig::rw1_spammers();
        let ds = generate(&config).unwrap();
        let n = ds.pool_size();
        let k = (n as f64 * config.scenario.spammer_fraction).round() as usize;
        assert!(k > 0);
        for (i, w) in ds.workers.iter().enumerate() {
            if i >= n - k {
                assert_eq!(w.initial_target_accuracy, 0.5, "worker {i} is a spammer");
                assert_eq!(w.learning_aptitude, 0.0);
                // The deceptive part: the sampled historical profile is untouched.
                assert_eq!(w.profile, base.workers[i].profile);
            } else {
                assert_eq!(
                    w.initial_target_accuracy,
                    base.workers[i].initial_target_accuracy
                );
            }
        }
    }

    #[test]
    fn colluder_scenario_shares_one_fabricated_profile() {
        let config = DatasetConfig::rw1_colluders();
        let ds = generate(&config).unwrap();
        let n = ds.pool_size();
        let k = (n as f64 * config.scenario.colluder_fraction).round() as usize;
        assert!(k > 1);
        let shared = &ds.workers[0].profile;
        for (i, w) in ds.workers.iter().enumerate().take(k) {
            assert_eq!(&w.profile, shared, "colluder {i} shares the profile");
            assert_eq!(w.initial_target_accuracy, 0.45);
            assert!(w.learning_aptitude < 0.0);
        }
        assert_ne!(&ds.workers[k].profile, shared);
    }

    #[test]
    fn drift_and_churn_scenarios_leave_the_generated_pool_alone() {
        // Drift acts on the platform's learning dynamics and churn on the
        // campaign schedule; neither may perturb the initial pool.
        let plain = generate(&DatasetConfig::rw1()).unwrap();
        for config in [DatasetConfig::rw1_drift(), DatasetConfig::rw1_churn()] {
            let ds = generate(&config).unwrap();
            assert_eq!(ds.workers, plain.workers, "{}", config.name);
        }
    }
}
