//! A generated dataset: configuration and worker specifications.
//!
//! A [`Dataset`] is the immutable artefact produced by the generator (Sec. V-A of the
//! paper); a [`crate::Platform`] is then instantiated from it to run one experiment.
//! Keeping the two separate means every selection strategy can be evaluated on an
//! identical pool of workers, which is what makes the Table V comparison fair. Tasks
//! are counts taken from the configuration (`tasks_per_batch`, `working_tasks`):
//! answers are graded as they are drawn, so no task or gold label is stored.

use crate::config::DatasetConfig;
use crate::worker::WorkerSpec;
use crate::SimError;

/// A fully materialised dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The configuration the dataset was generated from.
    pub config: DatasetConfig,
    /// Latent specification of every worker in the pool.
    pub workers: Vec<WorkerSpec>,
}

impl Dataset {
    /// Creates a dataset after validating that its parts are mutually consistent.
    pub fn new(config: DatasetConfig, workers: Vec<WorkerSpec>) -> Result<Self, SimError> {
        config.validate()?;
        if workers.len() != config.pool_size {
            return Err(SimError::InvalidConfig {
                what: "number of generated workers must equal pool_size",
                value: workers.len() as f64,
            });
        }
        for w in &workers {
            if w.profile.num_domains() != config.num_prior_domains() {
                return Err(SimError::InvalidConfig {
                    what: "worker profile must cover every prior domain slot",
                    value: w.profile.num_domains() as f64,
                });
            }
        }
        Ok(Self { config, workers })
    }

    /// Number of workers in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Initial (pre-training) true target-domain accuracy of every worker.
    pub fn initial_target_accuracies(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| w.initial_target_accuracy)
            .collect()
    }

    /// Historical accuracy of every worker on prior domain `d` (gaps as `None`).
    pub fn prior_accuracies(&self, d: usize) -> Vec<Option<f64>> {
        self.workers.iter().map(|w| w.profile.accuracy(d)).collect()
    }

    /// Mean and standard deviation of the (observed) historical accuracy on prior
    /// domain `d`, ignoring workers without a record there.
    pub fn prior_domain_moments(&self, d: usize) -> (f64, f64) {
        let values: Vec<f64> = self
            .workers
            .iter()
            .filter_map(|w| w.profile.accuracy(d))
            .collect();
        (c4u_stats::mean(&values), c4u_stats::std_dev(&values))
    }

    /// Mean and standard deviation of the initial target-domain accuracy.
    pub fn target_domain_moments(&self) -> (f64, f64) {
        let values = self.initial_target_accuracies();
        (c4u_stats::mean(&values), c4u_stats::std_dev(&values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::HistoricalProfile;

    fn tiny_config() -> DatasetConfig {
        let mut c = DatasetConfig::rw1();
        c.pool_size = 4;
        c.select_k = 2;
        c.tasks_per_batch = 5;
        c.working_tasks = 10;
        c
    }

    fn spec(acc: f64) -> WorkerSpec {
        WorkerSpec {
            profile: HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
            initial_target_accuracy: acc,
            latent_prior_accuracies: vec![0.7, 0.8, 0.6],
            learning_aptitude: 0.0,
        }
    }

    #[test]
    fn construction_and_accessors() {
        let ds = Dataset::new(
            tiny_config(),
            vec![spec(0.4), spec(0.5), spec(0.6), spec(0.7)],
        )
        .unwrap();
        assert_eq!(ds.pool_size(), 4);
        assert_eq!(ds.initial_target_accuracies(), vec![0.4, 0.5, 0.6, 0.7]);
        assert_eq!(ds.prior_accuracies(0), vec![Some(0.7); 4]);
        let (mean, std) = ds.prior_domain_moments(0);
        assert!((mean - 0.7).abs() < 1e-12);
        assert!(std.abs() < 1e-12);
        let (tm, ts) = ds.target_domain_moments();
        assert!((tm - 0.55).abs() < 1e-12);
        assert!(ts > 0.0);
    }

    #[test]
    fn validation_of_worker_count_and_pools() {
        let config = tiny_config();
        // Wrong worker count.
        assert!(Dataset::new(config.clone(), vec![spec(0.5)]).is_err());
        // Wrong profile width.
        let bad = WorkerSpec {
            profile: HistoricalProfile::complete(vec![0.5], vec![10]).unwrap(),
            initial_target_accuracy: 0.5,
            latent_prior_accuracies: vec![0.5],
            learning_aptitude: 0.0,
        };
        assert!(Dataset::new(config, vec![bad, spec(0.5), spec(0.6), spec(0.7)]).is_err());
    }

    #[test]
    fn prior_moments_skip_workers_without_a_record() {
        let mut gap = spec(0.5);
        gap.profile =
            HistoricalProfile::new(vec![None, Some(0.8), Some(0.6)], vec![0, 10, 10]).unwrap();
        let ds = Dataset::new(tiny_config(), vec![gap, spec(0.5), spec(0.6), spec(0.7)]).unwrap();
        assert_eq!(ds.prior_accuracies(0)[0], None);
        let (mean, std) = ds.prior_domain_moments(0);
        assert!((mean - 0.7).abs() < 1e-12);
        assert!(std.abs() < 1e-12);
    }

    #[test]
    fn invalid_config_is_rejected_before_the_parts() {
        let mut config = tiny_config();
        config.select_k = 0;
        let err = Dataset::new(config, vec![spec(0.5); 4]).unwrap_err();
        assert!(err.to_string().contains("select_k"), "{err}");
    }
}
