//! The Li et al. baseline: linear regression on worker profile features.
//!
//! Li, Zhao and Fuxman ("The wisdom of minority", WWW 2014) discover and target the
//! right group of workers by regressing worker quality on profile features. The
//! paper's adaptation (Sec. V-B) uses each worker's historical per-domain accuracies
//! as the features: the budget is spent uniformly to observe every worker's accuracy
//! on target-domain golden questions, a linear model from profile features to the
//! observed accuracy is fitted, and the top-`k` workers by *regressed* value are
//! selected.

use crate::me::{top_k, ScoredWorker};
use crate::ols::LinearRegression;
use crate::selector::{SelectionOutcome, WorkerSelector};
use crate::SelectionError;
use c4u_crowd_sim::Platform;

/// The Li et al. linear-regression baseline.
#[derive(Debug, Clone, Default)]
pub struct LiEtAl;

impl LiEtAl {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl WorkerSelector for LiEtAl {
    fn name(&self) -> &str {
        "Li et al."
    }

    fn select(
        &self,
        platform: &mut Platform,
        k: usize,
    ) -> Result<SelectionOutcome, SelectionError> {
        let workers = platform.worker_ids();
        if workers.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        if k == 0 || k > workers.len() {
            return Err(SelectionError::InvalidConfig {
                what: "k must lie in [1, pool_size]",
                value: k as f64,
            });
        }

        // Spend the budget uniformly to obtain a target-domain accuracy observation
        // per worker (the regression target).
        let tasks_per_worker = (platform.budget_total() / workers.len()).max(1);
        let record = platform.assign_learning_batch(&workers, tasks_per_worker)?;

        // Feature rows: dense historical accuracies (missing domains imputed with
        // 0.5, the uninformative accuracy of a Yes/No task).
        let mut features = Vec::with_capacity(workers.len());
        let mut targets = Vec::with_capacity(workers.len());
        for sheet in &record.sheets {
            let profile = platform.profile(sheet.worker)?;
            features.push(profile.dense_accuracies(0.5));
            targets.push(sheet.accuracy());
        }
        let model = LinearRegression::fit(&features, &targets)?;

        let scored: Vec<ScoredWorker> = record
            .sheets
            .iter()
            .zip(features.iter())
            .map(|(sheet, row)| {
                let value = model.predict(row)?;
                Ok(ScoredWorker::new(sheet.worker, value))
            })
            .collect::<Result<_, SelectionError>>()?;

        let selected = top_k(&scored, k);
        let scores = selected
            .iter()
            .map(|w| {
                scored
                    .iter()
                    .find(|s| s.worker == *w)
                    .map(|s| s.score)
                    .unwrap_or(0.0)
            })
            .collect();
        Ok(SelectionOutcome::new(selected, 1, platform.budget_spent()).with_scores(scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::replay;
    use c4u_crowd_sim::{generate, DatasetConfig};

    #[test]
    fn selects_k_workers_by_regressed_value() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = LiEtAl::new().select(&mut platform, 7).unwrap();
        assert_eq!(outcome.selected.len(), 7);
        assert_eq!(outcome.rounds, 1);
        assert!(outcome.budget_spent <= platform.budget_total());
        assert_eq!(outcome.scores.len(), 7);
    }

    #[test]
    fn regression_exploits_the_cross_domain_signal() {
        // The generated pools have positive cross-domain correlation, so the workers
        // picked by the regression should beat the pool average in true accuracy.
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 9).unwrap();
        let outcome = LiEtAl::new().select(&mut platform, 5).unwrap();
        let truths = platform.true_accuracies();
        let selected_mean = c4u_stats::mean(
            &outcome
                .selected
                .iter()
                .map(|&w| truths[w])
                .collect::<Vec<_>>(),
        );
        assert!(selected_mean > c4u_stats::mean(&truths));
    }

    #[test]
    fn validation_and_name() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        assert!(LiEtAl::new().select(&mut platform, 0).is_err());
        assert!(LiEtAl::new().select(&mut platform, 1000).is_err());
        assert_eq!(LiEtAl::new().name(), "Li et al.");
    }

    #[test]
    fn scores_are_the_regression_of_profile_on_observed_accuracy() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = LiEtAl::new().select(&mut platform, 7).unwrap();
        let mut twin = Platform::from_dataset(&ds, 5).unwrap();
        let record = twin
            .assign_learning_batch(&twin.worker_ids(), 540 / 27)
            .unwrap();
        replay::assert_replayed(&platform, &twin);
        let features: Vec<Vec<f64>> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap().dense_accuracies(0.5))
            .collect();
        let targets: Vec<f64> = record.sheets.iter().map(|s| s.accuracy()).collect();
        let model = LinearRegression::fit(&features, &targets).unwrap();
        for (w, score) in outcome.selected.iter().zip(&outcome.scores) {
            let row = platform.profile(*w).unwrap().dense_accuracies(0.5);
            assert_eq!(model.predict(&row).unwrap(), *score);
        }
        assert!(outcome.scores.windows(2).all(|p| p[0] >= p[1]));
    }
}
