//! Uniform Sampling (US) baseline.
//!
//! Every worker receives the same number of golden questions — the whole budget
//! divided evenly — and the top-`k` workers by observed accuracy are selected. This
//! is the naive algorithm of Even-Dar et al. adapted to the budgeted setting, and
//! the "US" column of Table V.

use crate::me::{top_k, ScoredWorker};
use crate::selector::{SelectionOutcome, WorkerSelector};
use crate::SelectionError;
use c4u_crowd_sim::Platform;

/// The Uniform Sampling baseline.
#[derive(Debug, Clone, Default)]
pub struct UniformSampling;

impl UniformSampling {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl WorkerSelector for UniformSampling {
    fn name(&self) -> &str {
        "US"
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
        let tasks_per_worker = (platform.budget_total() / workers.len()).max(1);
        let record = platform.assign_learning_batch(&workers, tasks_per_worker)?;
        let scored: Vec<ScoredWorker> = record
            .sheets
            .iter()
            .map(|s| ScoredWorker::new(s.worker, s.accuracy()))
            .collect();
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
    fn selects_k_workers_using_the_whole_budget_evenly() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let outcome = UniformSampling::new().select(&mut platform, 7).unwrap();
        assert_eq!(outcome.selected.len(), 7);
        assert_eq!(outcome.rounds, 1);
        // Budget divided evenly: 540 / 27 = 20 tasks per worker, all 27 workers.
        assert_eq!(outcome.budget_spent, 540);
        assert!(outcome.budget_spent <= platform.budget_total());
        assert_eq!(outcome.scores.len(), 7);
        // Scores are sorted non-increasingly (top-k ordering).
        for pair in outcome.scores.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn rejects_invalid_k() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        assert!(UniformSampling::new().select(&mut platform, 0).is_err());
        assert!(UniformSampling::new().select(&mut platform, 100).is_err());
    }

    #[test]
    fn name_matches_table_v_column() {
        assert_eq!(UniformSampling::new().name(), "US");
    }

    #[test]
    fn selection_is_the_top_k_of_the_single_round() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 2).unwrap();
        let outcome = UniformSampling::new().select(&mut platform, 5).unwrap();
        let mut twin = Platform::from_dataset(&ds, 2).unwrap();
        let record = twin
            .assign_learning_batch(&twin.worker_ids(), 2400 / 40)
            .unwrap();
        replay::assert_replayed(&platform, &twin);
        for (w, score) in outcome.selected.iter().zip(&outcome.scores) {
            let sheet = record.sheets.iter().find(|s| s.worker == *w).unwrap();
            assert_eq!(sheet.accuracy(), *score);
        }
        let cutoff = outcome.scores[4];
        for sheet in &record.sheets {
            if !outcome.selected.contains(&sheet.worker) {
                assert!(sheet.accuracy() <= cutoff);
            }
        }
    }
}
