//! The ensemble combinator: one stage that blends the estimates of several
//! child stages.

use super::{EstimationStage, RoundContext, StageInit};
use crate::SelectionError;

/// Weighted combination of child estimation stages.
///
/// Every round each child runs on the same [`RoundContext`] and prior scores,
/// and the ensemble emits the weight-normalised average of the children's
/// per-worker estimates. Children keep their own cross-round state (a
/// [`CpeStage`](super::CpeStage) child refines its model, a
/// [`BktStage`](super::BktStage) child advances its trackers), so the ensemble
/// composes *models*, not just numbers.
///
/// Two exactness guarantees the tests pin:
///
/// * a single-child ensemble returns the child's scores verbatim (no weight
///   arithmetic touches them), so `ensemble([stage], [w]) == stage`
///   bit-for-bit for any valid weight;
/// * the combination is a fixed-order weighted sum over the children, so the
///   output is deterministic and shard-layout independent whenever the
///   children are.
///
/// Children see the preceding pipeline stage's scores, not their siblings' —
/// the ensemble is one pipeline stage from the outside, and only its blended
/// scores reach the next stage.
#[derive(Debug, Clone)]
pub struct EnsembleStage {
    children: Vec<Box<dyn EstimationStage>>,
    weights: Vec<f64>,
}

impl EnsembleStage {
    /// Builds an ensemble from at least one child; `weights` must align with
    /// `children` and every weight must be finite and strictly positive.
    pub fn new(
        children: Vec<Box<dyn EstimationStage>>,
        weights: Vec<f64>,
    ) -> Result<Self, SelectionError> {
        if children.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        if children.len() != weights.len() {
            return Err(SelectionError::InvalidConfig {
                what: "ensemble weights must align with the children",
                value: weights.len() as f64,
            });
        }
        for &w in &weights {
            if !w.is_finite() || w <= 0.0 {
                return Err(SelectionError::InvalidConfig {
                    what: "ensemble weights must be finite and > 0",
                    value: w,
                });
            }
        }
        Ok(Self { children, weights })
    }

    /// The (unnormalised) child weights, in combination order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl EstimationStage for EnsembleStage {
    fn name(&self) -> &str {
        "ensemble"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        for child in &mut self.children {
            child.initialize(init)?;
        }
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let mut per_child: Vec<Vec<f64>> = Vec::with_capacity(self.children.len());
        for child in &mut self.children {
            let scores = child.estimate(ctx, prior)?;
            if scores.len() != ctx.sheets.len() {
                return Err(SelectionError::Numerical(format!(
                    "ensemble child '{}' produced {} scores for {} workers",
                    child.name(),
                    scores.len(),
                    ctx.sheets.len()
                )));
            }
            per_child.push(scores);
        }
        // A lone child passes through untouched (bit-for-bit identical to
        // running it outside the ensemble).
        if per_child.len() == 1 {
            // c4u-lint: allow(no-unwrap-in-lib, reason = "guarded by the per_child.len() == 1 check")
            return Ok(per_child.pop().expect("one child"));
        }
        let total: f64 = self.weights.iter().sum();
        let blended = (0..ctx.sheets.len())
            .map(|i| {
                let sum: f64 = per_child
                    .iter()
                    .zip(self.weights.iter())
                    .map(|(scores, &w)| w * scores[i])
                    .sum();
                sum / total
            })
            .collect();
        Ok(blended)
    }

    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        // The first child with a correlation model speaks for the ensemble
        // (the CPE child, in the canonical CPE + BKT composition).
        self.children.iter().find_map(|c| c.target_correlations())
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{num_prior_domains, BktStage, CpeStage, SheetAccuracyStage};
    use crate::CpeConfig;
    use c4u_crowd_sim::{generate, DatasetConfig, HistoricalProfile, Platform};
    use c4u_irt::BktParams;

    fn fast_cpe() -> CpeConfig {
        CpeConfig {
            epochs: 3,
            ..Default::default()
        }
    }

    #[test]
    fn construction_validation() {
        assert!(EnsembleStage::new(vec![], vec![]).is_err());
        assert!(EnsembleStage::new(vec![Box::new(SheetAccuracyStage::new())], vec![]).is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                EnsembleStage::new(vec![Box::new(SheetAccuracyStage::new())], vec![bad]).is_err(),
                "weight {bad}"
            );
        }
        let ok = EnsembleStage::new(
            vec![
                Box::new(CpeStage::new(fast_cpe())),
                Box::new(BktStage::new(BktParams::default())),
            ],
            vec![0.7, 0.3],
        )
        .unwrap();
        assert_eq!(ok.name(), "ensemble");
        let names: Vec<&str> = ok.children.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["cpe", "bkt"]);
        assert_eq!(ok.weights(), &[0.7, 0.3]);
    }

    #[test]
    fn blended_scores_stay_inside_the_children_hull() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 17).unwrap();
        let ids = platform.worker_ids();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut a: Box<dyn EstimationStage> = Box::new(CpeStage::new(fast_cpe()));
        let mut b: Box<dyn EstimationStage> = Box::new(BktStage::new(BktParams::default()));
        let mut ensemble = EnsembleStage::new(
            vec![
                Box::new(CpeStage::new(fast_cpe())),
                Box::new(BktStage::new(BktParams::default())),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        a.initialize(&init).unwrap();
        b.initialize(&init).unwrap();
        ensemble.initialize(&init).unwrap();
        drop(pool_profiles);

        let record = platform.assign_learning_batch(&ids, 6).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 6.0];
        let ctx = RoundContext {
            header: crate::stage::RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
        };
        let from_a = a.estimate(&ctx, &[]).unwrap();
        let from_b = b.estimate(&ctx, &[]).unwrap();
        let blended = ensemble.estimate(&ctx, &[]).unwrap();
        assert_eq!(blended.len(), record.sheets.len());
        for i in 0..blended.len() {
            let lo = from_a[i].min(from_b[i]);
            let hi = from_a[i].max(from_b[i]);
            assert!(
                blended[i] >= lo - 1e-12 && blended[i] <= hi + 1e-12,
                "worker {i}: {} outside [{lo}, {hi}]",
                blended[i]
            );
        }
        // Equal weights: the blend is the plain average.
        assert!((blended[0] - 0.5 * (from_a[0] + from_b[0])).abs() < 1e-12);
    }

    #[test]
    fn correlations_come_from_the_first_modelling_child() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let platform = Platform::from_dataset(&ds, 17).unwrap();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut with_cpe = EnsembleStage::new(
            vec![
                Box::new(BktStage::new(BktParams::default())),
                Box::new(CpeStage::new(fast_cpe())),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        with_cpe.initialize(&init).unwrap();
        assert_eq!(with_cpe.target_correlations().unwrap().unwrap().len(), 3);
        let mut without = EnsembleStage::new(
            vec![Box::new(BktStage::new(BktParams::default()))],
            vec![1.0],
        )
        .unwrap();
        without.initialize(&init).unwrap();
        assert!(without.target_correlations().is_none());
    }

    #[test]
    fn a_lone_child_passes_through_and_weights_are_normalised() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 3).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 7).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let ctx = RoundContext {
            header: crate::stage::RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &[0.0, 7.0],
            num_shards: 1,
        };
        let accuracies: Vec<f64> = record.sheets.iter().map(|s| s.accuracy()).collect();
        let mut lone =
            EnsembleStage::new(vec![Box::new(SheetAccuracyStage::new())], vec![3.0]).unwrap();
        assert_eq!(lone.estimate(&ctx, &[]).unwrap(), accuracies);
        let mut pair = EnsembleStage::new(
            vec![
                Box::new(SheetAccuracyStage::new()),
                Box::new(SheetAccuracyStage::new()),
            ],
            vec![1.0, 3.0],
        )
        .unwrap();
        for (blend, a) in pair.estimate(&ctx, &[]).unwrap().iter().zip(&accuracies) {
            assert!((blend - a).abs() < 1e-15);
        }
        assert!(lone.target_correlations().is_none());
    }
}
