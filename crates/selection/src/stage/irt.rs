//! IRT-backed estimation stages: the `c4u_irt` learner models adapted to the
//! [`EstimationStage`] seam.
//!
//! Both stages replace the paper's CPE + LGE estimation with a single
//! learner-model pass, quantifying how much the cross-domain machinery adds
//! over classic knowledge-tracing approaches (the Sec. II-C survey):
//!
//! * [`BktStage`] — one Bayesian Knowledge Tracing tracker per worker, seeded
//!   from the worker's historical prior-domain accuracy and advanced with the
//!   round's per-answer correctness sequence;
//! * [`RaschStage`] — the Eq. 10–11 learning-curve calibration refit per round
//!   from raw observed sheet accuracies: the same learning-curve core as
//!   [`LgeStage`](super::LgeStage), which fits the preceding stage's scores
//!   instead.
//!
//! Both stages score workers independently, so their per-worker passes fan out
//! over the round's worker-range shards through
//! [`WorkerShards::map`](c4u_crowd_sim::WorkerShards::map) like every other
//! shard pass: the scores come back in worker order, making every shard
//! layout bit-for-bit identical (`tests/shard_equivalence.rs` pins this for
//! the BKT pipeline).

use super::{uninitialized, EstimationStage, LearningCurves, RoundContext, StageInit};
use crate::SelectionError;
use c4u_crowd_sim::{AnswerSheet, HistoricalProfile, WorkerId};
use c4u_irt::{BktModel, BktParams};
use std::collections::HashMap;

/// Bayesian Knowledge Tracing as a pipeline stage.
///
/// Per worker the stage keeps one [`BktModel`] across rounds: the tracker's
/// prior mastery is seeded from the mean historical accuracy of the worker's
/// observed prior domains (through [`BktParams::mastery_for_accuracy`]; workers
/// with no history start from `a_T`), and every round the worker's answer
/// correctness sequence is folded in observation by observation. The emitted
/// score is the posterior predicted accuracy, so the elimination ranks by the
/// BKT estimate of the *next* answer being correct.
///
/// It ignores its `prior` input, so it is usually the first (and only) stage;
/// [`StagePipeline::bkt_only`](super::StagePipeline::bkt_only) is the
/// canonical composition.
#[derive(Debug, Clone)]
pub struct BktStage {
    params: BktParams,
    fallback_accuracy: f64,
    trackers: HashMap<WorkerId, BktModel>,
    initialized: bool,
}

impl BktStage {
    /// Creates the stage; the parameters are validated in `initialize`.
    pub fn new(params: BktParams) -> Self {
        Self {
            params,
            fallback_accuracy: 0.5,
            trackers: HashMap::new(),
            initialized: false,
        }
    }

    /// The BKT parameters in use.
    pub fn params(&self) -> &BktParams {
        &self.params
    }

    /// A fresh tracker for a first-seen worker: prior mastery from the mean
    /// accuracy over the worker's observed prior domains (falling back to
    /// `a_T` for an empty history).
    fn fresh_tracker(&self, profile: &HistoricalProfile) -> Result<BktModel, SelectionError> {
        let observed = profile.observed_accuracies();
        let anchor = if observed.is_empty() {
            self.fallback_accuracy
        } else {
            c4u_stats::mean(&observed)
        };
        BktModel::new(BktParams {
            p_init: self.params.mastery_for_accuracy(anchor),
            ..self.params
        })
        .map_err(SelectionError::from)
    }
}

impl EstimationStage for BktStage {
    fn name(&self) -> &str {
        "bkt"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.params.validate()?;
        self.fallback_accuracy = init.initial_target_accuracy;
        self.trackers.clear();
        self.initialized = true;
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        if !self.initialized {
            return Err(uninitialized("BKT stage used before initialize"));
        }
        // Per-worker scoring: each tracker depends only on its own worker's
        // history, so the pass fans out over the round's worker shards; the
        // advanced trackers are merged back in worker order afterwards, which
        // keeps every shard layout bit-for-bit identical.
        let trackers = &self.trackers;
        let stage = &*self;
        let score_worker = |i: usize| -> Result<(BktModel, f64), SelectionError> {
            let sheet = &ctx.sheets[i];
            let mut tracker = match trackers.get(&sheet.worker) {
                Some(tracker) => *tracker,
                None => stage.fresh_tracker(ctx.profiles[i])?,
            };
            let score = tracker.observe_batch(sheet.correctness());
            Ok((tracker, score))
        };
        let scored = ctx
            .worker_shards()
            .map(|range| range.map(score_worker).collect())?;
        let mut scores = Vec::with_capacity(ctx.sheets.len());
        for (sheet, (tracker, score)) in ctx.sheets.iter().zip(scored) {
            self.trackers.insert(sheet.worker, tracker);
            scores.push(score);
        }
        Ok(scores)
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// Rasch learning-curve calibration as a pipeline stage.
///
/// Runs the same Eq. 10–11 machinery as [`LgeStage`](super::LgeStage) — the
/// Sec. V-C difficulty initialisation, the per-worker `alpha` least-squares
/// fit, the Eq. 10 prediction at the round's cumulative training count — but
/// fits against the worker's **raw observed sheet accuracies** across rounds
/// instead of the CPE estimate history. That makes it the "learning curve
/// without a cross-domain model" ablation:
/// [`StagePipeline::rasch_calibrated`](super::StagePipeline::rasch_calibrated).
///
/// Unlike LGE it does not fall back at round 1: the prior-domain anchors alone
/// already identify `alpha`, so the first-round score is a pure prior-based
/// extrapolation of the learning curve.
#[derive(Debug, Clone, Default)]
pub struct RaschStage {
    curves: Option<LearningCurves>,
}

impl RaschStage {
    /// Creates the stage; difficulties are derived in `initialize` from the
    /// pool's prior-domain averages.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EstimationStage for RaschStage {
    fn name(&self) -> &str {
        "rasch"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.curves = Some(LearningCurves::new(init)?);
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let curves = self
            .curves
            .as_mut()
            .ok_or_else(|| uninitialized("Rasch stage used before initialize"))?;
        let accuracies: Vec<f64> = ctx.sheets.iter().map(AnswerSheet::accuracy).collect();
        curves.score(ctx, &accuracies, false)
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::num_prior_domains;
    use c4u_crowd_sim::{generate, DatasetConfig, Platform};

    /// The per-round sheet accuracies the stage recorded for a worker.
    fn observed(stage: &RaschStage, worker: WorkerId) -> Option<&[f64]> {
        let curve = stage.curves.as_ref()?.workers.get(worker)?;
        (!curve.trajectory.is_empty()).then_some(curve.trajectory.as_slice())
    }

    fn rw1_round(seed: u64) -> (Platform, Vec<AnswerSheet>) {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, seed).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 6).unwrap();
        (platform, record.sheets)
    }

    fn ctx_of<'a>(
        sheets: &'a [AnswerSheet],
        profiles: &'a [&'a HistoricalProfile],
        cumulative: &'a [f64],
        num_shards: usize,
    ) -> RoundContext<'a> {
        RoundContext {
            header: crate::stage::RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets,
            },
            profiles,
            cumulative_tasks: cumulative,
            num_shards,
        }
    }

    #[test]
    fn stages_error_before_initialize() {
        let (platform, sheets) = rw1_round(3);
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 6.0];
        let ctx = ctx_of(&sheets, &profiles, &cumulative, 1);
        assert!(BktStage::new(BktParams::default())
            .estimate(&ctx, &[])
            .is_err());
        assert!(RaschStage::new().estimate(&ctx, &[]).is_err());
    }

    #[test]
    fn invalid_bkt_params_fail_at_initialize() {
        let (platform, _) = rw1_round(3);
        let profiles = platform.profiles();
        let init = StageInit {
            profiles: &profiles,
            num_prior_domains: num_prior_domains(&profiles),
            initial_target_accuracy: 0.5,
        };
        let mut stage = BktStage::new(BktParams {
            p_slip: 0.7,
            p_guess: 0.7,
            ..Default::default()
        });
        assert!(stage.initialize(&init).is_err());
    }

    #[test]
    fn bkt_scores_are_bounded_and_persistent() {
        let (platform, sheets) = rw1_round(5);
        let profiles_pool = platform.profiles();
        let init = StageInit {
            profiles: &profiles_pool,
            num_prior_domains: num_prior_domains(&profiles_pool),
            initial_target_accuracy: 0.5,
        };
        let mut stage = BktStage::new(BktParams::default());
        stage.initialize(&init).unwrap();
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 6.0];
        let ctx = ctx_of(&sheets, &profiles, &cumulative, 1);
        let scores = stage.estimate(&ctx, &[]).unwrap();
        assert_eq!(scores.len(), sheets.len());
        let slip_guess = (BktParams::default().p_slip, BktParams::default().p_guess);
        for &s in &scores {
            // The emission model bounds every prediction.
            assert!(s >= slip_guess.1 - 1e-12 && s <= 1.0 - slip_guess.0 + 1e-12);
        }
        // Every scored worker now holds a tracker, and re-initialising clears them.
        assert!(sheets
            .iter()
            .all(|s| stage.trackers.contains_key(&s.worker)));
        stage.initialize(&init).unwrap();
        assert!(sheets
            .iter()
            .all(|s| !stage.trackers.contains_key(&s.worker)));
    }

    #[test]
    fn bkt_and_rasch_are_shard_layout_independent() {
        for num_shards in [1usize, 3, 16] {
            let (platform, sheets) = rw1_round(9);
            let profiles_pool = platform.profiles();
            let init = StageInit {
                profiles: &profiles_pool,
                num_prior_domains: num_prior_domains(&profiles_pool),
                initial_target_accuracy: 0.5,
            };
            let profiles: Vec<&HistoricalProfile> = sheets
                .iter()
                .map(|s| platform.profile(s.worker).unwrap())
                .collect();
            let cumulative = [0.0, 6.0];

            let reference_ctx = ctx_of(&sheets, &profiles, &cumulative, 1);
            let sharded_ctx = ctx_of(&sheets, &profiles, &cumulative, num_shards);

            let mut a = BktStage::new(BktParams::default());
            let mut b = BktStage::new(BktParams::default());
            a.initialize(&init).unwrap();
            b.initialize(&init).unwrap();
            assert_eq!(
                a.estimate(&reference_ctx, &[]).unwrap(),
                b.estimate(&sharded_ctx, &[]).unwrap(),
                "bkt with {num_shards} shards"
            );

            let mut a = RaschStage::new();
            let mut b = RaschStage::new();
            a.initialize(&init).unwrap();
            b.initialize(&init).unwrap();
            assert_eq!(
                a.estimate(&reference_ctx, &[]).unwrap(),
                b.estimate(&sharded_ctx, &[]).unwrap(),
                "rasch with {num_shards} shards"
            );
        }
    }

    #[test]
    fn rasch_records_observations_and_scores_in_unit_interval() {
        let (platform, sheets) = rw1_round(13);
        let profiles_pool = platform.profiles();
        let init = StageInit {
            profiles: &profiles_pool,
            num_prior_domains: num_prior_domains(&profiles_pool),
            initial_target_accuracy: 0.5,
        };
        let mut stage = RaschStage::new();
        stage.initialize(&init).unwrap();
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 6.0, 18.0];
        let ctx = ctx_of(&sheets, &profiles, &cumulative, 1);
        let first = stage.estimate(&ctx, &[]).unwrap();
        assert!(first.iter().all(|p| (0.0..=1.0).contains(p)));
        // One observation per worker after round 1, two after a second round.
        assert!(sheets
            .iter()
            .all(|s| observed(&stage, s.worker).map(<[f64]>::len) == Some(1)));
        let ctx2 = RoundContext {
            header: crate::stage::RoundHeader {
                round: 2,
                total_rounds: 2,
                ..ctx.header
            },
            ..ctx
        };
        let second = stage.estimate(&ctx2, &[]).unwrap();
        assert_eq!(second.len(), sheets.len());
        assert!(sheets
            .iter()
            .all(|s| observed(&stage, s.worker).map(<[f64]>::len) == Some(2)));
    }

    #[test]
    fn bkt_trackers_start_at_the_profile_mean_mastery() {
        let (platform, sheets) = rw1_round(7);
        let pool = platform.profiles();
        let init = StageInit {
            profiles: &pool,
            num_prior_domains: num_prior_domains(&pool),
            initial_target_accuracy: 0.5,
        };
        let params = BktParams::default();
        let mut stage = BktStage::new(params);
        stage.initialize(&init).unwrap();
        assert_eq!(stage.params(), &params);
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let scores = stage
            .estimate(&ctx_of(&sheets, &profiles, &[0.0, 6.0], 1), &[])
            .unwrap();
        for ((sheet, profile), score) in sheets.iter().zip(&profiles).zip(scores) {
            let anchor = c4u_stats::mean(&profile.observed_accuracies());
            let mut expected = BktModel::new(BktParams {
                p_init: params.mastery_for_accuracy(anchor),
                ..params
            })
            .unwrap();
            assert_eq!(expected.observe_batch(sheet.correctness()), score);
            assert_eq!(stage.trackers.get(&sheet.worker), Some(&expected));
        }
    }

    #[test]
    fn rasch_records_the_sheet_accuracies() {
        let (platform, sheets) = rw1_round(8);
        let pool = platform.profiles();
        let init = StageInit {
            profiles: &pool,
            num_prior_domains: num_prior_domains(&pool),
            initial_target_accuracy: 0.5,
        };
        let mut stage = RaschStage::new();
        stage.initialize(&init).unwrap();
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        stage
            .estimate(&ctx_of(&sheets, &profiles, &[0.0, 6.0], 2), &[])
            .unwrap();
        for sheet in &sheets {
            assert_eq!(
                observed(&stage, sheet.worker),
                Some(&[sheet.accuracy()][..])
            );
        }
        assert!(observed(&stage, 999).is_none());
        stage.initialize(&init).unwrap();
        assert!(observed(&stage, sheets[0].worker).is_none());
    }

    #[test]
    fn rasch_scores_a_blank_profile_worker_at_the_untrained_baseline() {
        // Round 1 fits a worker with no recorded prior domain on its K_0 = 0
        // stage alone, which does not depend on alpha: the fit is alpha = 0,
        // so the score is g(0, beta_T, K_1) = a_T, not a perfect worker.
        let (platform, sheets) = rw1_round(4);
        let pool = platform.profiles();
        let init = StageInit {
            profiles: &pool,
            num_prior_domains: num_prior_domains(&pool),
            initial_target_accuracy: 0.6,
        };
        let mut stage = RaschStage::new();
        stage.initialize(&init).unwrap();
        let domains = num_prior_domains(&pool);
        let blank = HistoricalProfile::new(vec![None; domains], vec![0; domains]).unwrap();
        let mut profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        profiles[0] = &blank;
        let scores = stage
            .estimate(&ctx_of(&sheets, &profiles, &[0.0, 6.0], 1), &[])
            .unwrap();
        assert!((scores[0] - 0.6).abs() < 1e-12, "{}", scores[0]);
    }
}
