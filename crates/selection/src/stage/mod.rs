//! Pluggable estimation stages (the seam between Algorithms 1–3).
//!
//! [`CrossDomainSelector`](crate::CrossDomainSelector) historically hard-wired
//! CPE and LGE inline in its round loop; this module turns each estimation step
//! into an [`EstimationStage`] and the round loop into a [`StagePipeline`] that
//! threads per-worker scores through the stages in order:
//!
//! * [`CpeStage`] — Algorithm 1: updates the cross-domain model with the
//!   round's answer sheets and emits the static estimate `p_{c,i}`;
//! * [`LgeStage`] — Algorithm 2: refines the preceding stage's estimates into
//!   the dynamic estimate `p_hat_{c,i,T}` by fitting each worker's learning
//!   curve to that worker's trajectory of those estimates across rounds;
//! * [`SheetAccuracyStage`] — each worker's observed sheet accuracy, the
//!   static estimate of the LGE-only ablation.
//!
//! Every stage owns its cross-round state: CPE its model, LGE the static
//! estimates it has been handed, in dense per-worker columns indexed by
//! worker id next to each worker's prior-domain anchor terms (built once, so
//! no round recomputes an `ln(n_{i,d} + 1)`). The pipeline only threads one
//! round's scores from each stage to the next (that is how LGE sees the CPE
//! estimates without the two being coupled).
//!
//! Three pipelines ship, one per [`EstimationMode`](crate::EstimationMode):
//!
//! ```
//! use c4u_selection::{CpeConfig, CpeStage, LgeStage, StagePipeline};
//!
//! // The full method (CPE + LGE)…
//! let full = StagePipeline::new(vec![
//!     Box::new(CpeStage::new(CpeConfig::default())),
//!     Box::new(LgeStage::new()),
//! ])
//! .unwrap();
//! assert_eq!(full.stage_names(), vec!["cpe", "lge"]);
//! // …and its two ablations.
//! assert_eq!(
//!     StagePipeline::cpe_only(CpeConfig::default()).stage_names(),
//!     vec!["cpe"]
//! );
//! assert_eq!(StagePipeline::lge_only().stage_names(), vec!["empirical", "lge"]);
//! ```

use crate::cpe::{CpeConfig, CpeObservation, CrossDomainEstimator};
use crate::lge::{profile_anchors, LearningGainEstimator, LgeConfig};
use crate::SelectionError;
use c4u_crowd_sim::{AnswerSheet, HistoricalProfile, WorkerShards};
use c4u_irt::{log_tasks, LearningTerm};
use std::fmt;
use std::ops::Range;

/// Pool-level context handed to every stage once, before round 1.
#[derive(Debug, Clone, Copy)]
pub struct StageInit<'a> {
    /// Historical profiles of the full worker pool.
    pub profiles: &'a [&'a HistoricalProfile],
    /// Number of prior domains `D` (the maximum domain count over the pool).
    pub num_prior_domains: usize,
    /// Initial target-domain accuracy `a_T`.
    pub initial_target_accuracy: f64,
}

/// Derives the number of prior domains the same way the CPE initialisation
/// does: the maximum domain count over the pool's profiles.
pub fn num_prior_domains(profiles: &[&HistoricalProfile]) -> usize {
    profiles.iter().map(|p| p.num_domains()).max().unwrap_or(0)
}

/// The round header: the per-round facts every stage reads.
///
/// [`RoundContext`] embeds it and derefs to it, so `ctx.round`, `ctx.sheets`,
/// ... read the header's fields.
#[derive(Debug, Clone, Copy)]
pub struct RoundHeader<'a> {
    /// 1-based round index.
    pub round: usize,
    /// Total number of elimination rounds `n`.
    pub total_rounds: usize,
    /// Failure probability `delta_c` of the round.
    pub delta: f64,
    /// The round's answer sheets, one per remaining worker.
    pub sheets: &'a [AnswerSheet],
}

/// Everything a stage can see in one elimination round, and the round input
/// [`StagePipeline::score_round`] takes (it hands the same context to every
/// stage).
///
/// `header.sheets` and `profiles` are aligned: entry `i` of both describes the
/// same remaining worker (the context derefs to its [`RoundHeader`], so
/// `ctx.round`, `ctx.sheets`, ... read the header). A stage that needs
/// anything from earlier rounds keeps it itself.
#[derive(Debug, Clone, Copy)]
pub struct RoundContext<'a> {
    /// The shared round header (round index, total rounds, `delta_c`, sheets).
    pub header: RoundHeader<'a>,
    /// Historical profiles aligned with `header.sheets`.
    pub profiles: &'a [&'a HistoricalProfile],
    /// Cumulative training schedule: entry `j` is `K_j`, the learning tasks a
    /// worker has received by the end of round `j` (entry 0 is `K_0 = 0`).
    /// [`StagePipeline::score_round`] guarantees an entry for `round`.
    pub cumulative_tasks: &'a [f64],
    /// Number of worker-range shards the stage's per-worker scoring pass fans
    /// out over (1 = sequential; shard results are merged in worker order, so
    /// the scores are identical for every value).
    pub num_shards: usize,
}

/// The pipeline's round input: the same context every stage sees.
pub type StageRoundInput<'a> = RoundContext<'a>;

impl<'a> std::ops::Deref for RoundContext<'a> {
    type Target = RoundHeader<'a>;

    fn deref(&self) -> &RoundHeader<'a> {
        &self.header
    }
}

impl RoundContext<'_> {
    /// The worker-range partition a stage's per-worker scoring pass fans out
    /// over: `num_shards` contiguous, balanced ranges of the round's sheets,
    /// the count clamped to `[1, sheets]`.
    pub fn worker_shards(&self) -> WorkerShards {
        let sheets = self.header.sheets.len();
        WorkerShards::by_count(sheets, self.num_shards.clamp(1, sheets.max(1)))
    }
}

/// One estimation step of the selection pipeline.
///
/// A stage receives the round context plus the *preceding* stage's per-worker
/// scores for this round (empty for the first stage) and returns its own
/// per-worker scores, aligned with `ctx.sheets`. Stages are stateful across
/// rounds ([`EstimationStage::initialize`] resets them for a fresh run) and
/// object-safe, so pipelines compose them dynamically.
pub trait EstimationStage: fmt::Debug + Send + Sync {
    /// Short identifier used in pipeline descriptions ("cpe", "lge", ...).
    fn name(&self) -> &str;

    /// Resets the stage for a fresh selection run on the given pool.
    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError>;

    /// Produces this stage's per-worker scores for one round.
    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError>;

    /// Estimated prior-domain/target correlations, if this stage learns them
    /// (the Sec. V-H diagnostic). `None` for stages without a correlation model.
    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        None
    }

    /// Clones the stage behind a box (stages are `Clone` at the object level so
    /// selectors can hold a pipeline template and spawn fresh copies per run).
    fn boxed_clone(&self) -> Box<dyn EstimationStage>;
}

impl Clone for Box<dyn EstimationStage> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// One worker's learning-curve state in [`LgeStage`].
#[derive(Debug, Clone, Default)]
struct WorkerCurve {
    /// Its anchor terms in [`LgeStage::anchor_terms`]; `None` until it is
    /// first fitted (anchors come from the worker's historical profile, which
    /// does not change between rounds).
    anchors: Option<Range<usize>>,
    /// Its values of the earlier rounds, in round order; empty until it is
    /// first scored.
    trajectory: Vec<f64>,
}

/// Grows `workers` to cover every worker of the round's `sheets`.
///
/// Worker ids index the state, so they must be dense, as the platform
/// allocates them: a round with an id of at least twice the state's size plus
/// the round's worker count is an error, not an allocation.
fn grow_to(workers: &mut Vec<WorkerCurve>, sheets: &[AnswerSheet]) -> Result<(), SelectionError> {
    let Some(largest) = sheets.iter().map(|sheet| sheet.worker).max() else {
        return Ok(());
    };
    if largest >= workers.len() {
        if largest / 2 >= workers.len() + sheets.len() {
            return Err(SelectionError::InvalidConfig {
                what: "worker ids must be dense: an id lies far beyond the pool",
                value: largest as f64,
            });
        }
        workers.resize_with(largest + 1, WorkerCurve::default);
    }
    Ok(())
}

fn schedule_too_short(needed: usize) -> SelectionError {
    SelectionError::InvalidConfig {
        what: "cumulative training schedule is shorter than the rounds scored",
        value: needed as f64,
    }
}

fn uninitialized(stage: &'static str) -> SelectionError {
    SelectionError::InvalidConfig {
        what: stage,
        value: 0.0,
    }
}

/// Per-prior-domain average accuracy over the pool's profiles, clamped away
/// from the degenerate 0/1 endpoints — the Sec. V-C difficulty initialisation
/// of [`LgeStage`]. Domains nobody has worked on fall back to
/// `a_T`.
fn pool_prior_means(init: &StageInit<'_>) -> Vec<f64> {
    (0..init.num_prior_domains)
        .map(|domain| {
            let values: Vec<f64> = init
                .profiles
                .iter()
                .filter_map(|p| p.accuracy(domain))
                .collect();
            if values.is_empty() {
                init.initial_target_accuracy
            } else {
                c4u_stats::mean(&values).clamp(0.05, 0.95)
            }
        })
        .collect()
}

/// Cross-domain Performance Estimation as a pipeline stage (Algorithm 1).
///
/// Per round it fits the multivariate-normal cross-domain model to the
/// observed answer counts and emits the static estimate `p_{c,i}` per worker.
/// It ignores its `prior` input, so it is usually the first stage.
///
/// The update runs on the batched mask-grouped likelihood kernel
/// (`cpe::kernel`) against the estimator's one held model: EM epochs of one
/// E-step sweep and one closed-form M-step, at most [`CpeConfig::epochs`] of
/// them and usually fewer (the fit stops on convergence). The round's
/// predictions are the posterior means of the kept model's E-step, which
/// the update returns, so a round costs `epochs + 1` sweeps per mask group
/// and no separate prediction sweep — and every staged selector and every
/// [`evaluate_over_trials`](crate::evaluate_over_trials) run hits the
/// batched path.
#[derive(Debug, Clone)]
pub struct CpeStage {
    config: CpeConfig,
    estimator: Option<CrossDomainEstimator>,
}

impl CpeStage {
    /// Creates the stage; the estimator itself is built in `initialize` from
    /// the pool's historical profiles.
    pub fn new(config: CpeConfig) -> Self {
        Self {
            config,
            estimator: None,
        }
    }

    /// The underlying estimator, once initialised.
    pub fn estimator(&self) -> Option<&CrossDomainEstimator> {
        self.estimator.as_ref()
    }
}

impl EstimationStage for CpeStage {
    fn name(&self) -> &str {
        "cpe"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.estimator = Some(CrossDomainEstimator::from_profiles(
            init.profiles,
            self.config,
        )?);
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let estimator = self
            .estimator
            .as_mut()
            .ok_or_else(|| uninitialized("CPE stage used before initialize"))?;
        let observations: Vec<CpeObservation> = ctx
            .sheets
            .iter()
            .zip(ctx.profiles.iter())
            .map(|(sheet, profile)| {
                CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
            })
            .collect();
        // The model refinement consumes the whole round (Eq. 5 sums over every
        // remaining worker) and returns the per-worker Eq. 8 predictions of
        // the model it keeps.
        estimator.update(&observations)
    }

    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        let estimator = self.estimator.as_ref()?;
        Some(
            (0..estimator.num_prior_domains())
                .map(|d| estimator.target_correlation(d))
                .collect(),
        )
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// Learning Gain Estimation as a pipeline stage (Algorithm 2).
///
/// Consumes the preceding stage's scores (the static estimates) and emits the
/// dynamic estimate `p_hat_{c,i,T}`, fitted to every static estimate the
/// worker has been handed so far, this round's included; the stage records
/// that trajectory itself. Must be placed after a stage that produces one
/// score per worker — it rejects a run in which `prior` is not aligned with
/// the sheets.
///
/// The stage holds one [`LearningGainEstimator`] plus every worker's state in
/// a dense column indexed by worker id: its prior-domain anchor terms, built
/// the first round it is fitted, and its trajectory of static estimates.
#[derive(Debug, Clone, Default)]
pub struct LgeStage {
    /// The Eq. 10–11 fit, with difficulties from the pool's prior-domain
    /// averages; `None` until `initialize`.
    estimator: Option<LearningGainEstimator>,
    /// Entry `w` is worker `w`'s state. Sized to the pool at initialisation;
    /// a worker that joins later with a larger id grows it.
    workers: Vec<WorkerCurve>,
    /// Every fitted worker's anchor terms, one worker's after another
    /// ([`WorkerCurve::anchors`] indexes them).
    anchor_terms: Vec<LearningTerm>,
}

impl LgeStage {
    /// Creates the stage; difficulties are derived in `initialize` from the
    /// pool's prior-domain averages.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EstimationStage for LgeStage {
    fn name(&self) -> &str {
        "lge"
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        *self = Self {
            estimator: Some(LearningGainEstimator::new(LgeConfig::new(
                init.initial_target_accuracy,
                pool_prior_means(init),
            )?)),
            workers: vec![WorkerCurve::default(); init.profiles.len()],
            anchor_terms: Vec::new(),
        };
        Ok(())
    }

    /// Fits each worker's trajectory plus this round's static estimate
    /// (`prior`, aligned with `ctx.sheets`) and returns the Eq. 10
    /// predictions at the round's cumulative training count, in worker order;
    /// `prior` is appended to the trajectories afterwards, in worker order, so
    /// the state never depends on the shard layout.
    ///
    /// A worker whose trajectory has not yet reached the first stage with
    /// `K_j > 0` scores its static estimate unchanged: at `K_0 = 0` the
    /// learning-gain curve is independent of alpha, so the fitted
    /// extrapolation would ignore the only target-domain evidence there is.
    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let estimator = self
            .estimator
            .as_ref()
            .ok_or_else(|| uninitialized("LGE stage used before initialize"))?;
        if prior.len() != ctx.sheets.len() {
            return Err(SelectionError::InvalidConfig {
                what: "LGE stage requires a preceding stage scoring every worker",
                value: prior.len() as f64,
            });
        }
        let tasks_now = ctx
            .cumulative_tasks
            .get(ctx.round)
            .copied()
            .ok_or_else(|| schedule_too_short(ctx.round + 1))?;
        // `ln(K_j + 1)` for every entry `K_j` of the cumulative schedule.
        let log_tasks: Vec<f64> = ctx.cumulative_tasks.iter().map(|&k| log_tasks(k)).collect();
        // Trajectories of at most this length are held.
        let held_through = ctx
            .cumulative_tasks
            .iter()
            .position(|&k| k > 0.0)
            .unwrap_or(usize::MAX);
        grow_to(&mut self.workers, ctx.sheets)?;
        // Anchor terms of the workers fitted for the first time.
        for (sheet, profile) in ctx.sheets.iter().zip(ctx.profiles) {
            let curve = &mut self.workers[sheet.worker];
            if curve.anchors.is_none() && curve.trajectory.len() + 1 > held_through {
                let start = self.anchor_terms.len();
                self.anchor_terms
                    .extend(estimator.anchor_terms(profile_anchors(profile)));
                curve.anchors = Some(start..self.anchor_terms.len());
            }
        }
        // Per-worker scoring: each worker's fit depends only on its own
        // state plus this round's value, so the pass fans out over the
        // round's worker shards.
        let (workers, anchor_terms) = (&self.workers, &self.anchor_terms);
        let score_worker = |i: usize, terms: &mut Vec<LearningTerm>| {
            let curve = &workers[ctx.sheets[i].worker];
            let len = curve.trajectory.len() + 1;
            // The value of stage j reflects a worker trained with only j-1
            // rounds (Eq. 11), so it pairs with K_{j-1}. An error, not a
            // panic, if the trajectory outgrew the schedule.
            let stage_log_tasks = log_tasks
                .get(..len)
                .ok_or_else(|| schedule_too_short(len))?;
            let Some(anchors) = curve.anchors.clone().filter(|_| len > held_through) else {
                return Ok(prior[i]);
            };
            let stages = stage_log_tasks.iter().copied().zip(
                curve
                    .trajectory
                    .iter()
                    .copied()
                    .chain(std::iter::once(prior[i])),
            );
            terms.clear();
            terms.extend_from_slice(&anchor_terms[anchors]);
            Ok(estimator.fit(terms, stages, tasks_now)?.predicted_accuracy)
        };
        let scores = ctx.worker_shards().map(|range| {
            let mut terms = Vec::new();
            range
                .map(|i| score_worker(i, &mut terms))
                .collect::<Result<_, SelectionError>>()
        })?;
        for (sheet, &value) in ctx.sheets.iter().zip(prior) {
            self.workers[sheet.worker].trajectory.push(value);
        }
        Ok(scores)
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// The raw empirical prior: emits each worker's observed accuracy on the
/// round's answer sheet, untouched.
///
/// On its own this is just the per-round sample mean; its role is to feed
/// [`LgeStage`] in the LGE-only ablation
/// ([`StagePipeline::lge_only`]), replacing the CPE model with the weakest
/// defensible static estimate so the learning-gain machinery's contribution
/// can be isolated. Stateless, so sharding and cloning are trivial.
#[derive(Debug, Clone, Copy, Default)]
pub struct SheetAccuracyStage;

impl SheetAccuracyStage {
    /// Creates the stage (it carries no state).
    pub fn new() -> Self {
        Self
    }
}

impl EstimationStage for SheetAccuracyStage {
    fn name(&self) -> &str {
        "empirical"
    }

    fn initialize(&mut self, _init: &StageInit<'_>) -> Result<(), SelectionError> {
        Ok(())
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        _prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        Ok(ctx.sheets.iter().map(AnswerSheet::accuracy).collect())
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(*self)
    }
}

/// The per-stage estimates of one round, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEstimates {
    per_stage: Vec<Vec<f64>>,
}

impl RoundEstimates {
    /// The first stage's estimates (the "static" estimates of the paper).
    pub fn first(&self) -> &[f64] {
        &self.per_stage[0]
    }

    /// The final stage's estimates (the scores the elimination ranks by).
    pub fn last(&self) -> &[f64] {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "pipelines are validated non-empty at construction")
        self.per_stage.last().expect("pipeline is never empty")
    }
}

/// An ordered composition of [`EstimationStage`]s.
///
/// The pipeline keeps no state of its own between rounds; every stage keeps
/// its own. Selectors hold a pipeline as a *template*:
/// [`StagePipeline::initialize`] resets every stage, so a cloned pipeline
/// always starts a run fresh.
#[derive(Debug, Clone)]
pub struct StagePipeline {
    stages: Vec<Box<dyn EstimationStage>>,
}

impl StagePipeline {
    /// Builds a pipeline from at least one stage.
    pub fn new(stages: Vec<Box<dyn EstimationStage>>) -> Result<Self, SelectionError> {
        if stages.is_empty() {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        Ok(Self { stages })
    }

    /// The canonical full method: CPE followed by LGE ("Ours").
    pub fn cpe_and_lge(config: CpeConfig) -> Self {
        Self::new(vec![
            Box::new(CpeStage::new(config)),
            Box::new(LgeStage::new()),
        ])
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a two-element literal stage list is never empty")
        .expect("two stages")
    }

    /// The ME-CPE ablation: CPE alone.
    pub fn cpe_only(config: CpeConfig) -> Self {
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a one-element literal stage list is never empty")
        Self::new(vec![Box::new(CpeStage::new(config))]).expect("one stage")
    }

    /// The LGE-only ablation: the learning-gain fit driven by raw observed
    /// sheet accuracies ([`SheetAccuracyStage`]) instead of the CPE model.
    ///
    /// The LGE half is the *same* [`LgeStage`] the full method runs — only its
    /// static-estimate input differs — so comparing this pipeline against
    /// [`StagePipeline::cpe_and_lge`] isolates what the cross-domain model
    /// contributes beyond per-round sample means.
    pub fn lge_only() -> Self {
        Self::new(vec![
            Box::new(SheetAccuracyStage::new()),
            Box::new(LgeStage::new()),
        ])
        // c4u-lint: allow(no-unwrap-in-lib, reason = "a two-element literal stage list is never empty")
        .expect("two stages")
    }

    /// Stage names in pipeline order.
    // c4u-lint: allow(unused-pub-fn, reason = "README's doctested stage-architecture example calls it")
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Resets every stage for a fresh run.
    pub fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        for stage in &mut self.stages {
            stage.initialize(init)?;
        }
        Ok(())
    }

    /// Runs every stage once for the round on the same context, handing each
    /// stage the preceding stage's scores.
    pub fn score_round(
        &mut self,
        ctx: &RoundContext<'_>,
    ) -> Result<RoundEstimates, SelectionError> {
        let sheets = ctx.sheets;
        if ctx.profiles.len() != sheets.len() {
            return Err(SelectionError::InvalidConfig {
                what: "round profiles must align with the answer sheets",
                value: ctx.profiles.len() as f64,
            });
        }
        if ctx.cumulative_tasks.len() <= ctx.round {
            return Err(schedule_too_short(ctx.round + 1));
        }
        let mut per_stage: Vec<Vec<f64>> = Vec::with_capacity(self.stages.len());
        for stage in &mut self.stages {
            let prior = per_stage.last().map_or(&[][..], Vec::as_slice);
            let scores = stage.estimate(ctx, prior)?;
            if scores.len() != sheets.len() {
                return Err(SelectionError::Numerical(format!(
                    "stage '{}' produced {} scores for {} workers",
                    stage.name(),
                    scores.len(),
                    sheets.len()
                )));
            }
            if let Some((sheet, &score)) = sheets.iter().zip(&scores).find(|(_, s)| !s.is_finite())
            {
                return Err(SelectionError::NonFiniteScore {
                    stage: stage.name().to_string(),
                    worker: sheet.worker,
                    value: score,
                });
            }
            per_stage.push(scores);
        }
        Ok(RoundEstimates { per_stage })
    }

    /// The learned prior/target correlations of the first stage that exposes
    /// them (the CPE stage, in the canonical pipelines).
    pub fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        self.stages.iter().find_map(|s| s.target_correlations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_crowd_sim::{generate, DatasetConfig, Platform, WorkerId};
    use std::collections::HashMap;

    fn fast_cpe() -> CpeConfig {
        CpeConfig {
            epochs: 3,
            ..Default::default()
        }
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert!(StagePipeline::new(vec![]).is_err());
    }

    #[test]
    fn canonical_compositions_have_expected_shape() {
        let full = StagePipeline::cpe_and_lge(fast_cpe());
        assert_eq!(full.stage_names(), vec!["cpe", "lge"]);
        let ablation = StagePipeline::cpe_only(fast_cpe());
        assert_eq!(ablation.stage_names(), vec!["cpe"]);
    }

    /// The pipelines whose stages keep cross-round state of every kind: the
    /// CPE model and LGE's static-estimate trajectories.
    fn stateful_pipelines() -> [StagePipeline; 2] {
        [
            StagePipeline::cpe_and_lge(fast_cpe()),
            StagePipeline::lge_only(),
        ]
    }

    /// `pipeline`, initialised on the RW-1 pool.
    fn initialized(mut pipeline: StagePipeline) -> StagePipeline {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let platform = Platform::from_dataset(&ds, 1).unwrap();
        let profiles = platform.profiles();
        pipeline
            .initialize(&StageInit {
                profiles: &profiles,
                num_prior_domains: num_prior_domains(&profiles),
                initial_target_accuracy: 0.5,
            })
            .unwrap();
        pipeline
    }

    /// Scores a three-round RW-1 campaign (platform seed `seed`, the pool
    /// shrinking to 14 and then 7 workers) on `pipeline` as it stands.
    fn campaign(
        pipeline: &mut StagePipeline,
        seed: u64,
    ) -> Result<Vec<RoundEstimates>, SelectionError> {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, seed).unwrap();
        let ids = platform.worker_ids();
        let cumulative = [0.0, 4.0, 12.0, 28.0];
        let mut rounds = Vec::new();
        for (round, pool) in [&ids[..], &ids[..14], &ids[..7]].into_iter().enumerate() {
            let round = round + 1;
            let tasks = (cumulative[round] - cumulative[round - 1]) as usize;
            let sheets = platform.assign_learning_batch(pool, tasks).unwrap().sheets;
            let profiles: Vec<&HistoricalProfile> = sheets
                .iter()
                .map(|s| platform.profile(s.worker).unwrap())
                .collect();
            rounds.push(pipeline.score_round(&round_input(
                round,
                &sheets,
                &profiles,
                &cumulative,
            ))?);
        }
        Ok(rounds)
    }

    #[test]
    fn pipeline_clone_is_independent() {
        for template in stateful_pipelines() {
            let names = template.stage_names().join("+");
            let mut a = initialized(template);
            let mut b = a.clone();
            let first = campaign(&mut a, 5).unwrap();
            // The clone was taken before `a` ran: `a`'s campaign left it
            // untouched, so it scores the same campaign bit for bit.
            assert_eq!(campaign(&mut b, 5).unwrap(), first, "{names}");
            // `a` itself now carries cross-round state and does not.
            assert_ne!(campaign(&mut a, 5).ok(), Some(first), "{names}");
        }
    }

    #[test]
    fn stages_error_before_initialize() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 1).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 2).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 10.0];
        let ctx = RoundContext {
            header: RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
        };
        assert!(CpeStage::new(fast_cpe()).estimate(&ctx, &[]).is_err());
        assert!(LgeStage::new()
            .estimate(&ctx, &vec![0.5; record.sheets.len()])
            .is_err());
    }

    #[test]
    fn lge_requires_aligned_prior_scores() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 1).unwrap();
        let ids = platform.worker_ids();
        let record = platform.assign_learning_batch(&ids, 2).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut lge = LgeStage::new();
        lge.initialize(&init).unwrap();
        let cumulative = [0.0, 10.0];
        let ctx = RoundContext {
            header: RoundHeader {
                round: 1,
                total_rounds: 1,
                delta: 0.1,
                sheets: &record.sheets,
            },
            profiles: &profiles,
            cumulative_tasks: &cumulative,
            num_shards: 1,
        };
        // Misaligned prior scores are rejected.
        assert!(lge.estimate(&ctx, &[0.5]).is_err());
        // Aligned prior scores work even without a preceding history: the
        // first round falls back to the prior scores themselves.
        let prior = vec![0.5; record.sheets.len()];
        let scores = lge.estimate(&ctx, &prior).unwrap();
        assert_eq!(scores, prior);
    }

    #[test]
    fn run_round_threads_scores_and_records_history() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let ids = platform.worker_ids();
        let pool_profiles = platform.profiles();
        let init = StageInit {
            profiles: &pool_profiles,
            num_prior_domains: num_prior_domains(&pool_profiles),
            initial_target_accuracy: 0.5,
        };
        let mut pipeline = StagePipeline::cpe_and_lge(fast_cpe());
        pipeline.initialize(&init).unwrap();
        drop(pool_profiles);

        let record = platform.assign_learning_batch(&ids, 5).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 5.0];
        let estimates = pipeline
            .score_round(&RoundContext {
                header: RoundHeader {
                    round: 1,
                    total_rounds: 1,
                    delta: 0.1,
                    sheets: &record.sheets,
                },
                profiles: &profiles,
                cumulative_tasks: &cumulative,
                num_shards: 1,
            })
            .unwrap();
        assert_eq!(pipeline.stage_names(), vec!["cpe", "lge"]);
        assert_eq!(estimates.first().len(), ids.len());
        assert_eq!(estimates.last().len(), ids.len());
        // Round 1 has no informative training stage, so LGE passes the CPE
        // scores through unchanged.
        assert_eq!(estimates.first(), estimates.last());
        // In round 2 LGE fits the two CPE estimates it has been handed, so
        // its scores leave the CPE scores: it recorded round 1's.
        let record = platform.assign_learning_batch(&ids, 5).unwrap();
        let profiles: Vec<&HistoricalProfile> = record
            .sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let cumulative = [0.0, 5.0, 10.0];
        let estimates = pipeline
            .score_round(&round_input(2, &record.sheets, &profiles, &cumulative))
            .unwrap();
        assert_ne!(estimates.first(), estimates.last());
        // Correlations come from the CPE stage.
        let correlations = pipeline.target_correlations().unwrap().unwrap();
        assert_eq!(correlations.len(), 3);
    }

    /// An initialised pipeline plus one RW-1 learning round of `tasks` tasks.
    fn pipeline_and_round(
        mut pipeline: StagePipeline,
        tasks: usize,
    ) -> (StagePipeline, Platform, Vec<AnswerSheet>) {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        {
            let pool_profiles = platform.profiles();
            let init = StageInit {
                profiles: &pool_profiles,
                num_prior_domains: num_prior_domains(&pool_profiles),
                initial_target_accuracy: 0.5,
            };
            pipeline.initialize(&init).unwrap();
        }
        let ids = platform.worker_ids();
        let sheets = platform.assign_learning_batch(&ids, tasks).unwrap().sheets;
        (pipeline, platform, sheets)
    }

    fn round_input<'a>(
        round: usize,
        sheets: &'a [AnswerSheet],
        profiles: &'a [&'a HistoricalProfile],
        cumulative_tasks: &'a [f64],
    ) -> RoundContext<'a> {
        RoundContext {
            header: RoundHeader {
                round,
                total_rounds: 2,
                delta: 0.1,
                sheets,
            },
            profiles,
            cumulative_tasks,
            num_shards: 1,
        }
    }

    #[test]
    fn short_training_schedule_is_an_error_not_a_panic() {
        let (mut pipeline, platform, sheets) = pipeline_and_round(StagePipeline::lge_only(), 2);
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        // The schedule has no entry K_2 for round 2.
        for _ in 0..2 {
            let err = pipeline
                .score_round(&round_input(2, &sheets, &profiles, &[0.0]))
                .unwrap_err();
            assert!(matches!(err, SelectionError::InvalidConfig { .. }), "{err}");
        }
        // A schedule that covers the round but not a history scored more
        // often than it has entries.
        let cumulative = [0.0, 2.0];
        for _ in 0..2 {
            pipeline
                .score_round(&round_input(1, &sheets, &profiles, &cumulative))
                .unwrap();
        }
        let err = pipeline
            .score_round(&round_input(1, &sheets, &profiles, &cumulative))
            .unwrap_err();
        assert!(matches!(err, SelectionError::InvalidConfig { .. }), "{err}");
    }

    /// A user stage that scores the workers at `nan` and `inf` non-finite.
    #[derive(Debug, Clone)]
    struct NonFiniteStage {
        nan: usize,
        inf: usize,
    }

    impl EstimationStage for NonFiniteStage {
        fn name(&self) -> &str {
            "non-finite"
        }

        fn initialize(&mut self, _init: &StageInit<'_>) -> Result<(), SelectionError> {
            Ok(())
        }

        fn estimate(
            &mut self,
            ctx: &RoundContext<'_>,
            _prior: &[f64],
        ) -> Result<Vec<f64>, SelectionError> {
            let mut scores = vec![0.5; ctx.sheets.len()];
            scores[self.nan] = f64::NAN;
            scores[self.inf] = f64::INFINITY;
            Ok(scores)
        }

        fn boxed_clone(&self) -> Box<dyn EstimationStage> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn non_finite_stage_output_is_a_typed_error() {
        for (nan, inf) in [(3, 7), (9, 4)] {
            let stages: Vec<Box<dyn EstimationStage>> = vec![
                Box::new(NonFiniteStage { nan, inf }),
                Box::new(LgeStage::new()),
            ];
            let pipeline = StagePipeline::new(stages).unwrap();
            let (mut pipeline, platform, sheets) = pipeline_and_round(pipeline, 2);
            let profiles: Vec<&HistoricalProfile> = sheets
                .iter()
                .map(|s| platform.profile(s.worker).unwrap())
                .collect();
            let err = pipeline
                .score_round(&round_input(1, &sheets, &profiles, &[0.0, 2.0]))
                .unwrap_err();
            let first = nan.min(inf);
            match &err {
                SelectionError::NonFiniteScore {
                    stage,
                    worker,
                    value,
                } => {
                    assert_eq!(stage, "non-finite");
                    assert_eq!(*worker, sheets[first].worker);
                    assert_eq!(value.is_nan(), first == nan);
                }
                other => panic!("expected a non-finite score error, got {other}"),
            }
            assert!(err.to_string().contains("non-finite"));
        }
    }

    #[test]
    fn initialize_resets_histories() {
        for (template, fresh) in stateful_pipelines().into_iter().zip(stateful_pipelines()) {
            let names = template.stage_names().join("+");
            let mut pipeline = initialized(template);
            campaign(&mut pipeline, 5).unwrap();
            // Re-initialised after a campaign, the pipeline scores a second
            // campaign bit for bit like a fresh one.
            let expected = campaign(&mut initialized(fresh), 11).unwrap();
            assert_ne!(
                campaign(&mut pipeline.clone(), 11).ok(),
                Some(expected.clone()),
                "{names}"
            );
            let mut pipeline = initialized(pipeline);
            assert_eq!(campaign(&mut pipeline, 11).unwrap(), expected, "{names}");
        }
    }

    #[test]
    fn sheet_accuracy_feeds_the_lge_stage() {
        let (mut pipeline, mut platform, first_sheets) =
            pipeline_and_round(StagePipeline::lge_only(), 4);
        let mut lge = LgeStage::new();
        {
            let pool_profiles = platform.profiles();
            lge.initialize(&StageInit {
                profiles: &pool_profiles,
                num_prior_domains: num_prior_domains(&pool_profiles),
                initial_target_accuracy: 0.5,
            })
            .unwrap();
        }
        let ids = platform.worker_ids();
        let second_sheets = platform.assign_learning_batch(&ids, 4).unwrap().sheets;
        let cumulative = [0.0, 4.0, 8.0];
        for (round, sheets) in [(1, &first_sheets), (2, &second_sheets)] {
            let profiles: Vec<&HistoricalProfile> = sheets
                .iter()
                .map(|s| platform.profile(s.worker).unwrap())
                .collect();
            let ctx = round_input(round, sheets, &profiles, &cumulative);
            let estimates = pipeline.score_round(&ctx).unwrap();
            let accuracies: Vec<f64> = sheets.iter().map(AnswerSheet::accuracy).collect();
            assert_eq!(estimates.first(), accuracies.as_slice());
            assert_eq!(pipeline.stage_names(), vec!["empirical", "lge"]);
            assert!(estimates.last().iter().all(|p| (0.0..=1.0).contains(p)));
            // The LGE half is a plain LgeStage handed the sheet accuracies:
            // it passes them through in round 1 and fits both rounds' in
            // round 2.
            assert_eq!(lge.estimate(&ctx, &accuracies).unwrap(), estimates.last());
            assert_eq!(round == 1, estimates.first() == estimates.last());
        }
    }

    #[test]
    fn learning_curves_follow_workers_that_join_and_leave() {
        // RW-1 (ids 0..27): worker 5 leaves after round 1, workers 27 and 28
        // join before round 2 (ids above the initial pool), and worker 27
        // leaves after round 2. Every score equals the one-worker estimate
        // over that worker's own history.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut platform = Platform::from_dataset(&ds, 5).unwrap();
        let mut pipeline = StagePipeline::lge_only();
        let estimator;
        {
            let profiles = platform.profiles();
            let init = StageInit {
                profiles: &profiles,
                num_prior_domains: num_prior_domains(&profiles),
                initial_target_accuracy: 0.5,
            };
            pipeline.initialize(&init).unwrap();
            estimator =
                LearningGainEstimator::new(LgeConfig::new(0.5, pool_prior_means(&init)).unwrap());
        }
        let cumulative = [0.0, 4.0, 12.0, 28.0];
        let mut histories: HashMap<WorkerId, Vec<f64>> = HashMap::new();
        let mut pool: Vec<WorkerId> = platform.worker_ids();
        for round in 1..=3 {
            match round {
                2 => {
                    platform
                        .apply_events(&c4u_crowd_sim::RoundEvents::none().with_leave(5))
                        .unwrap();
                    pool.retain(|&w| w < 14 && w != 5);
                    for spec in &ds.workers[..2] {
                        pool.push(platform.add_worker(spec).unwrap());
                    }
                    assert_eq!(pool[pool.len() - 2..], [27, 28]);
                }
                3 => {
                    platform
                        .apply_events(&c4u_crowd_sim::RoundEvents::none().with_leave(27))
                        .unwrap();
                    pool.retain(|&w| w < 7 || w == 28);
                }
                _ => {}
            }
            let tasks = (cumulative[round] - cumulative[round - 1]) as usize;
            let sheets = platform.assign_learning_batch(&pool, tasks).unwrap().sheets;
            let profiles: Vec<&HistoricalProfile> = sheets
                .iter()
                .map(|s| platform.profile(s.worker).unwrap())
                .collect();
            let scores = pipeline
                .score_round(&round_input(round, &sheets, &profiles, &cumulative))
                .unwrap();
            for ((sheet, profile), &score) in sheets.iter().zip(&profiles).zip(scores.last()) {
                let history = histories.entry(sheet.worker).or_default();
                history.push(sheet.accuracy());
                // A worker's first round is held at its sheet accuracy.
                let expected = if history.len() == 1 {
                    sheet.accuracy()
                } else {
                    let input = crate::LgeWorkerInput::from_profile(
                        profile,
                        history.clone(),
                        cumulative[..history.len()].to_vec(),
                        cumulative[round],
                    );
                    estimator.estimate(&input).unwrap().predicted_accuracy
                };
                assert_eq!(
                    score.to_bits(),
                    expected.to_bits(),
                    "round {round} worker {}",
                    sheet.worker
                );
            }
        }
        // Worker 28 joined in round 2 and was scored twice.
        assert_eq!(histories[&28].len(), 2);
    }

    #[test]
    fn a_worker_id_far_beyond_the_pool_is_an_error() {
        let (mut pipeline, platform, mut sheets) = pipeline_and_round(StagePipeline::lge_only(), 4);
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        sheets[3] = AnswerSheet::new(usize::MAX, 4, 4);
        let cumulative = [0.0, 4.0];
        let scored = pipeline.score_round(&round_input(1, &sheets, &profiles, &cumulative));
        assert!(
            matches!(scored, Err(SelectionError::InvalidConfig { .. })),
            "{scored:?}"
        );
    }

    #[test]
    fn misaligned_round_profiles_are_rejected() {
        let (mut pipeline, platform, sheets) = pipeline_and_round(StagePipeline::lge_only(), 2);
        let profiles = vec![platform.profile(0).unwrap()];
        let err = pipeline
            .score_round(&round_input(1, &sheets, &profiles, &[0.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, SelectionError::InvalidConfig { .. }), "{err}");
        // The rejected round left no state behind: the aligned round then
        // scores like it does on a fresh pipeline.
        let profiles: Vec<&HistoricalProfile> = sheets
            .iter()
            .map(|s| platform.profile(s.worker).unwrap())
            .collect();
        let (mut fresh, _, _) = pipeline_and_round(StagePipeline::lge_only(), 2);
        let cumulative = [0.0, 2.0, 4.0];
        for _ in 0..2 {
            let ctx = round_input(1, &sheets, &profiles, &cumulative);
            assert_eq!(
                pipeline.score_round(&ctx).unwrap(),
                fresh.score_round(&ctx).unwrap()
            );
        }
    }

    #[test]
    fn round_shards_cover_every_sheet() {
        let (_, platform, sheets) = pipeline_and_round(StagePipeline::lge_only(), 1);
        let profiles = platform.profiles();
        assert_eq!(num_prior_domains(&profiles), 3);
        assert_eq!(num_prior_domains(&[]), 0);
        for (num_shards, expected) in [(0, 1), (1, 1), (4, 4)] {
            let ctx = RoundContext {
                header: round_input(1, &sheets, &profiles, &[]).header,
                profiles: &profiles,
                cumulative_tasks: &[],
                num_shards,
            };
            let shards = ctx.worker_shards();
            assert_eq!(
                (shards.num_shards(), shards.len()),
                (expected, sheets.len())
            );
        }
    }
}
