//! The crowdsourcing platform simulator.
//!
//! A [`Platform`] owns a pool of trainable [`SimulatedWorker`]s plus the task
//! counts of one dataset, tracks the task budget, and exposes the two operations
//! every selection strategy needs:
//!
//! 1. [`Platform::assign_learning_batch`] — assign a batch of learning tasks to a
//!    set of workers, return their graded answers in a [`RoundRecord`] (the
//!    platform keeps no copy), and reveal the ground truth so the workers learn
//!    (Definitions 3–4 of the paper, Algorithm 4 lines 5–11);
//! 2. [`Platform::evaluate_working_accuracy`] — have a set of workers annotate the
//!    working tasks and report their average accuracy, the evaluation criterion of
//!    Sec. V-C.
//!
//! Tasks are counts, not labelled items: a worker is right on each task with
//! probability equal to its current accuracy, whatever the label, so every answer
//! is graded as it is drawn and no gold label is stored. A learning task matters
//! only as one more revealed answer, which [`SimulatedWorker::learn_from_batch`]
//! counts.
//!
//! Both operations exist in a sharded form
//! ([`Platform::assign_learning_batch_sharded`],
//! [`Platform::evaluate_working_accuracy_sharded`]) that processes contiguous
//! [`WorkerShards`] ranges through [`WorkerShards::map`] and so gets the
//! per-shard results back in worker order. The platform is strategy-agnostic:
//! the core algorithm and every baseline drive it through the same interface,
//! so all of them see identical workers, identical tasks, and an identical
//! budget.
//!
//! ## Randomness: one deterministic stream per worker event
//!
//! The answering noise is **not** drawn from one shared generator. Every
//! (round, worker) pair derives its own xoshiro256++ stream (the vendored
//! `StdRng`'s) from the platform seed via a SplitMix64-style key derivation
//! ([`Platform::new`]'s `seed`, a stream tag separating learning from working
//! answers, the round/evaluation counter, and the worker id). Eight workers'
//! streams are stepped side by side, and a task is correct when its draw is
//! below an integer threshold that the accuracy fixes, which is the float
//! test `StdRng::gen::<f64>() < accuracy` made exact in integers.
//! Consequences:
//!
//! * a fixed seed reproduces every answer exactly, on every platform;
//! * answers are independent of the *order* in which workers are processed and
//!   of the shard layout — `assign_learning_batch` and
//!   `assign_learning_batch_sharded` are **bit-for-bit identical** for any
//!   shard count and any thread interleaving (pinned by
//!   `tests/shard_equivalence.rs`);
//! * all workers in a round answer at their pre-round accuracy, exactly as in
//!   Algorithm 4 line 5 (one batch of golden questions assigned to the
//!   surviving pool simultaneously); the revealed ground truth is applied
//!   after the round's sheets are complete.

use crate::dataset::Dataset;
use crate::event::{AppliedRoundEvents, RoundEvents};
use crate::shard::WorkerShards;
use crate::task::AnswerSheet;
use crate::worker::{
    mix64, threshold, AnswerLanes, HistoricalProfile, SimulatedWorker, WorkerId, WorkerSpec, LANES,
};
use crate::SimError;

/// Stream tag of the learning-task answering noise (one stream family per
/// training round).
const STREAM_LEARNING: u64 = 0x4C45_4152;
/// Stream tag of the working-task answering noise (one stream family per
/// evaluation call).
const STREAM_WORKING: u64 = 0x574F_524B;

/// One step of the answering-seed derivation: absorbs `part` into `acc`
/// through a SplitMix64 step. The seed of a (stream family, epoch, worker)
/// event absorbs the tag, the epoch and the worker id into the platform seed
/// in that order, so distinct events get statistically independent streams,
/// and the first two steps are shared by every worker of a call.
fn absorb(acc: u64, part: u64) -> u64 {
    mix64(acc.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(part))
}

/// Errors unless `shards` partitions exactly the positions of `worker_ids`.
fn check_partition(worker_ids: &[WorkerId], shards: &WorkerShards) -> Result<(), SimError> {
    if shards.len() != worker_ids.len() {
        return Err(SimError::InvalidConfig {
            what: "shard partition must cover the worker list exactly",
            value: shards.len() as f64,
        });
    }
    Ok(())
}

/// Record of one training assignment (one strategy round).
///
/// The platform keeps no copy: the record returned by
/// [`Platform::assign_learning_batch_sharded`] is the only one.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based index of the assignment among the platform's rounds.
    pub round: usize,
    /// Number of learning tasks assigned to each worker.
    pub tasks_per_worker: usize,
    /// One answer sheet per participating worker, in the order they were passed in.
    pub sheets: Vec<AnswerSheet>,
}

/// The running state of a simulated crowdsourcing platform.
#[derive(Debug, Clone)]
pub struct Platform {
    workers: Vec<SimulatedWorker>,
    /// Presence flag per worker id: joins push `true`, departures flip to
    /// `false`. Ids are never reused, so every historical record stays valid
    /// and survivors keep their (round, worker-id)-keyed answer streams.
    active: Vec<bool>,
    /// Number of working tasks each evaluated worker answers (the dataset's
    /// `working_tasks`).
    working_tasks: usize,
    /// Base seed of the per-worker answering streams (see the module docs).
    seed: u64,
    /// Number of working-task evaluations run so far — the epoch component of
    /// the working-answer stream family, so repeated evaluations draw fresh
    /// noise.
    evaluations_run: usize,
    budget_total: usize,
    budget_spent: usize,
    /// Number of learning rounds run so far (the epoch component of the
    /// learning-answer stream family).
    rounds_run: usize,
    /// Learning-curve parameters applied to workers joining after construction
    /// (identical to those of the initial pool).
    target_difficulty: f64,
    tasks_per_batch: usize,
    /// Per-task accuracy drift of the dataset's scenario, applied to every
    /// worker — initial and joining alike. Zero in the closed world.
    accuracy_drift: f64,
}

impl Platform {
    /// Instantiates a platform from a dataset.
    ///
    /// * `seed` — controls the answering noise (independent of the dataset seed);
    /// * `target_difficulty` — the difficulty parameter `beta_T` driving the workers'
    ///   true learning dynamics. The paper's Yes/No tasks use `beta_T = 0`
    ///   (equivalently an untrained accuracy of 0.5); [`Platform::from_dataset`] uses
    ///   that default.
    pub fn new(dataset: &Dataset, seed: u64, target_difficulty: f64) -> Result<Self, SimError> {
        let accuracy_drift = dataset.config.scenario.accuracy_drift;
        let workers: Result<Vec<_>, _> = dataset
            .workers
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let mut w = SimulatedWorker::new(
                    id,
                    spec,
                    target_difficulty,
                    dataset.config.tasks_per_batch,
                )?;
                if accuracy_drift > 0.0 {
                    w.set_accuracy_drift(accuracy_drift)?;
                }
                Ok::<_, SimError>(w)
            })
            .collect();
        let workers = workers?;
        Ok(Self {
            active: vec![true; workers.len()],
            workers,
            working_tasks: dataset.config.working_tasks,
            seed,
            evaluations_run: 0,
            budget_total: dataset.config.budget(),
            budget_spent: 0,
            rounds_run: 0,
            target_difficulty,
            tasks_per_batch: dataset.config.tasks_per_batch,
            accuracy_drift,
        })
    }

    /// Instantiates a platform with the default target difficulty `beta_T = 0`.
    pub fn from_dataset(dataset: &Dataset, seed: u64) -> Result<Self, SimError> {
        Self::new(dataset, seed, 0.0)
    }

    /// Number of workers in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// All worker identifiers (dense, 0-based).
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        (0..self.workers.len()).collect()
    }

    /// Total task budget `B`.
    pub fn budget_total(&self) -> usize {
        self.budget_total
    }

    /// Learning tasks assigned so far.
    pub fn budget_spent(&self) -> usize {
        self.budget_spent
    }

    /// Learning-task budget still available.
    pub fn budget_remaining(&self) -> usize {
        self.budget_total.saturating_sub(self.budget_spent)
    }

    /// Historical profile of a worker.
    pub fn profile(&self, worker: WorkerId) -> Result<&HistoricalProfile, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.profile())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Historical profiles of all workers, indexed by worker id.
    pub fn profiles(&self) -> Vec<&HistoricalProfile> {
        self.workers.iter().map(|w| w.profile()).collect()
    }

    /// Current *true* target-domain accuracy of a worker (an oracle quantity — the
    /// selection algorithms never see it; it exists for the ground-truth baseline and
    /// for evaluation diagnostics).
    pub fn true_accuracy(&self, worker: WorkerId) -> Result<f64, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.current_accuracy())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Current true accuracies of all workers, indexed by worker id.
    pub fn true_accuracies(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.current_accuracy()).collect()
    }

    /// Cumulative learning tasks revealed to a worker so far.
    pub fn cumulative_learning_tasks(&self, worker: WorkerId) -> Result<usize, SimError> {
        self.workers
            .get(worker)
            .map(|w| w.cumulative_learning_tasks())
            .ok_or(SimError::UnknownWorker { id: worker })
    }

    /// Whether a worker is currently on the platform (joined and not departed).
    /// Unknown ids are reported as inactive.
    pub fn is_active(&self, worker: WorkerId) -> bool {
        self.active.get(worker).copied().unwrap_or(false)
    }

    /// Identifiers of the workers currently on the platform, in id order.
    pub fn active_worker_ids(&self) -> Vec<WorkerId> {
        self.active
            .iter()
            .enumerate()
            .filter_map(|(id, &a)| a.then_some(id))
            .collect()
    }

    /// Registers a new worker on the platform mid-campaign and returns its
    /// freshly allocated identifier.
    ///
    /// The worker gets the next dense id and the same learning-curve parameters
    /// (and scenario drift) as the initial pool. Because answer streams are
    /// keyed by (round, worker id) — never by list position — adding a worker
    /// does not perturb any existing worker's noise: the closed-world answers
    /// of the incumbents are bit-for-bit unchanged (pinned by
    /// `tests/churn_determinism.rs`).
    pub fn add_worker(&mut self, spec: &WorkerSpec) -> Result<WorkerId, SimError> {
        let id = self.workers.len();
        let mut worker =
            SimulatedWorker::new(id, spec, self.target_difficulty, self.tasks_per_batch)?;
        if self.accuracy_drift > 0.0 {
            worker.set_accuracy_drift(self.accuracy_drift)?;
        }
        self.workers.push(worker);
        self.active.push(true);
        Ok(id)
    }

    /// Applies one round's worth of [`RoundEvents`]: joins first (in event
    /// order, so the allocated ids are deterministic), then departures.
    ///
    /// Departures of workers that already left are skipped silently — in an
    /// online campaign a leave notice can race a previous one — while unknown
    /// ids are still hard errors. Returns the ids actually joined/departed.
    pub fn apply_events(&mut self, events: &RoundEvents) -> Result<AppliedRoundEvents, SimError> {
        let mut applied = AppliedRoundEvents::default();
        for spec in &events.joins {
            applied.joined.push(self.add_worker(spec)?);
        }
        for &id in &events.leaves {
            if id >= self.active.len() {
                return Err(SimError::UnknownWorker { id });
            }
            if self.active[id] {
                self.active[id] = false;
                applied.departed.push(id);
            }
        }
        Ok(applied)
    }

    /// Number of assignment rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Assigns `tasks_per_worker` learning tasks to every worker in `worker_ids`,
    /// records their answers, and reveals the ground truth so they learn, as in
    /// Algorithm 4 (line 5: one batch of golden questions per round). All listed
    /// workers answer at their pre-round accuracy — the learning update is applied
    /// after the round's sheets are complete.
    ///
    /// This is the single-shard layout of
    /// [`Platform::assign_learning_batch_sharded`], which it delegates to; the
    /// two are bit-for-bit identical for every shard count.
    ///
    /// The returned record is the round's only copy: the platform keeps none.
    ///
    /// Returns an error if a worker id is unknown or has left, or if the assignment
    /// would exceed the total budget.
    pub fn assign_learning_batch(
        &mut self,
        worker_ids: &[WorkerId],
        tasks_per_worker: usize,
    ) -> Result<RoundRecord, SimError> {
        self.assign_learning_batch_sharded(
            worker_ids,
            tasks_per_worker,
            &WorkerShards::single(worker_ids.len()),
        )
    }

    /// [`Platform::assign_learning_batch`] over an explicit worker-range
    /// partition: each shard's answer sheets are produced independently by
    /// [`WorkerShards::map`] (per-worker RNG streams make the result
    /// independent of the shard layout) and merged back in worker order,
    /// after which the learning updates are applied.
    ///
    /// `shards` must partition exactly `worker_ids.len()` positions
    /// ([`WorkerShards::by_count`] over the same length always does). Passing the same worker id twice in one round draws
    /// the same answer stream twice — worker streams are keyed by (round,
    /// worker id), not by list position.
    ///
    /// Every check runs before any state changes, so a rejected round leaves
    /// the platform exactly as it was.
    pub fn assign_learning_batch_sharded(
        &mut self,
        worker_ids: &[WorkerId],
        tasks_per_worker: usize,
        shards: &WorkerShards,
    ) -> Result<RoundRecord, SimError> {
        check_partition(worker_ids, shards)?;
        let mut record = RoundRecord {
            round: self.rounds_run + 1,
            tasks_per_worker: 0,
            sheets: Vec::new(),
        };
        // An empty assignment is a no-op round: recorded, but nothing is
        // answered or spent.
        if !worker_ids.is_empty() && tasks_per_worker > 0 {
            self.check_active(worker_ids)?;
            let requested = tasks_per_worker
                .checked_mul(worker_ids.len())
                .filter(|&requested| requested <= self.budget_remaining())
                .ok_or(SimError::BudgetExceeded {
                    requested: tasks_per_worker.saturating_mul(worker_ids.len()),
                    remaining: self.budget_remaining(),
                })?;

            // Answering phase: the shards run through `WorkerShards::map` (on
            // at most the machine's threads, whatever the shard count).
            // Every participant answers at its pre-round accuracy (Algorithm 4
            // line 5); sheets come back in shard == worker order.
            let epoch = record.round as u64;
            record.sheets = shards.map(|range| {
                Ok::<_, SimError>(self.answer_sheets(
                    STREAM_LEARNING,
                    epoch,
                    &worker_ids[range],
                    tasks_per_worker,
                    |sheet| sheet,
                ))
            })?;

            // Learning phase: reveal the ground truth and move every
            // participant along its learning curve (cheap, O(1) per worker —
            // kept sequential).
            for sheet in &record.sheets {
                self.workers[sheet.worker].learn_from_batch(sheet)?;
            }
            record.tasks_per_worker = tasks_per_worker;
            self.budget_spent += requested;
        }
        self.rounds_run += 1;
        Ok(record)
    }

    /// Has every worker in `worker_ids` annotate the dataset's `working_tasks`
    /// working tasks and returns their average observed accuracy — the
    /// evaluation criterion of the paper (Sec. V-C). Working tasks never reveal
    /// their ground truth, so this does not train the workers and does not
    /// consume budget. Repeated evaluations draw fresh answering noise (the
    /// evaluation counter is part of the stream derivation).
    ///
    /// Delegates to [`Platform::evaluate_working_accuracy_sharded`] with the
    /// single-shard layout; the two are bit-for-bit identical for every shard
    /// count.
    pub fn evaluate_working_accuracy(&mut self, worker_ids: &[WorkerId]) -> Result<f64, SimError> {
        self.evaluate_working_accuracy_sharded(worker_ids, &WorkerShards::single(worker_ids.len()))
    }

    /// [`Platform::evaluate_working_accuracy`] over an explicit worker-range
    /// partition: per-shard annotation runs through [`WorkerShards::map`],
    /// and the per-worker accuracies are averaged in worker order so the
    /// float accumulation — like everything else — is independent of the
    /// shard layout.
    ///
    /// An empty worker list evaluates to 0.0 and draws no noise; any other
    /// valid call consumes one evaluation epoch. A rejected call consumes
    /// nothing.
    pub fn evaluate_working_accuracy_sharded(
        &mut self,
        worker_ids: &[WorkerId],
        shards: &WorkerShards,
    ) -> Result<f64, SimError> {
        check_partition(worker_ids, shards)?;
        if worker_ids.is_empty() {
            return Ok(0.0);
        }
        self.check_active(worker_ids)?;
        let epoch = self.evaluations_run as u64;
        self.evaluations_run += 1;
        let accuracies = shards.map(|range| {
            Ok::<_, SimError>(self.answer_sheets(
                STREAM_WORKING,
                epoch,
                &worker_ids[range],
                self.working_tasks,
                |sheet| sheet.accuracy(),
            ))
        })?;
        // Accumulate in worker order (shard order == worker order), so the
        // sum is the same float expression for every shard layout.
        let mut total = 0.0;
        for accuracy in &accuracies {
            total += accuracy;
        }
        Ok(total / worker_ids.len() as f64)
    }

    /// Errors on the first id that is unknown or has left the platform.
    fn check_active(&self, worker_ids: &[WorkerId]) -> Result<(), SimError> {
        for &id in worker_ids {
            if id >= self.workers.len() {
                return Err(SimError::UnknownWorker { id });
            }
            if !self.active[id] {
                return Err(SimError::InvalidConfig {
                    what: "worker has left the platform",
                    value: id as f64,
                });
            }
        }
        Ok(())
    }

    /// The answer sheets of `worker_ids` on `tasks` tasks, passed through
    /// `finish`, in list order: each worker answers at its current accuracy
    /// from its own `(seed, tag, epoch, id)` stream, so a sheet never depends
    /// on which shard or thread drew it.
    ///
    /// Workers answer [`LANES`] at a time through [`AnswerLanes`]; the last
    /// block is padded with lanes that no draw can pass, whose counts are
    /// dropped.
    fn answer_sheets<T>(
        &self,
        tag: u64,
        epoch: u64,
        worker_ids: &[WorkerId],
        tasks: usize,
        finish: impl Fn(AnswerSheet) -> T,
    ) -> Vec<T> {
        let family = absorb(absorb(self.seed, tag), epoch);
        let mut out = Vec::with_capacity(worker_ids.len());
        for block in worker_ids.chunks(LANES) {
            let mut seeds = [0; LANES];
            let mut thresholds = [0; LANES];
            for (lane, &id) in block.iter().enumerate() {
                seeds[lane] = absorb(family, id as u64);
                thresholds[lane] = threshold(self.workers[id].current_accuracy());
            }
            let counts = AnswerLanes::seed_from_u64(seeds).count_correct(thresholds, tasks);
            out.extend(
                block
                    .iter()
                    .zip(counts)
                    .map(|(&id, correct)| finish(AnswerSheet::new(id, tasks, correct as usize))),
            );
        }
        out
    }

    /// Average *true* (noise-free) accuracy of the listed workers — a lower-variance
    /// alternative evaluation used by some diagnostics.
    pub fn expected_working_accuracy(&self, worker_ids: &[WorkerId]) -> Result<f64, SimError> {
        if worker_ids.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for &id in worker_ids {
            total += self.true_accuracy(id)?;
        }
        Ok(total / worker_ids.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetConfig;
    use crate::generator::generate;
    use crate::worker::draw_correct;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn platform() -> Platform {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        Platform::from_dataset(&ds, 7).unwrap()
    }

    #[test]
    fn construction_reflects_dataset() {
        let p = platform();
        assert_eq!(p.pool_size(), 27);
        assert_eq!(p.budget_total(), 540);
        assert_eq!(p.budget_spent(), 0);
        assert_eq!(p.budget_remaining(), 540);
        assert_eq!(p.worker_ids().len(), 27);
        assert_eq!(p.profiles().len(), 27);
        assert_eq!(p.true_accuracies().len(), 27);
        assert_eq!(p.rounds_run(), 0);
    }

    /// Asserts that `p` matches `fresh` in everything a rejected call could
    /// have touched: rounds, budget, true accuracies, the noise of the next
    /// evaluation (a consumed evaluation epoch would shift it), and the next
    /// round's record (a counted round would shift its number and its answer
    /// streams).
    fn assert_untouched(p: &mut Platform, fresh: &mut Platform) {
        assert_eq!(p.rounds_run(), fresh.rounds_run());
        assert_eq!(p.budget_spent(), fresh.budget_spent());
        assert_eq!(p.true_accuracies(), fresh.true_accuracies());
        let ids = fresh.active_worker_ids();
        assert_eq!(
            p.evaluate_working_accuracy(&ids).unwrap(),
            fresh.evaluate_working_accuracy(&ids).unwrap()
        );
        assert_eq!(
            p.assign_learning_batch(&ids, 1).unwrap(),
            fresh.assign_learning_batch(&ids, 1).unwrap()
        );
    }

    #[test]
    fn unknown_worker_errors() {
        let mut p = platform();
        assert!(p.profile(100).is_err());
        assert!(p.true_accuracy(100).is_err());
        assert!(p.cumulative_learning_tasks(100).is_err());
        // A valid id ahead of the unknown one is neither answered nor trained.
        assert!(matches!(
            p.assign_learning_batch(&[0, 100], 5),
            Err(SimError::UnknownWorker { id: 100 })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy(&[0, 100]),
            Err(SimError::UnknownWorker { id: 100 })
        ));
        assert_untouched(&mut p, &mut platform());

        // Departed ids are rejected the same way, before any state changes.
        let departed = || {
            let mut p = platform();
            let leave = crate::event::RoundEvents::none().with_leave(3);
            p.apply_events(&leave).unwrap();
            p
        };
        let mut p = departed();
        assert!(matches!(
            p.assign_learning_batch(&[0, 3], 5),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy(&[0, 3]),
            Err(SimError::InvalidConfig { .. })
        ));
        assert_untouched(&mut p, &mut departed());
    }

    #[test]
    fn learning_batch_trains_workers_and_spends_budget() {
        let mut p = platform();
        let ids = p.worker_ids();
        let record = p.assign_learning_batch(&ids, 10).unwrap();
        assert_eq!(record.round, 1);
        assert_eq!(record.sheets.len(), 27);
        assert_eq!(record.tasks_per_worker, 10);
        assert!(record.sheets.iter().all(|s| s.len() == 10));
        assert_eq!(p.budget_spent(), 270);
        assert_eq!(p.budget_remaining(), 270);
        assert_eq!(p.rounds_run(), 1);
        for &id in &ids {
            assert_eq!(p.cumulative_learning_tasks(id).unwrap(), 10);
        }
    }

    #[test]
    fn budget_is_enforced() {
        let mut p = platform();
        let ids = p.worker_ids();
        p.assign_learning_batch(&ids, 10).unwrap();
        // 270 remaining; 27 workers * 11 tasks = 297 > 270.
        let err = p.assign_learning_batch(&ids, 11).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
        // A smaller assignment still fits.
        p.assign_learning_batch(&ids[..14], 19).unwrap();
        assert!(p.budget_spent() <= p.budget_total());
    }

    #[test]
    fn an_overflowing_budget_product_is_rejected_before_any_state_changes() {
        // 27 workers * (usize::MAX / 2) tasks does not fit in a usize.
        let mut p = platform();
        let ids = p.worker_ids();
        let err = p.assign_learning_batch(&ids, usize::MAX / 2).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::BudgetExceeded {
                    requested: usize::MAX,
                    remaining: 540
                }
            ),
            "{err:?}"
        );
        assert_untouched(&mut p, &mut platform());
    }

    #[test]
    fn empty_assignment_is_a_noop_round() {
        let mut p = platform();
        let record = p.assign_learning_batch(&[], 10).unwrap();
        assert_eq!(record.sheets.len(), 0);
        assert_eq!(p.budget_spent(), 0);
        let record = p.assign_learning_batch(&[0, 1], 0).unwrap();
        assert_eq!(record.tasks_per_worker, 0);
        assert!(record.sheets.is_empty());
        assert_eq!(p.budget_spent(), 0);
        // No-op rounds still count.
        assert_eq!((record.round, p.rounds_run()), (2, 2));
    }

    #[test]
    fn training_improves_strong_workers_over_batches() {
        // Workers whose initial accuracy is above the 0.5 task baseline follow an
        // increasing IRT trajectory: after several revealed batches their true
        // accuracy should be higher than it was before training (the simulated
        // counterpart of the accuracy uplift reported in Sec. V-H of the paper).
        let mut p = platform();
        let ids = p.worker_ids();
        let initial = p.true_accuracies();
        let strong: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&id| initial[id] > 0.65)
            .collect();
        assert!(
            !strong.is_empty(),
            "RW-1 pool should contain strong workers"
        );
        let before = p.expected_working_accuracy(&strong).unwrap();
        for _ in 0..3 {
            p.assign_learning_batch(&strong, 6).unwrap();
        }
        let after = p.expected_working_accuracy(&strong).unwrap();
        assert!(
            after > before + 0.02,
            "training should lift strong workers: {before} -> {after}"
        );
    }

    #[test]
    fn working_evaluation_reflects_true_accuracy() {
        let mut p = platform();
        let truths = p.true_accuracies();
        // Index of the strongest and weakest worker by true accuracy.
        let best = (0..truths.len())
            .max_by(|&a, &b| truths[a].partial_cmp(&truths[b]).unwrap())
            .unwrap();
        let worst = (0..truths.len())
            .min_by(|&a, &b| truths[a].partial_cmp(&truths[b]).unwrap())
            .unwrap();
        let best_acc = p.evaluate_working_accuracy(&[best]).unwrap();
        let worst_acc = p.evaluate_working_accuracy(&[worst]).unwrap();
        assert!(best_acc > worst_acc);
        assert_eq!(p.evaluate_working_accuracy(&[]).unwrap(), 0.0);
        // Evaluation never consumes budget.
        assert_eq!(p.budget_spent(), 0);
    }

    #[test]
    fn working_batches_do_not_train() {
        // Working tasks never reveal their ground truth: evaluation moves no
        // worker along its learning curve.
        let mut p = platform();
        let ids = p.worker_ids();
        let before = p.true_accuracies();
        p.evaluate_working_accuracy(&ids).unwrap();
        assert_eq!(p.true_accuracies(), before);
        assert!(ids
            .iter()
            .all(|&id| p.cumulative_learning_tasks(id).unwrap() == 0));
    }

    #[test]
    fn repeated_evaluations_draw_fresh_noise() {
        let mut p = platform();
        let ids = p.worker_ids();
        let first = p.evaluate_working_accuracy(&ids).unwrap();
        let second = p.evaluate_working_accuracy(&ids).unwrap();
        // Same pool, same true accuracies — but a fresh evaluation epoch, so
        // the observed accuracies differ (while staying close in expectation).
        assert_ne!(first, second);
        assert!((first - second).abs() < 0.2);
    }

    #[test]
    fn rounds_are_numbered_in_order() {
        let mut p = platform();
        let ids = p.worker_ids();
        let first = p.assign_learning_batch(&ids, 5).unwrap();
        let second = p.assign_learning_batch(&ids[..10], 5).unwrap();
        assert_eq!(p.rounds_run(), 2);
        assert_eq!(first.round, 1);
        assert_eq!(second.round, 2);
        assert_eq!(second.sheets.len(), 10);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let run = |seed| {
            let mut p = Platform::from_dataset(&ds, seed).unwrap();
            let ids = p.worker_ids();
            let record = p.assign_learning_batch(&ids, 10).unwrap();
            let observed: Vec<f64> = record.sheets.iter().map(|s| s.accuracy()).collect();
            (p.true_accuracies(), observed)
        };
        // Same seed: identical observed answers and identical true trajectories.
        assert_eq!(run(3), run(3));
        // Different seed: the true trajectories are a latent property of the dataset
        // (identical), but the observed answers differ.
        let (truth_a, obs_a) = run(3);
        let (truth_b, obs_b) = run(4);
        assert_eq!(truth_a, truth_b);
        assert_ne!(obs_a, obs_b);
    }

    #[test]
    fn sharded_assignment_matches_unsharded_for_any_layout() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let reference = {
            let mut p = Platform::from_dataset(&ds, 5).unwrap();
            let ids = p.worker_ids();
            p.assign_learning_batch(&ids, 10).unwrap()
        };
        for num_shards in [1usize, 3, 16, 64] {
            let mut p = Platform::from_dataset(&ds, 5).unwrap();
            let ids = p.worker_ids();
            let shards = WorkerShards::by_count(ids.len(), num_shards);
            let record = p.assign_learning_batch_sharded(&ids, 10, &shards).unwrap();
            assert_eq!(record, reference, "{num_shards} shards");
        }
    }

    #[test]
    fn sharded_paths_reject_mismatched_partitions() {
        let mut p = platform();
        let ids = p.worker_ids();
        let wrong = WorkerShards::by_count(ids.len() + 1, 2);
        assert!(matches!(
            p.assign_learning_batch_sharded(&ids, 5, &wrong),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy_sharded(&ids, &wrong),
            Err(SimError::InvalidConfig { .. })
        ));
        // Over budget on a valid partition: 27 workers * 21 tasks > 540.
        let shards = WorkerShards::by_count(ids.len(), 3);
        assert!(matches!(
            p.assign_learning_batch_sharded(&ids, 21, &shards),
            Err(SimError::BudgetExceeded { .. })
        ));
        assert_untouched(&mut p, &mut platform());
    }

    #[test]
    fn churn_allocates_dense_ids_and_retires_departures() {
        use crate::event::RoundEvents;
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut p = Platform::from_dataset(&ds, 7).unwrap();
        let n = p.pool_size();
        let spec = ds.workers[0].clone();
        let applied = p
            .apply_events(&RoundEvents {
                joins: vec![spec.clone(), spec],
                leaves: vec![3],
            })
            .unwrap();
        assert_eq!(applied.joined, vec![n, n + 1]);
        assert_eq!(applied.departed, vec![3]);
        assert_eq!(p.pool_size(), n + 2);
        assert!(!p.is_active(3));
        assert!(p.is_active(n + 1));
        assert!(!p.is_active(n + 2));
        let active = p.active_worker_ids();
        assert_eq!(active.len(), n + 1);
        assert!(!active.contains(&3));
        // Departed workers are rejected by both platform operations...
        assert!(matches!(
            p.assign_learning_batch(&[3], 5),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.evaluate_working_accuracy(&[3]),
            Err(SimError::InvalidConfig { .. })
        ));
        // ...their history stays queryable...
        assert!(p.profile(3).is_ok());
        // ...a second departure is skipped...
        let applied = p.apply_events(&RoundEvents::none().with_leave(3)).unwrap();
        assert!(applied.is_empty());
        // ...and unknown ids are hard errors.
        assert!(matches!(
            p.apply_events(&RoundEvents::none().with_leave(999)),
            Err(SimError::UnknownWorker { id: 999 })
        ));
    }

    #[test]
    fn churn_preserves_surviving_worker_streams() {
        use crate::event::RoundEvents;
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let reference = {
            let mut p = Platform::from_dataset(&ds, 11).unwrap();
            let ids = p.worker_ids();
            p.assign_learning_batch(&ids, 10).unwrap()
        };
        // Same round, but with a join and a departure applied first: every
        // surviving original worker must produce the exact same sheet.
        let mut p = Platform::from_dataset(&ds, 11).unwrap();
        p.apply_events(&RoundEvents {
            joins: vec![ds.workers[0].clone()],
            leaves: vec![5],
        })
        .unwrap();
        let record = p.assign_learning_batch(&p.active_worker_ids(), 10).unwrap();
        for sheet in &reference.sheets {
            if sheet.worker == 5 {
                continue;
            }
            let survived = record
                .sheets
                .iter()
                .find(|s| s.worker == sheet.worker)
                .unwrap();
            assert_eq!(sheet, survived, "worker {} stream changed", sheet.worker);
        }
    }

    #[test]
    fn drift_scenario_is_applied_to_initial_and_joining_workers() {
        let config = DatasetConfig::rw1_drift();
        let ds = generate(&config).unwrap();
        let mut p = Platform::new(&ds, 7, 0.0).unwrap();
        let id = p.add_worker(&ds.workers[0]).unwrap();
        let ids = p.active_worker_ids();
        p.assign_learning_batch(&ids, 10).unwrap();
        // Same dataset without drift: trained accuracies must be strictly higher.
        let plain_ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut plain = Platform::new(&plain_ds, 7, 0.0).unwrap();
        plain.add_worker(&plain_ds.workers[0]).unwrap();
        plain.assign_learning_batch(&ids, 10).unwrap();
        for &w in &ids {
            let drifted = p.true_accuracy(w).unwrap();
            let undrifted = plain.true_accuracy(w).unwrap();
            let expected = (undrifted - config.scenario.accuracy_drift * 10.0).clamp(0.0, 1.0);
            assert!(
                (drifted - expected).abs() < 1e-12,
                "worker {w}: {drifted} vs {expected}"
            );
        }
        assert_eq!(id, ds.workers.len());
    }

    #[test]
    fn answer_order_is_independent_of_worker_order() {
        // Per-worker streams: permuting the worker list permutes the sheets
        // but never changes any individual worker's answers.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut forward = Platform::from_dataset(&ds, 9).unwrap();
        let ids = forward.worker_ids();
        let record_fwd = forward.assign_learning_batch(&ids, 10).unwrap();
        let mut reversed = Platform::from_dataset(&ds, 9).unwrap();
        let rev_ids: Vec<WorkerId> = ids.iter().rev().copied().collect();
        let record_rev = reversed.assign_learning_batch(&rev_ids, 10).unwrap();
        for sheet in &record_fwd.sheets {
            let mirrored = record_rev
                .sheets
                .iter()
                .find(|s| s.worker == sheet.worker)
                .unwrap();
            assert_eq!(sheet, mirrored);
        }
    }

    #[test]
    fn lane_blocks_equal_the_per_worker_float_reference() {
        // Every list length from 0 to 17 covers each remainder mod LANES (and
        // so every padded last block); ids run in a scrambled order, with
        // workers at accuracy 0 and 1 among them.
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let mut p = Platform::from_dataset(&ds, 13).unwrap();
        for accuracy in [0.0, 1.0] {
            let mut spec = ds.workers[0].clone();
            spec.initial_target_accuracy = accuracy;
            p.add_worker(&spec).unwrap();
        }
        let scrambled: Vec<WorkerId> = [20, 27, 3, 28].into_iter().chain((0..20).rev()).collect();
        for len in 0..=17 {
            let ids = &scrambled[..len];
            for tasks in [0, 1, 110] {
                for (tag, epoch) in [(STREAM_LEARNING, 1), (STREAM_WORKING, 0)] {
                    let sheets = p.answer_sheets(tag, epoch, ids, tasks, |sheet| sheet);
                    let reference: Vec<AnswerSheet> = ids
                        .iter()
                        .map(|&id| {
                            let seed = absorb(absorb(absorb(p.seed, tag), epoch), id as u64);
                            let mut rng = StdRng::seed_from_u64(seed);
                            let accuracy = p.workers[id].current_accuracy();
                            AnswerSheet::new(id, tasks, draw_correct(&mut rng, accuracy, tasks))
                        })
                        .collect();
                    assert_eq!(
                        sheets, reference,
                        "{len} workers, {tasks} tasks, tag {tag:x}"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_working_accuracy_is_the_mean_true_accuracy() {
        let p = platform();
        assert_eq!(p.expected_working_accuracy(&[]).unwrap(), 0.0);
        let truth = p.true_accuracies();
        let mean = p.expected_working_accuracy(&[2, 5]).unwrap();
        assert!((mean - (truth[2] + truth[5]) / 2.0).abs() < 1e-15);
        assert!(matches!(
            p.expected_working_accuracy(&[2, 99]),
            Err(SimError::UnknownWorker { id: 99 })
        ));
    }

    #[test]
    fn non_finite_difficulty_is_rejected() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        assert!(Platform::new(&ds, 1, f64::NAN).is_err());
        assert!(Platform::new(&ds, 1, f64::INFINITY).is_err());
        let p = Platform::new(&ds, 1, 0.5).unwrap();
        assert_eq!(p.true_accuracies(), ds.initial_target_accuracies());
    }
}
