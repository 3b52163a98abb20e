//! Workers: historical profiles and trainable simulated workers.
//!
//! Definition 2 of the paper associates every worker `w_i` with a historical profile
//! `(h_i, n_i)` — per-prior-domain accuracy and task counts — plus a latent
//! target-domain accuracy `h_{i,T}`. The simulator additionally gives each worker a
//! *learning trajectory*: after a batch of learning tasks is answered and the ground
//! truth revealed, the worker's true target-domain accuracy moves along the modified
//! IRT curve `g(alpha_i, beta_T, K)` (Sec. V-A), with `alpha_i` identified from the
//! first observed batch exactly as the paper's synthetic-dataset construction does.

use crate::task::AnswerSheet;
use crate::SimError;
use c4u_irt::LearningGainModel;
#[cfg(test)]
use rand::Rng;

/// Identifier of a worker inside a pool (dense, 0-based).
pub type WorkerId = usize;

/// SplitMix64 finaliser: the bijective avalanche mix of Steele et al., also
/// used by the vendored `StdRng`'s seeding.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of answer streams [`AnswerLanes`] steps side by side. Eight `u64`
/// lanes fill two 256-bit registers per state word under the x86-64-v3
/// codegen pin; four lanes ran slower than one scalar stream.
pub(crate) const LANES: usize = 8;

/// The integer form of the answering test: a draw `x` is correct exactly when
/// `x >> 11 < threshold(accuracy)`.
///
/// The vendored `StdRng` turns `x` into the float `(x >> 11) * 2^-53`, which is
/// exact, and a task is correct when that float is below the accuracy `p`. For
/// an integer `u < 2^53`, `u * 2^-53 < p` holds exactly when `u < ceil(p *
/// 2^53)`, and `p * 2^53` is exact for `p` in `(0, 1)`. So the threshold is
/// that ceiling, `0` when no draw can pass (`p <= 0` or NaN), and `2^53` when
/// every draw passes (`p >= 1`).
pub(crate) fn threshold(accuracy: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    if accuracy >= 1.0 {
        1 << 53
    } else if accuracy > 0.0 {
        (accuracy * SCALE).ceil() as u64
    } else {
        // `accuracy <= 0` or NaN.
        0
    }
}

/// [`LANES`] xoshiro256++ streams stepped together, each seeded and stepped
/// exactly as the vendored `StdRng::seed_from_u64` (SplitMix64 expansion of
/// `seed ^ 4`) and `next_u64` do, so lane `l` yields stream `l`'s draws bit
/// for bit.
///
/// The state is held word-major, one `[u64; LANES]` column per xoshiro state
/// word, so every step is a handful of whole-column integer operations.
pub(crate) struct AnswerLanes {
    state: [[u64; LANES]; 4],
}

impl AnswerLanes {
    /// Seeds lane `l` from `seeds[l]`.
    pub(crate) fn seed_from_u64(seeds: [u64; LANES]) -> Self {
        // SplitMix64 expands `seed ^ 4` into word `w` as the finaliser of
        // `(seed ^ 4) + (w + 1) * golden`: computed column by column, every
        // lane's words are independent.
        let mut state = [[0; LANES]; 4];
        for (w, word) in state.iter_mut().enumerate() {
            let step = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1);
            for lane in 0..LANES {
                word[lane] = mix64((seeds[lane] ^ 4).wrapping_add(step));
            }
        }
        Self { state }
    }

    /// One xoshiro256++ step of every lane: each lane's next `u64`.
    #[inline(always)]
    fn next_u64(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.state;
        let mut out = [0; LANES];
        for lane in 0..LANES {
            out[lane] = s0[lane]
                .wrapping_add(s3[lane])
                .rotate_left(23)
                .wrapping_add(s0[lane]);
            let t = s1[lane] << 17;
            s2[lane] ^= s0[lane];
            s3[lane] ^= s1[lane];
            s1[lane] ^= s2[lane];
            s0[lane] ^= s3[lane];
            s2[lane] ^= t;
            s3[lane] = s3[lane].rotate_left(45);
        }
        out
    }

    /// Draws `tasks` answers in every lane and counts, per lane, the draws
    /// below that lane's [`threshold`]: the number of correct answers of a
    /// worker whose accuracy gave the threshold.
    ///
    /// This is the single answering draw of the whole simulator: the
    /// platform's answer sheets, learning and working alike, sharded or not,
    /// are made of it, and a task is one more draw of its worker's stream.
    pub(crate) fn count_correct(mut self, thresholds: [u64; LANES], tasks: usize) -> [u64; LANES] {
        let mut counts = [0; LANES];
        for _ in 0..tasks {
            let draws = self.next_u64();
            for lane in 0..LANES {
                counts[lane] += u64::from(draws[lane] >> 11 < thresholds[lane]);
            }
        }
        counts
    }
}

/// Draws `tasks` answers at `accuracy` from one stream and returns how many
/// are correct: one uniform float per task, correct when it falls below
/// `accuracy`. The float reference that [`AnswerLanes::count_correct`] must
/// equal bit for bit.
#[cfg(test)]
pub(crate) fn draw_correct<R: Rng + ?Sized>(rng: &mut R, accuracy: f64, tasks: usize) -> usize {
    (0..tasks).filter(|_| rng.gen::<f64>() < accuracy).count()
}

/// How strongly a worker's cross-domain learning aptitude (one standard deviation of
/// general ability) shifts the logit of their post-training accuracy.
pub const APTITUDE_GAIN: f64 = 0.6;

/// Historical profile `(h_i, n_i)` of a worker over the prior domains.
///
/// A `None` accuracy means the worker has never worked on that domain; the selection
/// algorithms must cope with such gaps (Sec. IV-E of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoricalProfile {
    accuracies: Vec<Option<f64>>,
    task_counts: Vec<usize>,
}

impl HistoricalProfile {
    /// Creates a profile from per-domain accuracies and task counts.
    pub fn new(accuracies: Vec<Option<f64>>, task_counts: Vec<usize>) -> Result<Self, SimError> {
        if accuracies.len() != task_counts.len() {
            return Err(SimError::InvalidConfig {
                what: "profile accuracies and task counts must have equal length",
                value: accuracies.len() as f64 - task_counts.len() as f64,
            });
        }
        for a in accuracies.iter().flatten() {
            if !(0.0..=1.0).contains(a) || a.is_nan() {
                return Err(SimError::InvalidConfig {
                    what: "profile accuracies must lie in [0, 1]",
                    value: *a,
                });
            }
        }
        Ok(Self {
            accuracies,
            task_counts,
        })
    }

    /// Creates a complete profile (a record on every prior domain).
    // c4u-lint: allow(unused-pub-fn, reason = "README's doctested EM-update example calls it")
    pub fn complete(accuracies: Vec<f64>, task_counts: Vec<usize>) -> Result<Self, SimError> {
        Self::new(accuracies.into_iter().map(Some).collect(), task_counts)
    }

    /// Number of prior domains covered by the profile (including gaps).
    pub fn num_domains(&self) -> usize {
        self.accuracies.len()
    }

    /// Accuracy on prior domain `d`, if the worker has a record there.
    pub fn accuracy(&self, d: usize) -> Option<f64> {
        self.accuracies.get(d).copied().flatten()
    }

    /// Number of tasks completed on prior domain `d` (0 when out of range).
    pub fn task_count(&self, d: usize) -> usize {
        self.task_counts.get(d).copied().unwrap_or(0)
    }

    /// Accuracies of the observed domains, in domain order.
    #[cfg(test)]
    pub(crate) fn observed_accuracies(&self) -> Vec<f64> {
        self.accuracies.iter().filter_map(|a| *a).collect()
    }

    /// Dense accuracy vector with gaps filled by `fill`.
    pub fn dense_accuracies(&self, fill: f64) -> Vec<f64> {
        self.accuracies.iter().map(|a| a.unwrap_or(fill)).collect()
    }
}

/// Latent specification of a simulated worker, as produced by the dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// The worker's historical profile over the prior domains.
    pub profile: HistoricalProfile,
    /// True (latent) target-domain accuracy before any training.
    pub initial_target_accuracy: f64,
    /// True per-domain accuracies used when generating the profile (diagnostics).
    pub latent_prior_accuracies: Vec<f64>,
    /// Standardised learning aptitude (z-score of the worker's general ability in the
    /// pool). Workers with broad cross-domain competence pick up a new domain faster
    /// than their pre-training target accuracy alone suggests — the premise of the
    /// paper's "train and select" pipeline. Zero means an average learner.
    pub learning_aptitude: f64,
}

/// A trainable simulated worker.
///
/// The worker answers tasks with its *current* true target-domain accuracy; after
/// each learning batch (with ground truth revealed) the accuracy moves along the
/// modified IRT curve `g(alpha, beta_T, K)` of Sec. V-A. The learning parameter
/// `alpha` is the noise-free limit of the paper's calibration: it is chosen so that
/// the curve passes through the worker's latent initial accuracy at the dataset's
/// per-batch task count `Q` (the paper identifies the same quantity from the
/// *observed* first-batch accuracy, which is a noisy estimate of this value; see
/// "Substitutions" in ARCHITECTURE.md).
#[derive(Debug, Clone)]
pub struct SimulatedWorker {
    id: WorkerId,
    profile: HistoricalProfile,
    /// Difficulty parameter of the target domain used for the learning dynamics.
    target_difficulty: f64,
    /// Accuracy before any training.
    initial_accuracy: f64,
    /// Current true accuracy on the target domain.
    current_accuracy: f64,
    /// Cumulative number of learning tasks whose ground truth has been revealed.
    cumulative_learning_tasks: usize,
    /// Reference batch size the learning curve is anchored at (the dataset's `Q`).
    reference_batch: usize,
    /// The worker's latent learning curve.
    learning: LearningGainModel,
    /// Per-task accuracy decay applied on top of the learning curve (the drift
    /// scenario). Zero — the default — leaves the closed-world dynamics untouched.
    accuracy_drift: f64,
}

impl SimulatedWorker {
    /// Creates a worker from its latent specification.
    ///
    /// `reference_batch` is the per-batch task count `Q` of the dataset: the latent
    /// learning curve is anchored so that `g(alpha, beta_T, Q)` equals the worker's
    /// initial accuracy, after which further revealed batches move the accuracy
    /// along the curve.
    pub fn new(
        id: WorkerId,
        spec: &WorkerSpec,
        target_difficulty: f64,
        reference_batch: usize,
    ) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&spec.initial_target_accuracy)
            || spec.initial_target_accuracy.is_nan()
        {
            return Err(SimError::InvalidConfig {
                what: "initial target accuracy must lie in [0, 1]",
                value: spec.initial_target_accuracy,
            });
        }
        if !target_difficulty.is_finite() {
            return Err(SimError::InvalidConfig {
                what: "target difficulty must be finite",
                value: target_difficulty,
            });
        }
        if reference_batch == 0 {
            return Err(SimError::InvalidConfig {
                what: "reference batch size must be >= 1",
                value: 0.0,
            });
        }
        // Anchor the latent learning curve at the reference batch size: the curve
        // passes through the initial accuracy at K = Q (clamped away from 0/1 so the
        // implied alpha stays finite), and workers with a higher cross-domain
        // learning aptitude climb the curve faster.
        let anchor = spec.initial_target_accuracy.clamp(0.02, 0.98);
        let base_alpha =
            LearningGainModel::solve_alpha(anchor, target_difficulty, reference_batch as f64)?;
        let aptitude = spec.learning_aptitude.clamp(-3.0, 3.0);
        let alpha = base_alpha + APTITUDE_GAIN * aptitude / (reference_batch as f64 + 1.0).ln();
        let learning = LearningGainModel::new(alpha, target_difficulty)?;
        Ok(Self {
            id,
            profile: spec.profile.clone(),
            target_difficulty,
            initial_accuracy: spec.initial_target_accuracy,
            current_accuracy: spec.initial_target_accuracy,
            cumulative_learning_tasks: 0,
            reference_batch,
            learning,
            accuracy_drift: 0.0,
        })
    }

    /// Sets the per-task accuracy drift of the worker.
    ///
    /// Under drift the worker's true accuracy after `K` revealed tasks becomes
    /// `g(alpha, beta_T, max(K, Q)) - drift * K` (clamped to `[0, 1]`), modelling a
    /// population whose concentration degrades over a long campaign (the RW-1-drift
    /// robustness scenario). A drift of zero restores the exact closed-world curve.
    pub fn set_accuracy_drift(&mut self, drift: f64) -> Result<(), SimError> {
        if !drift.is_finite() || !(0.0..1.0).contains(&drift) {
            return Err(SimError::InvalidConfig {
                what: "accuracy drift must lie in [0, 1)",
                value: drift,
            });
        }
        self.accuracy_drift = drift;
        Ok(())
    }

    /// The worker's per-task accuracy drift (zero outside drift scenarios).
    pub fn accuracy_drift(&self) -> f64 {
        self.accuracy_drift
    }

    /// Worker identifier.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Historical profile over the prior domains.
    pub fn profile(&self) -> &HistoricalProfile {
        &self.profile
    }

    /// True target-domain accuracy before any training.
    pub fn initial_accuracy(&self) -> f64 {
        self.initial_accuracy
    }

    /// Current true target-domain accuracy.
    pub fn current_accuracy(&self) -> f64 {
        self.current_accuracy
    }

    /// Cumulative number of learning tasks whose answers have been revealed to the
    /// worker so far.
    pub fn cumulative_learning_tasks(&self) -> usize {
        self.cumulative_learning_tasks
    }

    /// The target-domain difficulty parameter driving the worker's learning curve.
    pub fn target_difficulty(&self) -> f64 {
        self.target_difficulty
    }

    /// Applies the learning update for a batch whose ground truth has been revealed
    /// (Definition 3 of the paper). Only the batch's length matters: `K` counts
    /// revealed tasks, whatever the answers were.
    ///
    /// The true accuracy follows `g(alpha, beta_T, max(K, Q))` (Sec. V-A): revealing
    /// fewer than `Q` tasks keeps the worker at the initial (anchor) accuracy, and
    /// every task beyond the anchor moves the accuracy along the latent learning
    /// curve.
    pub fn learn_from_batch(&mut self, sheet: &AnswerSheet) -> Result<(), SimError> {
        if sheet.is_empty() {
            return Ok(());
        }
        self.cumulative_learning_tasks += sheet.len();
        let k = self.cumulative_learning_tasks.max(self.reference_batch) as f64;
        let mut accuracy = self.learning.accuracy(k);
        // Guarded so the closed-world path (drift == 0) stays bit-for-bit identical:
        // even an added `- 0.0` could flip the sign of a negative zero.
        if self.accuracy_drift > 0.0 {
            accuracy -= self.accuracy_drift * self.cumulative_learning_tasks as f64;
        }
        self.current_accuracy = accuracy.clamp(0.0, 1.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A revealed batch of `tasks` learning tasks; learning reads only its length.
    fn batch(tasks: usize) -> AnswerSheet {
        AnswerSheet::new(0, tasks, tasks)
    }

    fn spec(initial: f64) -> WorkerSpec {
        WorkerSpec {
            profile: HistoricalProfile::complete(vec![0.7, 0.88, 0.58], vec![20, 20, 20]).unwrap(),
            initial_target_accuracy: initial,
            latent_prior_accuracies: vec![0.7, 0.88, 0.58],
            learning_aptitude: 0.0,
        }
    }

    #[test]
    fn accuracy_drift_degrades_the_learning_curve() {
        let mut plain = SimulatedWorker::new(0, &spec(0.7), 0.0, 30).unwrap();
        let mut drifting = plain.clone();
        drifting.set_accuracy_drift(0.001).unwrap();
        plain.learn_from_batch(&batch(30)).unwrap();
        drifting.learn_from_batch(&batch(30)).unwrap();
        let expected = plain.current_accuracy() - 0.001 * 30.0;
        assert!((drifting.current_accuracy() - expected).abs() < 1e-12);
        // Zero drift is the identity: the setter round-trips without effect.
        let mut zeroed = SimulatedWorker::new(0, &spec(0.7), 0.0, 30).unwrap();
        zeroed.set_accuracy_drift(0.0).unwrap();
        zeroed.learn_from_batch(&batch(30)).unwrap();
        assert_eq!(zeroed.current_accuracy(), plain.current_accuracy());
        // Validation.
        assert!(plain.set_accuracy_drift(-0.1).is_err());
        assert!(plain.set_accuracy_drift(1.0).is_err());
        assert!(plain.set_accuracy_drift(f64::NAN).is_err());
    }

    #[test]
    fn profile_validation_and_accessors() {
        assert!(HistoricalProfile::new(vec![Some(0.5)], vec![1, 2]).is_err());
        assert!(HistoricalProfile::new(vec![Some(1.5)], vec![1]).is_err());
        let p = HistoricalProfile::new(vec![Some(0.7), None, Some(0.6)], vec![10, 0, 5]).unwrap();
        assert_eq!(p.num_domains(), 3);
        assert_eq!(p.accuracy(0), Some(0.7));
        assert_eq!(p.accuracy(1), None);
        assert_eq!(p.accuracy(9), None);
        assert_eq!(p.task_count(0), 10);
        assert_eq!(p.task_count(9), 0);
        assert_eq!(p.observed_accuracies(), vec![0.7, 0.6]);
        assert_eq!(p.dense_accuracies(0.5), vec![0.7, 0.5, 0.6]);
        let complete = HistoricalProfile::complete(vec![0.5], vec![3]).unwrap();
        assert_eq!(complete.observed_accuracies(), vec![0.5]);
    }

    #[test]
    fn worker_construction_validation() {
        assert!(SimulatedWorker::new(0, &spec(1.5), 0.0, 10).is_err());
        assert!(SimulatedWorker::new(0, &spec(0.5), f64::NAN, 10).is_err());
        assert!(SimulatedWorker::new(0, &spec(0.5), 0.0, 0).is_err());
        let w = SimulatedWorker::new(7, &spec(0.55), 0.0, 10).unwrap();
        assert_eq!(w.id(), 7);
        assert_eq!(w.current_accuracy(), 0.55);
        assert_eq!(w.cumulative_learning_tasks(), 0);
        // The latent alpha is anchored so that g(alpha, 0, 10) = 0.55 > 0.5 => positive.
        assert!(w.learning.proficiency(1.0) > 0.0);
    }

    #[test]
    fn answering_matches_accuracy_statistically() {
        let w = SimulatedWorker::new(0, &spec(0.8), 0.0, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let rate = draw_correct(&mut rng, w.current_accuracy(), 5_000) as f64 / 5_000.0;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn learning_batches_move_accuracy_along_irt_curve() {
        // A worker who starts well above the 0.5 baseline has a positive latent
        // alpha and keeps improving as batches are revealed.
        let mut w = SimulatedWorker::new(0, &spec(0.8), 0.0, 10).unwrap();
        w.learn_from_batch(&batch(10)).unwrap();
        assert_eq!(w.cumulative_learning_tasks(), 10);
        // After exactly the anchor batch the accuracy equals the initial accuracy.
        assert!((w.current_accuracy() - 0.8).abs() < 1e-9);
        let after_first = w.current_accuracy();
        // More training batches increase accuracy monotonically for positive alpha.
        for _ in 0..3 {
            w.learn_from_batch(&batch(10)).unwrap();
        }
        assert_eq!(w.cumulative_learning_tasks(), 40);
        assert!(w.current_accuracy() > after_first);
        assert!(w.current_accuracy() <= 1.0);
    }

    #[test]
    fn weak_worker_stays_weak() {
        // A worker starting near 0.25 has a negative latent alpha, so training does
        // not lift it above the task baseline.
        let mut w = SimulatedWorker::new(0, &spec(0.25), 0.0, 10).unwrap();
        w.learn_from_batch(&batch(20)).unwrap();
        assert!(w.current_accuracy() < 0.5);
        assert!(w.learning.proficiency(1.0) < 0.0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut w = SimulatedWorker::new(0, &spec(0.6), 0.0, 10).unwrap();
        let sheet = AnswerSheet::new(0, 0, 0);
        w.learn_from_batch(&sheet).unwrap();
        assert_eq!(w.cumulative_learning_tasks(), 0);
        assert_eq!(w.current_accuracy(), 0.6);
    }

    #[test]
    fn higher_aptitude_learns_faster() {
        let mut fast_spec = spec(0.6);
        fast_spec.learning_aptitude = 1.5;
        let mut slow_spec = spec(0.6);
        slow_spec.learning_aptitude = -1.5;
        let mut fast = SimulatedWorker::new(0, &fast_spec, 0.0, 10).unwrap();
        let mut slow = SimulatedWorker::new(1, &slow_spec, 0.0, 10).unwrap();
        for _ in 0..4 {
            fast.learn_from_batch(&batch(10)).unwrap();
            slow.learn_from_batch(&batch(10)).unwrap();
        }
        assert!(fast.current_accuracy() > slow.current_accuracy());
        assert!(fast.learning.proficiency(1.0) > slow.learning.proficiency(1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut w = SimulatedWorker::new(0, &spec(0.6), 0.0, 10).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut trace = vec![];
            for _ in 0..3 {
                let correct = draw_correct(&mut rng, w.current_accuracy(), 10);
                let sheet = AnswerSheet::new(0, 10, correct);
                w.learn_from_batch(&sheet).unwrap();
                trace.push((sheet, w.current_accuracy()));
            }
            trace
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn the_counted_draw_matches_a_per_task_reference() {
        // The sheet is a count, but the stream is the per-task one: every
        // lane counts what one `StdRng` stream counts task by task, whatever
        // the other lanes hold. p = 0 and p = 1 are exact, and NaN counts
        // nothing.
        let accuracies = [0.0, 5e-324, 0.37, 0.5, 0.9, 1.0, f64::NAN, 0.25];
        for seeds in [[0, 7, 42, 0xC4C4, 3, 1, 4, 1], [5, 9, 2, 6, 5, 3, 5, 8]] {
            for tasks in [0, 1, 2, 110, 5_000] {
                let counts = AnswerLanes::seed_from_u64(seeds)
                    .count_correct(accuracies.map(threshold), tasks);
                for (lane, &accuracy) in accuracies.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(seeds[lane]);
                    let expected = draw_correct(&mut rng, accuracy, tasks);
                    let case = format!("seed {}, {tasks} tasks at {accuracy}", seeds[lane]);
                    assert_eq!(counts[lane] as usize, expected, "{case}");
                    if accuracy == 0.0 || accuracy == 1.0 {
                        assert_eq!(expected as f64, accuracy * tasks as f64, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_lane_yields_the_vendored_generators_stream() {
        // Pins the lane generator to `StdRng` bit for bit: a change to the
        // vendored seeding or step fails here, not as a silent stream shift.
        let seeds = [0, 1, 4, 7, 42, 0xC4C4, u64::MAX, 0x9E37_79B9_7F4A_7C15];
        let mut lanes = AnswerLanes::seed_from_u64(seeds);
        let mut references = seeds.map(StdRng::seed_from_u64);
        for step in 0..64 {
            let draws = lanes.next_u64();
            for (lane, reference) in references.iter_mut().enumerate() {
                assert_eq!(
                    draws[lane],
                    reference.next_u64(),
                    "lane {lane}, step {step}"
                );
            }
        }
    }

    #[test]
    fn the_integer_threshold_is_the_float_test() {
        // `u < threshold(p)` must equal `u * 2^-53 < p` on both sides of the
        // threshold, for the edge accuracies and a few interior ones.
        let scale = 1.0 / (1u64 << 53) as f64;
        let accuracies = [
            0.0,
            5e-324,
            0.25,
            0.37,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            f64::NAN,
        ];
        for p in accuracies {
            let t = threshold(p);
            for u in [t.saturating_sub(1), t, t + 1] {
                let u = u.min((1 << 53) - 1);
                assert_eq!(u < t, (u as f64) * scale < p, "p = {p:e}, u = {u}, t = {t}");
            }
        }
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(-0.5), 0);
        assert_eq!(threshold(5e-324), 1);
        assert_eq!(threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(f64::INFINITY), 1 << 53);
    }

    #[test]
    fn batches_shorter_than_the_anchor_keep_the_initial_accuracy() {
        let mut w = SimulatedWorker::new(0, &spec(0.8), 0.0, 10).unwrap();
        w.learn_from_batch(&batch(4)).unwrap();
        assert_eq!(w.cumulative_learning_tasks(), 4);
        assert!((w.current_accuracy() - 0.8).abs() < 1e-9);
        w.learn_from_batch(&batch(6)).unwrap();
        assert!((w.current_accuracy() - 0.8).abs() < 1e-9);
        w.learn_from_batch(&batch(1)).unwrap();
        assert!(w.current_accuracy() > 0.8);
        assert_eq!(w.initial_accuracy(), 0.8);
    }

    #[test]
    fn boundary_initial_accuracies_get_a_finite_curve() {
        for initial in [0.0, 1.0] {
            let w = SimulatedWorker::new(3, &spec(initial), 0.5, 20).unwrap();
            assert!(w.learning.proficiency(1.0).is_finite());
            assert_eq!(w.current_accuracy(), initial);
            assert_eq!(w.target_difficulty(), 0.5);
            assert_eq!(w.accuracy_drift(), 0.0);
            assert_eq!(w.profile(), &spec(initial).profile);
        }
    }

    #[test]
    fn strong_drift_clamps_accuracy_at_zero() {
        let mut w = SimulatedWorker::new(0, &spec(0.6), 0.0, 10).unwrap();
        w.set_accuracy_drift(0.9).unwrap();
        w.learn_from_batch(&batch(10)).unwrap();
        assert_eq!(w.current_accuracy(), 0.0);
        let correct = draw_correct(&mut StdRng::seed_from_u64(2), w.current_accuracy(), 2);
        assert_eq!(correct, 0);
    }
}
