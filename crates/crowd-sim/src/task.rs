//! Crowdsourcing tasks and task pools.
//!
//! Definition 1 of the paper splits target-domain tasks into *learning tasks*
//! (golden questions whose ground truth is revealed to the worker after answering)
//! and *working tasks* (the tasks the requester actually needs annotated, used only
//! for evaluation). Tasks here are Yes/No image-classification questions, matching
//! the real-world surveys; the answer type is a plain `bool`.

use crate::domain::Domain;
use crate::SimError;
use rand::Rng;

/// The role a task plays in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Golden question: the ground truth is revealed to the worker after answering.
    Learning,
    /// Working task: used to evaluate the selected workers, never revealed.
    Working,
    /// Historical task on a prior domain (used to build worker profiles).
    Historical,
}

/// A single Yes/No annotation task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier, unique within its pool.
    pub id: usize,
    /// Domain the task belongs to.
    pub domain: Domain,
    /// Role of the task.
    pub kind: TaskKind,
    /// Gold (ground-truth) answer.
    pub gold: bool,
}

impl Task {
    /// Creates a task.
    pub fn new(id: usize, domain: Domain, kind: TaskKind, gold: bool) -> Self {
        Self {
            id,
            domain,
            kind,
            gold,
        }
    }
}

/// An ordered pool of tasks of one kind on one domain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskPool {
    tasks: Vec<Task>,
}

impl TaskPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pool of `n` tasks with random gold answers.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        domain: Domain,
        kind: TaskKind,
    ) -> Self {
        let tasks = (0..n)
            .map(|id| Task::new(id, domain, kind, rng.gen::<bool>()))
            .collect();
        Self { tasks }
    }

    /// Creates a pool from explicit tasks.
    pub fn from_tasks(tasks: Vec<Task>) -> Self {
        Self { tasks }
    }

    /// Number of tasks in the pool.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks, in order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The tasks with indices `start..end`, validated against the pool size.
    ///
    /// This is the "assign learning tasks `t_{r_c}` to `t_{r_c + t/|W_c|}`" slice of
    /// Algorithm 4, line 5.
    pub fn slice(&self, start: usize, end: usize) -> Result<&[Task], SimError> {
        if start > end || end > self.tasks.len() {
            return Err(SimError::TaskRangeOutOfBounds {
                start,
                end,
                pool: self.tasks.len(),
            });
        }
        Ok(&self.tasks[start..end])
    }

    /// Gold answers of the tasks with indices `start..end`.
    pub fn gold_slice(&self, start: usize, end: usize) -> Result<Vec<bool>, SimError> {
        Ok(self.slice(start, end)?.iter().map(|t| t.gold).collect())
    }
}

/// One worker's graded answers to a contiguous batch of tasks. Correctness is
/// what every estimator in the paper consumes (Eq. 3–4), so that is all a sheet
/// keeps: one flag per task plus their count. The gold labels of the batch live
/// once per round, in [`RoundRecord`](crate::RoundRecord).
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSheet {
    /// Identifier of the worker who produced the answers.
    pub worker: usize,
    /// Whether each answer matched its gold label, in task order.
    correctness: Vec<bool>,
    /// Number of `true` entries of `correctness`.
    correct: usize,
}

impl AnswerSheet {
    /// Grades `answers` against `gold`; the two slices must have equal length.
    pub fn new(worker: usize, answers: &[bool], gold: &[bool]) -> Result<Self, SimError> {
        if answers.len() != gold.len() {
            return Err(SimError::InvalidConfig {
                what: "answers and gold labels must have the same length",
                value: answers.len() as f64 - gold.len() as f64,
            });
        }
        Ok(Self::from_correctness(
            worker,
            answers.iter().zip(gold).map(|(a, g)| a == g).collect(),
        ))
    }

    /// Creates a sheet from per-task correctness flags.
    pub(crate) fn from_correctness(worker: usize, correctness: Vec<bool>) -> Self {
        let correct = correctness.iter().filter(|&&c| c).count();
        Self {
            worker,
            correctness,
            correct,
        }
    }

    /// Number of answered tasks.
    pub fn len(&self) -> usize {
        self.correctness.len()
    }

    /// Whether the sheet is empty.
    pub fn is_empty(&self) -> bool {
        self.correctness.is_empty()
    }

    /// Number of correct answers (`C_{i,c}` of Eq. 3).
    pub fn correct(&self) -> usize {
        self.correct
    }

    /// Number of wrong answers (`X_{i,c}` of Eq. 4).
    pub fn wrong(&self) -> usize {
        self.len() - self.correct
    }

    /// Fraction of correct answers; `0.0` for an empty sheet.
    pub fn accuracy(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.correct as f64 / self.len() as f64
        }
    }

    /// Per-task correctness flags.
    pub fn correctness(&self) -> &[bool] {
        &self.correctness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_generation_and_slicing() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = TaskPool::generate(&mut rng, 30, Domain::Target, TaskKind::Learning);
        assert_eq!(pool.len(), 30);
        assert!(!pool.is_empty());
        assert_eq!(pool.slice(0, 10).unwrap().len(), 10);
        assert_eq!(pool.slice(10, 30).unwrap().len(), 20);
        assert!(pool.slice(10, 31).is_err());
        assert!(pool.slice(20, 10).is_err());
        let gold = pool.gold_slice(0, 30).unwrap();
        assert_eq!(gold.len(), 30);
        // Both answers should appear with a fair coin over 30 tasks.
        assert!(gold.iter().any(|&g| g) && gold.iter().any(|&g| !g));
        // Task ids are sequential and the metadata is propagated.
        assert_eq!(pool.tasks()[5].id, 5);
        assert_eq!(pool.tasks()[5].domain, Domain::Target);
        assert_eq!(pool.tasks()[5].kind, TaskKind::Learning);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TaskPool::generate(
            &mut StdRng::seed_from_u64(7),
            20,
            Domain::Target,
            TaskKind::Working,
        );
        let b = TaskPool::generate(
            &mut StdRng::seed_from_u64(7),
            20,
            Domain::Target,
            TaskKind::Working,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn empty_pool_behaviour() {
        let pool = TaskPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.slice(0, 0).unwrap().len(), 0);
        assert!(pool.slice(0, 1).is_err());
    }

    #[test]
    fn answer_sheet_counts() {
        let sheet =
            AnswerSheet::new(3, &[true, false, true, true], &[true, true, true, false]).unwrap();
        assert_eq!(sheet.worker, 3);
        assert_eq!(sheet.len(), 4);
        assert_eq!(sheet.correct(), 2);
        assert_eq!(sheet.wrong(), 2);
        assert!((sheet.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(sheet.correctness(), vec![true, false, true, false]);
    }

    #[test]
    fn answer_sheet_validation_and_empty() {
        assert!(AnswerSheet::new(0, &[true], &[]).is_err());
        let empty = AnswerSheet::new(0, &[], &[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.correct(), 0);
    }

    #[test]
    fn from_tasks_preserves_order() {
        let tasks = vec![
            Task::new(0, Domain::Prior(0), TaskKind::Historical, true),
            Task::new(1, Domain::Prior(0), TaskKind::Historical, false),
        ];
        let pool = TaskPool::from_tasks(tasks.clone());
        assert_eq!(pool.tasks(), tasks.as_slice());
    }

    #[test]
    fn gold_slice_matches_the_tasks_and_reports_bad_ranges() {
        let pool = TaskPool::generate(
            &mut StdRng::seed_from_u64(3),
            12,
            Domain::Target,
            TaskKind::Learning,
        );
        let gold: Vec<bool> = pool.tasks()[4..9].iter().map(|t| t.gold).collect();
        assert_eq!(pool.gold_slice(4, 9).unwrap(), gold);
        assert_eq!(
            pool.gold_slice(8, 13),
            Err(SimError::TaskRangeOutOfBounds {
                start: 8,
                end: 13,
                pool: 12
            })
        );
    }

    #[test]
    fn perfect_and_inverted_sheets() {
        let gold = vec![true, false, false, true, true];
        let perfect = AnswerSheet::new(1, &gold, &gold).unwrap();
        assert_eq!((perfect.correct(), perfect.wrong()), (5, 0));
        assert_eq!(perfect.accuracy(), 1.0);
        let inverted: Vec<bool> = gold.iter().map(|g| !g).collect();
        let wrong = AnswerSheet::new(1, &inverted, &gold).unwrap();
        assert_eq!(wrong, AnswerSheet::from_correctness(1, vec![false; 5]));
        assert_eq!((wrong.correct(), wrong.wrong()), (0, 5));
        assert_eq!(wrong.accuracy(), 0.0);
        assert!(wrong.correctness().iter().all(|c| !c));
    }
}
