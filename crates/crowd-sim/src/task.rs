//! Answer sheets: one worker's graded answers to a batch of tasks.
//!
//! Definition 1 of the paper splits target-domain tasks into *learning tasks*
//! (golden questions whose ground truth is revealed to the worker after answering)
//! and *working tasks* (the tasks the requester actually needs annotated, used only
//! for evaluation). A task matters to every estimator only through whether it was
//! answered correctly, and the simulator grades each answer as it draws it (a
//! worker is right with probability equal to its current accuracy, whatever the
//! label). So tasks are counts: no gold label is stored anywhere, and an
//! [`AnswerSheet`] is the whole record of a worker's batch.

/// One worker's graded answers to a batch of tasks. Correctness is what every
/// estimator in the paper consumes (Eq. 3–4), so that is all a sheet keeps: one
/// flag per task plus their count.
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
    /// Creates a sheet from per-task correctness flags, in task order.
    pub fn from_correctness(worker: usize, correctness: Vec<bool>) -> Self {
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

    #[test]
    fn answer_sheet_counts() {
        let sheet = AnswerSheet::from_correctness(3, vec![true, false, true, false]);
        assert_eq!(sheet.worker, 3);
        assert_eq!(sheet.len(), 4);
        assert_eq!(sheet.correct(), 2);
        assert_eq!(sheet.wrong(), 2);
        assert!((sheet.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(sheet.correctness(), vec![true, false, true, false]);
    }

    #[test]
    fn empty_sheet_has_zero_accuracy() {
        let empty = AnswerSheet::from_correctness(0, vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!((empty.correct(), empty.wrong()), (0, 0));
    }

    #[test]
    fn perfect_and_inverted_sheets() {
        let perfect = AnswerSheet::from_correctness(1, vec![true; 5]);
        assert_eq!((perfect.correct(), perfect.wrong()), (5, 0));
        assert_eq!(perfect.accuracy(), 1.0);
        let wrong = AnswerSheet::from_correctness(1, vec![false; 5]);
        assert_eq!((wrong.correct(), wrong.wrong()), (0, 5));
        assert_eq!(wrong.accuracy(), 0.0);
        assert!(wrong.correctness().iter().all(|c| !c));
    }
}
