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

/// One worker's graded answers to a batch of tasks. Every estimator in the
/// paper consumes a batch only through its counts of correct and wrong answers
/// (Eq. 3–4), so that is all a sheet keeps: no per-task record, and no heap
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSheet {
    /// Identifier of the worker who produced the answers.
    pub worker: usize,
    /// Number of answered tasks.
    len: usize,
    /// Number of correct answers, at most `len`.
    correct: usize,
}

impl AnswerSheet {
    /// Creates a sheet of `len` answers, `correct` of them correct (clamped to
    /// `len`).
    pub fn new(worker: usize, len: usize, correct: usize) -> Self {
        Self {
            worker,
            len,
            correct: correct.min(len),
        }
    }

    /// Number of answered tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sheet is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of correct answers (`C_{i,c}` of Eq. 3).
    pub fn correct(&self) -> usize {
        self.correct
    }

    /// Number of wrong answers (`X_{i,c}` of Eq. 4).
    pub fn wrong(&self) -> usize {
        self.len - self.correct
    }

    /// Fraction of correct answers; `0.0` for an empty sheet.
    pub fn accuracy(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.correct as f64 / self.len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_sheet_counts() {
        let sheet = AnswerSheet::new(3, 4, 2);
        assert_eq!(sheet.worker, 3);
        assert_eq!(sheet.len(), 4);
        assert_eq!(sheet.correct(), 2);
        assert_eq!(sheet.wrong(), 2);
        assert!((sheet.accuracy() - 0.5).abs() < 1e-12);
        // More correct answers than tasks clamp to the task count.
        assert_eq!(AnswerSheet::new(3, 4, 9), AnswerSheet::new(3, 4, 4));
    }

    #[test]
    fn empty_sheet_has_zero_accuracy() {
        let empty = AnswerSheet::new(0, 0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!((empty.correct(), empty.wrong()), (0, 0));
    }

    #[test]
    fn perfect_and_inverted_sheets() {
        let perfect = AnswerSheet::new(1, 5, 5);
        assert_eq!((perfect.correct(), perfect.wrong()), (5, 0));
        assert_eq!(perfect.accuracy(), 1.0);
        let wrong = AnswerSheet::new(1, 5, 0);
        assert_eq!((wrong.correct(), wrong.wrong()), (0, 5));
        assert_eq!(wrong.accuracy(), 0.0);
    }
}
