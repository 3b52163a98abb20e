//! Shard serving: the pure, self-contained request layer behind the shard seam.
//!
//! Worker-range sharding ([`WorkerShards`](crate::WorkerShards)) is a pure
//! execution concern: per-worker RNG streams mean the shard layout carries no
//! entropy, so any layout reproduces the unsharded numbers bit-for-bit. A
//! platform round therefore runs in three steps — **plan** the shards into
//! self-contained request values, **serve** them on scoped threads, and
//! **commit** the merged result:
//!
//! * [`AnswerShardRequest`] / [`EvaluateShardRequest`] carry everything one
//!   shard needs — `(worker id, current accuracy)` snapshots, the shared gold
//!   slice, and the `(seed, stream tag, epoch)` key of the answering-noise
//!   streams. Serving a request is a pure function of the request value:
//!   no platform reference, no shared state, no ambient entropy.
//! * Responses are merged back by shard index ([`merge_evaluation`] for the
//!   working-accuracy average), so the thread a shard ran on can never change
//!   any answer — the determinism contract of ARCHITECTURE.md.

use crate::platform::worker_stream_seed;
use crate::task::AnswerSheet;
use crate::worker::{answer_with_accuracy, WorkerId};
use crate::SimError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The answering-relevant state of one worker, frozen at planning time.
///
/// [`SimulatedWorker::answer_tasks`](crate::SimulatedWorker::answer_tasks)
/// depends only on the worker's *current* accuracy (plus the request's RNG
/// stream), so this two-field snapshot is all a serving thread needs to
/// reproduce the worker's answers bit-for-bit. Learning updates are applied
/// by the platform after the answering phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkerSnapshot {
    /// The worker's id — the stream-derivation key component.
    pub id: WorkerId,
    /// The worker's current true accuracy at planning time.
    pub accuracy: f64,
}

/// A self-contained answering request for one worker-range shard.
///
/// Serving it reproduces exactly what the in-process sharded path computes
/// for the same shard: one [`AnswerSheet`] per snapshot, in snapshot order,
/// each drawn from the worker's own `(seed, stream_tag, epoch, id)` stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnswerShardRequest {
    /// Base platform seed of the answering streams.
    pub seed: u64,
    /// Stream-family tag (learning vs. working answers).
    pub stream_tag: u64,
    /// Stream epoch (the round counter or evaluation counter).
    pub epoch: u64,
    /// The shard's workers, in worker order.
    pub workers: Vec<WorkerSnapshot>,
    /// Gold labels of the shared task slice.
    pub gold: Vec<bool>,
}

impl AnswerShardRequest {
    /// Serves the request: one answer sheet per snapshot, in snapshot order.
    ///
    /// A pure function of the request value — no platform state, no ambient
    /// entropy — so every thread serving it produces identical bytes.
    pub(crate) fn serve(&self) -> Result<Vec<AnswerSheet>, SimError> {
        self.workers
            .iter()
            .map(|snapshot| {
                let mut rng = StdRng::seed_from_u64(worker_stream_seed(
                    self.seed,
                    self.stream_tag,
                    self.epoch,
                    snapshot.id as u64,
                ));
                let answers = answer_with_accuracy(&mut rng, snapshot.accuracy, &self.gold);
                AnswerSheet::new(snapshot.id, answers, self.gold.clone())
            })
            .collect()
    }
}

/// A self-contained working-accuracy request for one worker-range shard.
///
/// Serving it reproduces the per-worker observed accuracies of
/// [`Platform::evaluate_working_accuracy_sharded`](crate::Platform::evaluate_working_accuracy_sharded)
/// for the same shard; the caller merges them in worker order
/// ([`merge_evaluation`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EvaluateShardRequest {
    /// Base platform seed of the answering streams.
    pub seed: u64,
    /// Stream-family tag of the working-answer streams.
    pub stream_tag: u64,
    /// Evaluation epoch (the platform's evaluation counter at planning time).
    pub epoch: u64,
    /// The shard's workers, in worker order.
    pub workers: Vec<WorkerSnapshot>,
    /// Gold labels of the full working-task pool.
    pub gold: Vec<bool>,
}

impl EvaluateShardRequest {
    /// Serves the request: one observed accuracy per snapshot, in snapshot
    /// order. Pure, like [`AnswerShardRequest::serve`].
    pub(crate) fn serve(&self) -> Result<Vec<f64>, SimError> {
        self.workers
            .iter()
            .map(|snapshot| {
                let mut rng = StdRng::seed_from_u64(worker_stream_seed(
                    self.seed,
                    self.stream_tag,
                    self.epoch,
                    snapshot.id as u64,
                ));
                let answers = answer_with_accuracy(&mut rng, snapshot.accuracy, &self.gold);
                AnswerSheet::new(snapshot.id, answers, self.gold.clone()).map(|s| s.accuracy())
            })
            .collect()
    }
}

/// Merges per-worker observed accuracies into the platform's evaluation
/// criterion: accumulate in worker order, divide by the worker count. The sum
/// is the same float expression for every shard layout, so the merged average
/// is bit-for-bit layout-independent.
pub(crate) fn merge_evaluation(per_worker: &[f64]) -> f64 {
    if per_worker.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for accuracy in per_worker {
        total += accuracy;
    }
    total / per_worker.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> AnswerShardRequest {
        AnswerShardRequest {
            seed: 7,
            stream_tag: 0x4C45_4152,
            epoch: 1,
            workers: vec![
                WorkerSnapshot {
                    id: 0,
                    accuracy: 0.9,
                },
                WorkerSnapshot {
                    id: 3,
                    accuracy: 0.2,
                },
            ],
            gold: vec![true, false, true, true],
        }
    }

    #[test]
    fn serving_is_deterministic_and_order_independent() {
        let req = request();
        let a = req.serve().unwrap();
        let b = req.serve().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].worker, 0);
        assert_eq!(a[1].worker, 3);
        assert_eq!(a[0].gold, req.gold);
        // Reversing the snapshot order permutes the sheets but never changes
        // any worker's answers (per-worker streams).
        let mut reversed = req.clone();
        reversed.workers.reverse();
        let r = reversed.serve().unwrap();
        assert_eq!(r[0], a[1]);
        assert_eq!(r[1], a[0]);
    }

    #[test]
    fn extreme_accuracies_are_exact() {
        let mut req = request();
        req.workers = vec![
            WorkerSnapshot {
                id: 1,
                accuracy: 1.0,
            },
            WorkerSnapshot {
                id: 2,
                accuracy: 0.0,
            },
        ];
        let sheets = req.serve().unwrap();
        assert_eq!(sheets[0].answers, req.gold);
        let flipped: Vec<bool> = req.gold.iter().map(|g| !g).collect();
        assert_eq!(sheets[1].answers, flipped);
    }

    #[test]
    fn evaluation_requests_serve_accuracies() {
        let answer = request();
        let eval = EvaluateShardRequest {
            seed: answer.seed,
            stream_tag: answer.stream_tag,
            epoch: answer.epoch,
            workers: answer.workers.clone(),
            gold: answer.gold.clone(),
        };
        // Same streams, same answers: the evaluation accuracies are exactly
        // the answer sheets' accuracies.
        let sheets = answer.serve().unwrap();
        let accuracies = eval.serve().unwrap();
        let expected: Vec<f64> = sheets.iter().map(|s| s.accuracy()).collect();
        assert_eq!(accuracies, expected);
    }

    #[test]
    fn merge_evaluation_is_worker_order_accumulation() {
        assert_eq!(merge_evaluation(&[]), 0.0);
        let values = [0.25, 0.5, 0.125];
        let mut total = 0.0;
        for v in values {
            total += v;
        }
        assert_eq!(merge_evaluation(&values), total / 3.0);
    }

    #[test]
    fn in_process_executor_is_the_identity() {
        // The platform serves shard requests on scoped threads through
        // `run_indexed_jobs`; for every thread count that fan-out must return
        // exactly what each request's own `serve` returns, in shard order.
        let base = request();
        let answers: Vec<AnswerShardRequest> = (0..5u64)
            .map(|epoch| AnswerShardRequest {
                epoch,
                ..base.clone()
            })
            .collect();
        let evals: Vec<EvaluateShardRequest> = answers
            .iter()
            .map(|req| EvaluateShardRequest {
                seed: 3,
                stream_tag: 0x574F_524B,
                epoch: req.epoch,
                workers: req.workers.clone(),
                gold: req.gold.clone(),
            })
            .collect();
        let expected_answers: Vec<_> = answers.iter().map(|r| r.serve().unwrap()).collect();
        let expected_evals: Vec<_> = evals.iter().map(|r| r.serve().unwrap()).collect();
        for threads in [1, 2, 5, 8] {
            let served = crate::parallel::run_indexed_jobs(threads, answers.len(), |shard| {
                answers[shard].serve()
            })
            .unwrap();
            assert_eq!(served, expected_answers);
            let evaluated = crate::parallel::run_indexed_jobs(threads, evals.len(), |shard| {
                evals[shard].serve()
            })
            .unwrap();
            assert_eq!(evaluated, expected_evals);
        }
    }
}
