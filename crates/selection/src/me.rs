//! Median Elimination (Algorithm 3 of the paper) and top-k extraction.
//!
//! Given the predicted accuracy of every remaining worker, one elimination round
//! keeps the top `ceil(|W_c| / 2)` in non-increasing order of their prediction.
//! It partitions the round around the cut and sorts only the kept half. The
//! same scoring machinery also implements the final top-`k`
//! extraction of Algorithm 4 line 17.

use c4u_crowd_sim::WorkerId;
use std::cmp::Ordering;

/// A worker together with its predicted accuracy for the current round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredWorker {
    /// Worker identifier.
    pub worker: WorkerId,
    /// Predicted target-domain accuracy.
    pub score: f64,
}

impl ScoredWorker {
    /// Convenience constructor.
    pub fn new(worker: WorkerId, score: f64) -> Self {
        Self { worker, score }
    }
}

/// The ranking order: non-increasing score, ties broken by worker id so that
/// the process is fully deterministic.
///
/// NaN scores rank last (among themselves by worker id). Every other score
/// compares by value, so `-0.0` and `0.0` tie and fall to the id tie-break.
/// This is a total order, which the standard sort requires: comparing NaN as
/// "equal" to everything is not, and the sort may panic on it.
fn by_rank(a: &ScoredWorker, b: &ScoredWorker) -> Ordering {
    a.score
        .is_nan()
        .cmp(&b.score.is_nan())
        .then_with(|| {
            // Only reached with both scores NaN (Equal) or both not NaN.
            b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal)
        })
        .then_with(|| a.worker.cmp(&b.worker))
}

/// The first `keep` workers in rank order (non-increasing score, ties broken
/// by worker id, NaN scores last), without sorting the rest: a partition puts
/// the best `keep` first, and only they are sorted.
fn best_ids(scored: &[ScoredWorker], keep: usize) -> Vec<WorkerId> {
    if keep == 0 {
        return Vec::new();
    }
    let mut ranked = scored.to_vec();
    if keep < ranked.len() {
        ranked.select_nth_unstable_by(keep - 1, by_rank);
        ranked.truncate(keep);
    }
    ranked.sort_unstable_by(by_rank);
    ranked.into_iter().map(|s| s.worker).collect()
}

/// One median-elimination round: keeps the best `ceil(n / 2)` workers
/// (Algorithm 3, line 2), best first.
pub fn median_eliminate(scored: &[ScoredWorker]) -> Vec<WorkerId> {
    best_ids(scored, scored.len().div_ceil(2))
}

/// Selects the `k` highest-scoring workers (Algorithm 4, line 17), best first. If
/// fewer than `k` workers are available, all of them are returned.
pub fn top_k(scored: &[ScoredWorker], k: usize) -> Vec<WorkerId> {
    best_ids(scored, k)
}

/// Number of elimination rounds after which at most `k` of `pool` workers remain
/// under repeated halving (used by tests and the theory module).
pub fn rounds_until_at_most(pool: usize, k: usize) -> usize {
    if pool == 0 || k == 0 {
        return 0;
    }
    let mut remaining = pool;
    let mut rounds = 0;
    while remaining > k {
        remaining = remaining.div_ceil(2);
        rounds += 1;
        if rounds > 64 {
            break;
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every worker in rank order: the full sort [`best_ids`] must agree with.
    fn sort_by_score(scored: &[ScoredWorker]) -> Vec<ScoredWorker> {
        let mut sorted = scored.to_vec();
        sorted.sort_by(by_rank);
        sorted
    }

    fn scored(values: &[f64]) -> Vec<ScoredWorker> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| ScoredWorker::new(i, v))
            .collect()
    }

    #[test]
    fn sorting_is_descending_and_deterministic() {
        let s = scored(&[0.3, 0.9, 0.5, 0.9]);
        let sorted = sort_by_score(&s);
        let ids: Vec<_> = sorted.iter().map(|x| x.worker).collect();
        // Ties (workers 1 and 3, both 0.9) break by id.
        assert_eq!(ids, vec![1, 3, 2, 0]);
    }

    #[test]
    fn median_elimination_keeps_upper_half() {
        let s = scored(&[0.1, 0.8, 0.4, 0.9, 0.6, 0.2]);
        let kept = median_eliminate(&s);
        assert_eq!(kept.len(), 3);
        assert!(kept.contains(&3));
        assert!(kept.contains(&1));
        assert!(kept.contains(&4));
    }

    #[test]
    fn odd_sized_pools_keep_the_ceiling() {
        let s = scored(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let kept = median_eliminate(&s);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept, vec![4, 3, 2]);
        // Single worker survives its own elimination.
        assert_eq!(median_eliminate(&scored(&[0.7])), vec![0]);
        // Empty input stays empty.
        assert!(median_eliminate(&[]).is_empty());
    }

    #[test]
    fn top_k_selects_the_best() {
        let s = scored(&[0.2, 0.9, 0.7, 0.1, 0.8]);
        assert_eq!(top_k(&s, 2), vec![1, 4]);
        assert_eq!(top_k(&s, 0).len(), 0);
        // Requesting more than available returns everyone, best first.
        assert_eq!(top_k(&s, 10).len(), 5);
        assert_eq!(top_k(&s, 10)[0], 1);
    }

    #[test]
    fn nan_scores_do_not_panic() {
        let s = vec![
            ScoredWorker::new(0, f64::NAN),
            ScoredWorker::new(1, 0.5),
            ScoredWorker::new(2, 0.8),
        ];
        let kept = median_eliminate(&s);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept, vec![2, 1]);
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 40 workers, ~20% NaN scores, a few exact ties and signed zeros.
        let mut rng = StdRng::seed_from_u64(0x4e_41_4e);
        for _ in 0..2000 {
            let s: Vec<ScoredWorker> = (0..40)
                .map(|i| {
                    let score = match rng.next_u64() % 10 {
                        0 | 1 => f64::NAN,
                        2 => 0.5,
                        3 => [0.0, -0.0][(rng.next_u64() % 2) as usize],
                        _ => rng.gen::<f64>(),
                    };
                    ScoredWorker::new(i, score)
                })
                .collect();
            let sorted = sort_by_score(&s);
            let finite = s.iter().filter(|w| !w.score.is_nan()).count();
            // Every non-NaN score precedes every NaN, in non-increasing order,
            // with equal values (including -0.0 vs 0.0) ordered by worker id.
            assert!(sorted[finite..].iter().all(|w| w.score.is_nan()));
            assert!(sorted[..finite].windows(2).all(|p| p[0].score > p[1].score
                || (p[0].score == p[1].score && p[0].worker < p[1].worker)));
            assert!(sorted[finite..]
                .windows(2)
                .all(|p| p[0].worker < p[1].worker));
            // The best finite scorer (lowest id among equals) always survives
            // and heads the ranking.
            let best =
                s.iter()
                    .filter(|w| !w.score.is_nan())
                    .fold(None::<ScoredWorker>, |best, &w| match best {
                        Some(b) if b.score >= w.score => Some(b),
                        _ => Some(w),
                    });
            if let Some(best) = best {
                assert_eq!(median_eliminate(&s)[0], best.worker);
                assert_eq!(top_k(&s, 1), vec![best.worker]);
            }
        }
    }

    #[test]
    fn partitioned_selections_equal_the_full_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Pools of 0..60 workers in shuffled id order, with NaN scores, exact
        // ties and signed zeros: every cut of the partition matches the
        // prefix of the full sort, in order.
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        for _ in 0..2000 {
            let n = (rng.next_u64() % 60) as usize;
            let mut s: Vec<ScoredWorker> = (0..n)
                .map(|i| {
                    let score = match rng.next_u64() % 8 {
                        0 => f64::NAN,
                        1 => 0.5,
                        2 => [0.0, -0.0][(rng.next_u64() % 2) as usize],
                        _ => rng.gen::<f64>(),
                    };
                    ScoredWorker::new(i, score)
                })
                .collect();
            for i in (1..n).rev() {
                s.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let full: Vec<WorkerId> = sort_by_score(&s).iter().map(|w| w.worker).collect();
            assert_eq!(median_eliminate(&s), full[..n.div_ceil(2)]);
            for k in [0, 1, n / 3, n.saturating_sub(1), n, n + 1] {
                assert_eq!(top_k(&s, k), full[..k.min(n)]);
            }
        }
    }

    #[test]
    fn halving_round_count() {
        assert_eq!(rounds_until_at_most(27, 7), 2);
        assert_eq!(rounds_until_at_most(40, 5), 3);
        assert_eq!(rounds_until_at_most(160, 5), 5);
        assert_eq!(rounds_until_at_most(8, 8), 0);
        assert_eq!(rounds_until_at_most(0, 5), 0);
        assert_eq!(rounds_until_at_most(5, 0), 0);
    }

    #[test]
    fn top_k_clamps_to_the_pool() {
        let s = scored(&[0.2, 0.9, 0.5]);
        assert_eq!(top_k(&s, 10), vec![1, 2, 0]);
        assert!(top_k(&s, 0).is_empty());
        assert!(median_eliminate(&[]).is_empty());
        assert_eq!(median_eliminate(&scored(&[0.4])), vec![0]);
    }

    #[test]
    fn equal_scores_keep_the_lower_ids() {
        let s = scored(&[0.5, 0.7, 0.5, 0.5]);
        assert_eq!(median_eliminate(&s), vec![1, 0]);
        let reversed: Vec<ScoredWorker> = s.iter().rev().copied().collect();
        assert_eq!(median_eliminate(&reversed), vec![1, 0]);
    }
}
