//! Median Elimination (Algorithm 3 of the paper) and top-k extraction.
//!
//! Given the predicted accuracy of every remaining worker, one elimination round
//! keeps the top `ceil(|W_c| / 2)` in non-increasing order of their prediction.
//! The whole ranking order (score descending, worker id ascending, NaN last) is
//! one `u128` key per worker, so a round partitions plain integers around the
//! cut and sorts only the kept half. The same machinery also implements the
//! final top-`k` extraction of Algorithm 4 line 17.

use c4u_crowd_sim::WorkerId;

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

/// The ranking order as one integer: sorting keys ascending ranks workers by
/// non-increasing score, ties broken by worker id so that the process is fully
/// deterministic, NaN scores last (among themselves by worker id).
///
/// The high word orders the score: `u64::MAX` for NaN, otherwise the bitwise
/// NOT of the IEEE bits mapped to an order-preserving unsigned integer (sign
/// bit set flips the rest, sign bit clear sets it), with `-0.0` first mapped to
/// `0.0` so the two zeros tie. No finite or infinite score maps to `u64::MAX`.
/// The low word is the worker id, so the key of every worker is distinct and
/// an unstable sort is deterministic.
fn rank_key(s: &ScoredWorker) -> u128 {
    let high = if s.score.is_nan() {
        u64::MAX
    } else {
        // `+ 0.0` turns `-0.0` into `0.0` and changes no other value.
        let bits = (s.score + 0.0).to_bits();
        let ordered = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        !ordered
    };
    (u128::from(high) << 64) | s.worker as u128
}

/// The first `keep` workers in rank order (non-increasing score, ties broken
/// by worker id, NaN scores last), without sorting the rest: a partition of
/// the [`rank_key`]s puts the best `keep` first, and only they are sorted.
fn best_ids(scored: &[ScoredWorker], keep: usize) -> Vec<WorkerId> {
    if keep == 0 {
        return Vec::new();
    }
    let mut ranked: Vec<u128> = scored.iter().map(rank_key).collect();
    if keep < ranked.len() {
        ranked.select_nth_unstable(keep - 1);
        ranked.truncate(keep);
    }
    ranked.sort_unstable();
    ranked
        .into_iter()
        .map(|key| key as u64 as WorkerId)
        .collect()
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
    use std::cmp::Ordering;

    /// The ranking order as a comparator: non-increasing score, ties broken by
    /// worker id, NaN scores last (among themselves by worker id), `-0.0` and
    /// `0.0` tied: the test oracle that [`rank_key`] must order the same way.
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

    /// Scores from the corners of the ranking order: both NaN signs, both
    /// zeros, both infinities, the extreme subnormals and normals, a repeated
    /// value, and plain values of either sign.
    fn edge_score(pick: u8, plain: f64) -> f64 {
        match pick {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => 0.0,
            3 => -0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => 5e-324,
            7 => -5e-324,
            8 => f64::MIN_POSITIVE,
            9 => f64::MAX,
            10 => f64::MIN,
            11 => 0.5,
            _ => plain,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        #[test]
        fn rank_keys_order_as_the_comparator(
            picks in proptest::collection::vec((0u8..16, -1.0..1.0f64), 0..50),
            shuffle in 0u64..u64::MAX,
            id_base in 0usize..4,
        ) {
            // Ids are distinct but shuffled and sparse, and may sit at the top
            // of the id range, so the key's low word is fully exercised.
            let n = picks.len();
            let mut ids: Vec<WorkerId> = (0..n)
                .map(|i| match id_base {
                    0 => i,
                    1 => 3 * i + 1,
                    2 => usize::MAX - i,
                    _ => i << 40,
                })
                .collect();
            let mut state = shuffle;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ids.swap(i, (state >> 33) as usize % (i + 1));
            }
            let s: Vec<ScoredWorker> = picks
                .iter()
                .zip(&ids)
                .map(|(&(pick, plain), &id)| ScoredWorker::new(id, edge_score(pick, plain)))
                .collect();
            let full: Vec<WorkerId> = sort_by_score(&s).iter().map(|w| w.worker).collect();
            proptest::prop_assert_eq!(median_eliminate(&s), full[..n.div_ceil(2)].to_vec());
            for k in [0, 1, n / 3, n / 2, n.saturating_sub(1), n, n + 1] {
                proptest::prop_assert_eq!(top_k(&s, k), full[..k.min(n)].to_vec());
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
