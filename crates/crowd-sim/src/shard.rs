//! Worker-range sharding: partitioning a worker list into contiguous ranges.
//!
//! The paper's evaluation loop (Algorithm 4, Sec. V-C) assigns one batch of
//! golden tasks to every surviving worker each round. For the pool sizes of
//! Table II that round is cheap, but pools of `10^5+` workers need the
//! *within*-round axis parallelised as well: [`WorkerShards`] splits a
//! worker-id slice into contiguous ranges, and [`WorkerShards::map`] runs one
//! job per non-empty range on scoped threads and concatenates the results
//! back in worker order. `map` is the workspace's only shard fan-out: the
//! platform's sharded round and evaluation
//! ([`Platform::assign_learning_batch_sharded`](crate::Platform::assign_learning_batch_sharded))
//! and the per-worker scoring passes in `c4u-selection` all go through it.
//!
//! A shard count is a *layout*, not a thread count: the layout is stored as
//! `(len, num_shards)` whatever the count, and `map` runs jobs only for the
//! (at most `len`) non-empty shards, on at most `available_threads()` threads,
//! however many shards the caller asked for.
//!
//! Because every worker draws from its own deterministic RNG stream (split
//! from the platform seed by worker id), the shard layout carries **no**
//! entropy: any shard count, including the single-shard "unsharded" layout,
//! produces bit-for-bit identical records. The shard boundary is therefore
//! purely an execution concern.
//!
//! ```
//! use c4u_crowd_sim::WorkerShards;
//!
//! // 10 workers over 4 shards: balanced, contiguous, ragged tail allowed.
//! let shards = WorkerShards::by_count(10, 4);
//! let ranges: Vec<_> = (0..shards.num_shards()).map(|s| shards.range(s)).collect();
//! assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
//!
//! // `map` runs one job per non-empty range and concatenates in worker order.
//! let doubled = shards.map(|range| Ok::<_, ()>(range.map(|i| 2 * i).collect()));
//! assert_eq!(doubled, Ok((0..10).map(|i| 2 * i).collect::<Vec<_>>()));
//! ```

use crate::parallel::{available_threads, run_indexed_jobs};
use std::ops::Range;

/// A partition of `0..len` into contiguous, ordered, non-overlapping ranges.
///
/// Shards are balanced to within one element ([`WorkerShards::by_count`]); a
/// shard may be empty when there are more shards than workers. Concatenating the ranges in shard
/// order always reproduces `0..len` exactly, which is what lets sharded
/// consumers merge per-shard results back into worker order without any
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerShards {
    len: usize,
    /// At least 1; shard boundaries are computed, not stored, so any count
    /// costs the same.
    num_shards: usize,
}

impl WorkerShards {
    /// Splits `len` items into exactly `num_shards` contiguous ranges, balanced
    /// to within one element (the first `len % num_shards` shards take the
    /// extra item). `num_shards` is clamped to at least 1; when it exceeds
    /// `len`, the trailing shards are empty.
    pub fn by_count(len: usize, num_shards: usize) -> Self {
        Self {
            len,
            num_shards: num_shards.max(1),
        }
    }

    /// The trivial partition: one shard covering everything (the sequential,
    /// "unsharded" layout).
    pub fn single(len: usize) -> Self {
        Self::by_count(len, 1)
    }

    /// Number of items being partitioned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the partitioned list is empty (shards may still exist — they
    /// are all empty ranges then).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards (at least 1).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Index of the first item of shard `shard` (`len` for `shard ==
    /// num_shards`): `shard * floor(len / n) + min(shard, len mod n)`.
    fn start(&self, shard: usize) -> usize {
        let n = self.num_shards;
        shard * (self.len / n) + shard.min(self.len % n)
    }

    /// The contiguous index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(
            shard < self.num_shards,
            "shard {shard} out of range for {} shards",
            self.num_shards
        );
        self.start(shard)..self.start(shard + 1)
    }

    /// Runs `job` on every shard's range and concatenates the results in
    /// shard order, which is item order, into one `Vec` of exactly
    /// [`len`](Self::len) capacity when every job returns one item per index
    /// of its range.
    ///
    /// Only the first `min(num_shards, len)` shards are run: the rest are
    /// empty. The jobs run through [`run_indexed_jobs`] on
    /// `min(shards run, available_threads())` scoped threads (the thread count
    /// is asked for only when two or more shards run), so the result is that
    /// of the sequential loop over the shards: on failure, the error of the
    /// lowest-indexed failing shard.
    pub fn map<T, E, F>(&self, job: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(Range<usize>) -> Result<Vec<T>, E> + Sync,
    {
        let shards = self.num_shards.min(self.len);
        let threads = if shards < 2 {
            1
        } else {
            shards.min(available_threads())
        };
        let per_shard = run_indexed_jobs(threads, shards, |shard| job(self.range(shard)))?;
        let mut items = Vec::with_capacity(self.len);
        for shard_items in per_shard {
            items.extend(shard_items);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(shards: &WorkerShards) -> Vec<Range<usize>> {
        (0..shards.num_shards()).map(|s| shards.range(s)).collect()
    }

    fn flatten(shards: &WorkerShards) -> Vec<usize> {
        ranges(shards).into_iter().flatten().collect()
    }

    #[test]
    fn by_count_balances_to_within_one() {
        let shards = WorkerShards::by_count(10, 3);
        assert_eq!(shards.num_shards(), 3);
        assert_eq!(shards.len(), 10);
        assert_eq!(ranges(&shards), vec![0..4, 4..7, 7..10]);
        assert_eq!(flatten(&shards), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exact_division_gives_equal_shards() {
        let shards = WorkerShards::by_count(12, 4);
        assert!(ranges(&shards).iter().all(|r| r.len() == 3));
    }

    #[test]
    fn more_shards_than_items_gives_empty_tails() {
        let shards = WorkerShards::by_count(3, 16);
        assert_eq!(shards.num_shards(), 16);
        assert_eq!(shards.range(0), 0..1);
        assert_eq!(shards.range(2), 2..3);
        assert!(shards.range(3).is_empty());
        assert!(shards.range(15).is_empty());
        assert_eq!(flatten(&shards), vec![0, 1, 2]);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let shards = WorkerShards::by_count(5, 0);
        assert_eq!(shards.num_shards(), 1);
        assert_eq!(shards.range(0), 0..5);
        assert_eq!(shards, WorkerShards::single(5));
    }

    #[test]
    fn empty_lists_are_representable() {
        let shards = WorkerShards::by_count(0, 3);
        assert!(shards.is_empty());
        assert_eq!(shards.num_shards(), 3);
        assert!(ranges(&shards).iter().all(|r| r.is_empty()));
        assert!(!WorkerShards::single(1).is_empty());
    }

    #[test]
    fn ranges_slice_a_list_back_together() {
        let items: Vec<char> = "abcdefghij".chars().collect();
        let shards = WorkerShards::by_count(items.len(), 4);
        let slices: Vec<&[char]> = ranges(&shards).into_iter().map(|r| &items[r]).collect();
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0], &['a', 'b', 'c']);
        assert_eq!(slices[3], &['i', 'j']);
        let rejoined: String = slices.concat().iter().collect();
        assert_eq!(rejoined, "abcdefghij");
    }

    #[test]
    fn single_and_oversized_shards_hold_everything() {
        for shards in [WorkerShards::single(5), WorkerShards::by_count(5, 1)] {
            assert_eq!(shards.num_shards(), 1);
            assert_eq!(shards.range(0), 0..5);
        }
    }

    #[test]
    fn map_returns_items_in_order_with_exact_capacity() {
        for shards in [
            WorkerShards::single(5),
            WorkerShards::by_count(10, 3),
            // Empty trailing shards.
            WorkerShards::by_count(3, 16),
        ] {
            let items = shards
                .map(|range| Ok::<_, ()>(range.map(|i| i * 10).collect()))
                .unwrap();
            assert_eq!(items, (0..shards.len()).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(items.capacity(), shards.len());
        }
    }

    #[test]
    fn map_returns_the_lowest_failing_shard_error() {
        let shards = WorkerShards::by_count(40, 8);
        let result: Result<Vec<usize>, usize> = shards.map(|range| {
            if range.contains(&7) || range.contains(&33) {
                Err(range.start)
            } else {
                Ok(range.collect())
            }
        });
        assert_eq!(result, Err(5));
    }

    #[test]
    fn an_unbounded_shard_count_stores_no_bounds_and_runs_only_non_empty_shards() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let shards = WorkerShards::by_count(3, usize::MAX);
        assert_eq!(shards.num_shards(), usize::MAX);
        assert_eq!(shards.range(2), 2..3);
        assert!(shards.range(usize::MAX - 1).is_empty());
        let seen = Mutex::new(HashSet::new());
        let jobs = Mutex::new(0);
        let items = shards
            .map(|range| {
                seen.lock().unwrap().insert(std::thread::current().id());
                *jobs.lock().unwrap() += 1;
                Ok::<_, ()>(range.collect::<Vec<_>>())
            })
            .unwrap();
        assert_eq!(items, vec![0, 1, 2]);
        assert_eq!(jobs.into_inner().unwrap(), 3);
        assert!(seen.into_inner().unwrap().len() <= available_threads());
    }

    #[test]
    fn map_runs_on_at_most_the_available_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let seen = Mutex::new(HashSet::new());
        let items = WorkerShards::by_count(64, 64)
            .map(|range| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Hold each job long enough for every spawned thread to
                // claim one (the bound holds either way).
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok::<_, ()>(range.collect::<Vec<_>>())
            })
            .unwrap();
        assert_eq!(items, (0..64).collect::<Vec<_>>());
        let threads = seen.into_inner().unwrap().len();
        assert!(
            (1..=available_threads()).contains(&threads),
            "{threads} threads for {} available",
            available_threads()
        );
    }
}
