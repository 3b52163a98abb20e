//! The workspace's scoped-thread work queue.
//!
//! [`run_indexed_jobs`] executes `n` independent fallible jobs over at most
//! `threads` scoped worker threads with sequential-identical semantics. Every
//! parallel axis of the workspace fans out through it with one determinism
//! contract: trials in `c4u_selection::evaluate_over_trials`, worker shards
//! (through [`WorkerShards::map`](crate::WorkerShards::map), which serves the
//! platform round and the per-worker scoring passes), member blocks of the
//! CPE E-step sweep, and sweep cells in the bench harness. Each caps its
//! threads at [`available_threads`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Executes `n` independent fallible jobs and returns their results in job
/// order, fanning them out over at most `threads` scoped worker threads.
///
/// Semantics are exactly those of the sequential loop
/// `(0..n).map(job).collect()`:
///
/// * on success, results arrive in index order;
/// * on failure, the error of the **lowest-indexed failing job** is returned,
///   and jobs *above* a known failure are skipped (the parallel analogue of
///   the sequential early exit — jobs below it still run, so the reported
///   error never depends on thread scheduling).
///
/// This is the one scoped-thread work-queue in the workspace; the shard
/// fan-out, the trial fan-out, and the bench harness all build on it.
pub fn run_indexed_jobs<T, E, F>(threads: usize, n: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(job).collect();
    }

    let results: Mutex<Vec<(usize, Result<T, E>)>> = Mutex::new(Vec::with_capacity(n));
    let next = AtomicUsize::new(0);
    // Lowest failing index observed so far; jobs above it need not run (their
    // result could never be reported), jobs below it still must.
    let first_failure = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= n {
                    break;
                }
                if index > first_failure.load(Ordering::SeqCst) {
                    continue;
                }
                let result = job(index);
                if result.is_err() {
                    first_failure.fetch_min(index, Ordering::SeqCst);
                }
                results
                    .lock()
                    .expect("worker threads do not panic")
                    .push((index, result));
            });
        }
    });

    let mut collected = results.into_inner().expect("worker threads do not panic");
    collected.sort_by_key(|(index, _)| *index);
    // Return the lowest-indexed error, if any; otherwise every job ran and
    // succeeded, in order.
    collected.into_iter().map(|(_, result)| result).collect()
}

/// The machine's available parallelism (at least 1) — the thread cap of every
/// fan-out in the workspace.
///
/// Asked of the system once per process and kept: the query reads cgroup
/// files, about 17 µs a call on a 2-vCPU x86-64 VM.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let result: Result<Vec<usize>, ()> = run_indexed_jobs(4, 64, |index| {
            // Stagger the fast/slow jobs so out-of-order completion is likely.
            if index % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Ok(index * 2)
        });
        assert_eq!(result.unwrap(), (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_path_is_taken_for_one_thread() {
        let result: Result<Vec<usize>, ()> = run_indexed_jobs(1, 5, Ok);
        assert_eq!(result.unwrap(), vec![0, 1, 2, 3, 4]);
        let result: Result<Vec<usize>, ()> = run_indexed_jobs(8, 0, Ok);
        assert_eq!(result.unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let result: Result<Vec<usize>, usize> = run_indexed_jobs(4, 32, |index| {
            if index == 3 || index == 20 {
                Err(index)
            } else {
                Ok(index)
            }
        });
        assert_eq!(result, Err(3));
    }

    #[test]
    fn jobs_above_a_known_failure_are_skipped() {
        use std::sync::atomic::AtomicUsize;

        // Job 0 fails; with a single worker thread draining the queue in
        // order, every later job is skipped — the parallel analogue of the
        // sequential early exit.
        let executed = AtomicUsize::new(0);
        let result: Result<Vec<usize>, &'static str> = run_indexed_jobs(1, 100, |index| {
            executed.fetch_add(1, Ordering::SeqCst);
            if index == 0 {
                Err("boom")
            } else {
                Ok(index)
            }
        });
        assert_eq!(result, Err("boom"));
        assert_eq!(executed.load(Ordering::SeqCst), 1);

        // And with real fan-out the skip still bounds the wasted work: at
        // most one in-flight job per thread after the failure is recorded.
        let executed = AtomicUsize::new(0);
        let result: Result<Vec<usize>, &'static str> = run_indexed_jobs(4, 1000, |index| {
            executed.fetch_add(1, Ordering::SeqCst);
            if index == 0 {
                Err("boom")
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(index)
            }
        });
        assert_eq!(result, Err("boom"));
        assert!(
            executed.load(Ordering::SeqCst) < 1000,
            "fan-out should stop claiming jobs after the failure"
        );
    }

    #[test]
    fn jobs_demonstrably_run_concurrently() {
        // Each job holds its slot long enough for the other threads to
        // enter, and records how many jobs are inside at once.
        let peak_concurrency = |threads: usize| {
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let result: Result<Vec<()>, ()> = run_indexed_jobs(threads, 8, |_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(40));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            });
            assert_eq!(result.map(|done| done.len()), Ok(8));
            high_water.load(Ordering::SeqCst)
        };
        let peak = peak_concurrency(8);
        assert!(
            peak > 1,
            "expected overlapping jobs on 8 threads, saw peak concurrency {peak}"
        );
        // And one thread really is sequential.
        assert_eq!(peak_concurrency(1), 1);
    }

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn zero_jobs_yield_an_empty_result() {
        for threads in [0, 1, 4] {
            let out: Result<Vec<usize>, ()> = run_indexed_jobs(threads, 0, |_| unreachable!());
            assert_eq!(out, Ok(vec![]));
        }
        let out: Result<Vec<usize>, ()> = run_indexed_jobs(0, 3, Ok);
        assert_eq!(out, Ok(vec![0, 1, 2]));
    }
}
