//! Pins the allocation budget of one learning round, and of one working
//! evaluation, with a counting global allocator: their allocations do not
//! grow with the worker count.
//!
//! A sheet owns no heap allocation (it is a worker id and two counts, graded
//! as it is drawn: a round stores no gold labels and no per-task record), and
//! the platform keeps no copy of the record it returns. So a 1-shard round
//! over `n` workers may allocate at most `ROUND_OVERHEAD` times on the calling
//! thread, whatever `n` is. Storing per-task flags or labels per sheet,
//! answering into a separate answers vector, or keeping a per-round copy of
//! the sheets on the platform each add about `n`.
//!
//! The counter is **per-thread** (a `const`-initialised thread-local, so the
//! counting itself never allocates): the libtest harness thread allocates
//! concurrently with the test body at unpredictable points, and a
//! process-global count would flake on that background noise. A 1-shard round
//! answers on the calling thread, so every allocation it makes is counted.

// Implementing `GlobalAlloc` requires `unsafe`. The workspace-level
// `unsafe_code = "deny"` is overridden here and in
// `crates/stats/tests/alloc_free.rs` only; library crate roots all
// `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Reads this thread's allocation count.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Passes everything through to the system allocator, counting `alloc` calls
/// on the calling thread.
struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter side effect does not
// touch the returned memory. `try_with` guards the TLS access so allocations
// during thread teardown (when the slot is gone) still succeed, just
// uncounted.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations a round or an evaluation may make in all: the list of
/// per-shard results, the one shard's sheet (or accuracy) list and the merged
/// list.
const ROUND_OVERHEAD: u64 = 3;

#[test]
fn a_learning_round_allocates_a_fixed_number_of_times() {
    let mut config = DatasetConfig::s4();
    config.pool_size = 500;
    let dataset = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 3).unwrap();
    let ids = platform.worker_ids();
    // The full pool, then a list shorter than one block of answer lanes, so
    // the padded last block is counted too.
    for round_ids in [&ids[..], &ids[..], &ids[3..8]] {
        let n = round_ids.len();
        let before = thread_allocations();
        let record = platform
            .assign_learning_batch(round_ids, config.tasks_per_batch)
            .unwrap();
        let allocations = thread_allocations() - before;
        assert_eq!(record.sheets.len(), n);
        assert!(
            allocations <= ROUND_OVERHEAD,
            "round {}: {allocations} allocations for {n} sheets",
            record.round
        );
    }
}

#[test]
fn a_working_evaluation_allocates_a_fixed_number_of_times() {
    let mut config = DatasetConfig::s4();
    config.pool_size = 500;
    let dataset = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&dataset, 3).unwrap();
    let ids = platform.worker_ids();
    for eval_ids in [&ids[..], &ids[..5]] {
        let n = eval_ids.len();
        let before = thread_allocations();
        let accuracy = platform.evaluate_working_accuracy(eval_ids).unwrap();
        let allocations = thread_allocations() - before;
        assert!((0.0..=1.0).contains(&accuracy));
        assert!(
            allocations <= ROUND_OVERHEAD,
            "evaluation: {allocations} allocations for {n} workers"
        );
    }
}
