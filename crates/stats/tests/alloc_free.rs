//! Pins the zero-allocation contract of the scratch-taking sweep with a
//! counting global allocator.
//!
//! After one warm-up sweep has grown the caller-owned buffer, repeated
//! `moments_with_scratch` calls must perform **zero** heap allocations —
//! that is the whole point of the scratch-taking form, and the property the
//! CPE hot loops (one sweep per mask-group block per epoch) rely on.
//!
//! The counter is **per-thread** (a `const`-initialised thread-local, so the
//! counting itself never allocates): the libtest harness thread allocates
//! concurrently with the test body at unpredictable points, and a
//! process-global count would flake on that background noise.

// Implementing `GlobalAlloc` requires `unsafe`. The workspace-level
// `unsafe_code = "deny"` is overridden here and in
// `crates/crowd-sim/tests/answer_allocations.rs` only; library crate roots all
// `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use c4u_stats::{
    BinomialNormalBatch, BinomialNormalMoments, GaussLegendre, QuadratureMath, QuadratureScratch,
};
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

#[test]
fn scratch_sweeps_do_not_allocate() {
    for math in [QuadratureMath::Exact, QuadratureMath::FastVector] {
        let quadrature = GaussLegendre::new(32);
        let batch = BinomialNormalBatch::new_with_math(&quadrature, math);
        let mu = [0.55, 0.7, 0.3, 0.99, 0.01, 0.5];
        let c = [7.0, 0.0, 2.0, 1000.0, 0.0, 3.0];
        let x = [3.0, 0.0, 8.0, 0.0, 1000.0, 3.0];
        let mut out = [BinomialNormalMoments::default(); 6];
        let mut scratch = QuadratureScratch::new();

        // Warm up: the first sweep grows the scratch to the rule size.
        batch.moments_with_scratch(0.12, &mu, &c, &x, &mut out, &mut scratch);

        let before = thread_allocations();
        for _ in 0..16 {
            batch.moments_with_scratch(0.12, &mu, &c, &x, &mut out, &mut scratch);
        }
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "{math:?}: the scratch-based sweep must not allocate"
        );
    }
}
