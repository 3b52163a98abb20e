//! Vectorisable elementary math for the quadrature sweep.
//!
//! The `FastVector` sweep of [`BinomialNormalBatch`](crate::BinomialNormalBatch)
//! exponentiates one shifted log-integrand value per member and node. With
//! libm's scalar `f64::exp` that is a serial call per element and dominates
//! the sweep. This module provides [`vexp_scalar`], a polynomial `exp`
//! written as straight-line arithmetic — no libm call, no data-dependent
//! branch — so the stable-Rust autovectoriser can widen the sweep's loops
//! across member lanes with the exponential inlined.
//!
//! # Algorithm
//!
//! Each element goes through the classic three-step scheme, kept entirely in
//! select-friendly arithmetic:
//!
//! 1. **Branch-free range reduction.** `k = round(x / ln 2)` via the
//!    shift-trick (`x * log2(e) + 1.5·2^52` rounds in the mantissa; the
//!    integer `k` is read straight out of the low mantissa bits, avoiding
//!    float→int conversions that don't vectorise on baseline x86-64), then
//!    `f = x - k·ln 2` with a two-part Cody–Waite `ln 2` so the reduction is
//!    exact. This leaves `|f| ≤ ln(2)/2 ≈ 0.347`.
//! 2. **Polynomial core.** `exp(f) − 1 − f = f²·q(f)` with `q` the
//!    degree-11 Taylor tail (coefficients `1/2! … 1/13!`, truncation error
//!    `< 2^-57` on the reduced interval), evaluated as a fused
//!    multiply-add Horner chain. The result is reconstructed fdlibm-style as
//!    `1 − ((lo − f²·q) − hi)`, which keeps the exact high part of the
//!    reduction out of the rounding path — a division-free core (the
//!    classic `f·c/(2 − c)` rational correction costs a packed divide per
//!    lane pair, which dominates the vectorised loop).
//! 3. **Branch-free scaling.** `2^k` is applied as two exact power-of-two
//!    multiplies (`2^⌊k/2⌋ · 2^⌈k/2⌉`), so a single IEEE rounding produces
//!    the final result even when it is subnormal (`x < −708.396…`) and the
//!    overflow/underflow extremes saturate to `+inf`/`0` through ordinary
//!    multiplication rather than a branch.
//!
//! # Accuracy contract
//!
//! Over the shifted-log domain the sweep feeds it — `(-inf, 0]` plus the
//! small positive spill-over a coarse bracketing peak allows — [`vexp_scalar`] is
//! within **≤2 ULP** of libm's `f64::exp`, including results in the subnormal
//! range and the flush-to-zero cutoff below `x ≈ −745.2`. Edge cases follow
//! IEEE semantics: `±0 → 1`, `-inf → 0`, `+inf → +inf`, `NaN → NaN` (the
//! canonical quiet NaN; payloads are not propagated). The
//! bound is pinned by the `vexp_edges` exhaustive-edge tests and a ULP
//! proptest against libm. Inputs above `x ≈ +709.5` saturate to `+inf` (the
//! clamp constant sits marginally above the true overflow threshold; the sweep
//! never feeds large positive values).
//!
//! ```
//! use c4u_stats::vexp_scalar;
//!
//! assert_eq!(vexp_scalar(0.0), 1.0);
//! assert!((vexp_scalar(-1.0) - (-1.0f64).exp()).abs() < 1e-16);
//! // Subnormal results round once, like libm's.
//! assert!(vexp_scalar(-708.4) > 0.0 && vexp_scalar(-708.4) < f64::MIN_POSITIVE);
//! assert_eq!(vexp_scalar(f64::NEG_INFINITY), 0.0);
//! ```

/// `log2(e)`, the range-reduction multiplier.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// `1.5 · 2^52` — adding it pushes `x · log2(e)` into the mantissa so the
/// hardware's round-to-nearest does the `round()` and the integer `k` can be
/// read from the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// High part of `ln 2` with 21 trailing zero bits: `k · LN2_HI` is exact for
/// every `|k| < 2^21`, far beyond the `|k| ≤ 1076` this domain produces.
/// (The literals keep the full decimal expansion of the exact bit patterns —
/// deliberate documentation, not precision the parser uses.)
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
/// Low part of `ln 2` (Cody–Waite tail).
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// Taylor coefficients `1/(j+2)!` of the tail `q(f) = (exp(f) − 1 − f)/f²`,
/// lowest degree first (`Q[j]` multiplies `f^j`). Truncating after `1/13!`
/// leaves `f^14/14! < 4.3e-18` on `|f| ≤ ln(2)/2` — below half an ULP of the
/// unit-scale result — and the chain is division-free so every step maps to
/// one fused multiply-add lane.
const TAYLOR_TAIL: [f64; 12] = [
    1.0 / 2.0,             // 1/2!
    1.0 / 6.0,             // 1/3!
    1.0 / 24.0,            // 1/4!
    1.0 / 120.0,           // 1/5!
    1.0 / 720.0,           // 1/6!
    1.0 / 5_040.0,         // 1/7!
    1.0 / 40_320.0,        // 1/8!
    1.0 / 362_880.0,       // 1/9!
    1.0 / 3_628_800.0,     // 1/10!
    1.0 / 39_916_800.0,    // 1/11!
    1.0 / 479_001_600.0,   // 1/12!
    1.0 / 6_227_020_800.0, // 1/13!
];
/// Saturation clamps: anything above `OVERFLOW_CLAMP` is `+inf` anyway, and
/// anything below `UNDERFLOW_CLAMP` flushes to `+0` — clamping first keeps
/// `k` in a range where the power-of-two split below stays exact.
const OVERFLOW_CLAMP: f64 = 710.0;
const UNDERFLOW_CLAMP: f64 = -746.0;

// c4u-lint: hot-path
/// Polynomial `exp` within ≤2 ULP of libm over the sweep's domain (see the
/// module docs for the contract and edge-case semantics).
///
/// Marked `#[inline]` so the sweep's member-lane loops carry it inline
/// instead of spilling their vector registers around a call.
#[inline]
#[must_use]
pub fn vexp_scalar(x: f64) -> f64 {
    // Saturating clamp: keeps k within the exact power-of-two split below.
    // Deliberately `min().max()` rather than `clamp()`: this order quietly
    // replaces NaN with a finite value (so the bit-level range reduction
    // below never sees NaN), and NaN is restored by the final select.
    #[allow(clippy::manual_clamp)]
    let xc = x.min(OVERFLOW_CLAMP).max(UNDERFLOW_CLAMP);

    // Range reduction: k = round(xc / ln 2) via the mantissa shift-trick.
    let t = xc * LOG2_E + SHIFT;
    let kd = t - SHIFT;
    let ki = ((t.to_bits() & ((1u64 << 52) - 1)) as i64) - (1i64 << 51);
    let hi = xc - kd * LN2_HI; // exact: kd * LN2_HI has no rounding here
    let lo = kd * LN2_LO;
    let f = hi - lo;

    // Division-free core: q(f) = (exp(f) − 1 − f)/f² via an Estrin split —
    // six independent degree-1 fused multiply-adds, combined over f², then
    // f⁴ — which cuts the serial-FMA chain from 11 to 4 so the out-of-order
    // lanes stay full. Reconstructed against the exact `hi` part so the
    // large term never re-rounds. (`mul_add` is a single hardware FMA on
    // the pinned `x86-64-v3` target and on aarch64; without an FMA unit it
    // falls back to a correct but slow libm `fma` call.)
    const Q: [f64; 12] = TAYLOR_TAIL;
    let p0 = f.mul_add(Q[1], Q[0]);
    let p1 = f.mul_add(Q[3], Q[2]);
    let p2 = f.mul_add(Q[5], Q[4]);
    let p3 = f.mul_add(Q[7], Q[6]);
    let p4 = f.mul_add(Q[9], Q[8]);
    let p5 = f.mul_add(Q[11], Q[10]);
    let f2 = f * f;
    let f4 = f2 * f2;
    let t0 = p1.mul_add(f2, p0);
    let t1 = p3.mul_add(f2, p2);
    let t2 = p5.mul_add(f2, p4);
    let q = t2.mul_add(f4, t1).mul_add(f4, t0);
    let y = 1.0 - ((lo - f2 * q) - hi);

    // 2^k as two exact power-of-two factors: both exponents stay in the
    // normal range for |k| ≤ 1076, intermediate `y * s1` is exact, and the
    // final multiply performs the single IEEE rounding — into the subnormal
    // range, to +inf, or to +0 — with no branch.
    let k1 = ki >> 1;
    let k2 = ki - k1;
    let s1 = f64::from_bits(((1023 + k1) as u64) << 52);
    let s2 = f64::from_bits(((1023 + k2) as u64) << 52);
    let r = y * s1 * s2;
    // Canonical-NaN restore: the clamp above quietly replaced NaN, so select
    // it back in the value domain. A *canonical* NaN (rather than `x`
    // itself) keeps the select free of the input: an in-place loop over a
    // buffer would otherwise be lowered to a masked store.
    if x.is_nan() {
        f64::NAN
    } else {
        r
    }
}

// c4u-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;

    /// ULP distance between two non-negative finite-or-infinite doubles.
    fn ulp_diff(a: f64, b: f64) -> u64 {
        assert!(a.is_sign_positive() && b.is_sign_positive());
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn matches_libm_closely_on_the_core_domain() {
        // Dense deterministic sweep over the sweep's input domain.
        let mut worst = 0u64;
        let mut x = -745.5;
        while x <= 1.0 {
            let got = vexp_scalar(x);
            let want = x.exp();
            let d = ulp_diff(got, want);
            worst = worst.max(d);
            assert!(d <= 2, "x={x}: vexp {got:e} vs libm {want:e} ({d} ulp)");
            x += 0.000_7;
        }
        assert!(worst <= 2, "worst-case {worst} ulp");
    }

    #[test]
    fn exact_identities() {
        assert_eq!(vexp_scalar(0.0), 1.0);
        assert_eq!(vexp_scalar(-0.0), 1.0);
        assert_eq!(vexp_scalar(f64::NEG_INFINITY), 0.0);
        assert_eq!(vexp_scalar(f64::INFINITY), f64::INFINITY);
        assert!(vexp_scalar(f64::NAN).is_nan());
    }

    #[test]
    fn deep_underflow_flushes_to_zero() {
        for x in [-746.0, -800.0, -1e6, -1e308] {
            assert_eq!(vexp_scalar(x), 0.0, "x={x}");
            assert_eq!(x.exp(), 0.0, "libm disagrees at x={x}");
        }
    }
}
