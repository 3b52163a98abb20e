//! Exhaustive-edge and ULP-bound tests for the polynomial `exp`.
//!
//! The [`vexp_scalar`] contract (see `c4u_stats::vmath`) is ≤2 ULP against
//! libm over the shifted-log domain the quadrature sweep feeds it — `(-inf, 0]`
//! plus a small positive spill-over — including results in the subnormal
//! range, the flush-to-zero cutoff, and the IEEE edge cases. This suite pins
//! the edges deterministically and the ULP bound by property test.

use c4u_stats::vexp_scalar;
use proptest::prelude::*;

/// ULP distance between two non-negative doubles (`exp` never returns a
/// negative value), treating equal values — including `0 == 0` and
/// `inf == inf` — as distance zero.
fn ulp_diff(a: f64, b: f64) -> u64 {
    assert!(
        a.is_sign_positive() && b.is_sign_positive(),
        "ulp_diff is for non-negative values, got {a} / {b}"
    );
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

fn assert_within_2_ulp(x: f64) {
    let got = vexp_scalar(x);
    let want = x.exp();
    let d = ulp_diff(got, want);
    assert!(d <= 2, "x={x:e}: vexp {got:e} vs libm {want:e} ({d} ulp)");
}

#[test]
fn signed_zeros_are_exactly_one() {
    assert_eq!(vexp_scalar(0.0), 1.0);
    assert_eq!(vexp_scalar(-0.0), 1.0);
}

#[test]
fn infinities_and_nan_follow_ieee() {
    assert_eq!(vexp_scalar(f64::NEG_INFINITY), 0.0);
    assert_eq!(vexp_scalar(f64::INFINITY), f64::INFINITY);
    assert!(vexp_scalar(f64::NAN).is_nan());
}

#[test]
fn subnormal_inputs_round_to_one() {
    for x in [
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        1e-320,
        -1e-320,
    ] {
        assert_eq!(vexp_scalar(x), 1.0, "x={x:e}");
        assert_eq!(x.exp(), 1.0, "libm disagrees at x={x:e}");
    }
}

#[test]
// The threshold literals carry their full decimal expansions on purpose —
// they document the exact f64 edges being probed.
#[allow(clippy::excessive_precision)]
fn subnormal_result_band_stays_within_2_ulp() {
    // Below x ≈ -708.396 the true exp is subnormal; the band down to the
    // flush-to-zero cutoff at x ≈ -745.13 must still honour the ULP bound.
    // -708.4 is the spec's named edge.
    let mut x = -745.1;
    while x <= -708.0 {
        assert_within_2_ulp(x);
        x += 0.001;
    }
    assert_within_2_ulp(-708.4);
    assert_within_2_ulp(-708.396_418_532_264_078); // the subnormal threshold
    assert_within_2_ulp(-745.133_219_101_941_108_7); // the smallest-subnormal edge
}

#[test]
fn deep_underflow_flushes_to_zero() {
    for x in [-745.14, -746.0, -1e3, -1e6, -1e300, f64::MIN] {
        assert_eq!(vexp_scalar(x), 0.0, "x={x:e}");
        assert_eq!(x.exp(), 0.0, "libm disagrees at x={x:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The ≤2 ULP bound over the sweep's input domain: the shifted
    /// log-integrand is ≤ 0 up to the coarse-bracketing spill-over, and its
    /// useful dynamic range runs down to the flush-to-zero cutoff. Sample
    /// both linearly (the common near-peak regime) and log-magnitude
    /// (exercising every binade down to the subnormal band).
    #[test]
    fn vexp_within_2_ulp_of_libm(
        linear in -750.0..1.0f64,
        log_mag in -30.0f64..9.6,
        sign_bias in 0u8..8,
    ) {
        let x = linear;
        let got = vexp_scalar(x);
        let want = x.exp();
        prop_assert!(
            ulp_diff(got, want) <= 2,
            "x={x:e}: vexp {got:e} vs libm {want:e} ({} ulp)", ulp_diff(got, want)
        );

        // Magnitude sweep: |x| from 1e-30 up to ~e^9.6 ≈ 745, mostly negative
        // (the sweep's domain) with an occasional small positive.
        let mag = log_mag.exp();
        let x = if sign_bias == 0 { mag.min(0.9) } else { -mag };
        let got = vexp_scalar(x);
        let want = x.exp();
        prop_assert!(
            ulp_diff(got, want) <= 2,
            "x={x:e}: vexp {got:e} vs libm {want:e} ({} ulp)", ulp_diff(got, want)
        );
    }
}
