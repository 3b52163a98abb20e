//! Property-based cross-check of the batched SoA quadrature kernel against the
//! scalar binomial×normal oracle.
//!
//! For randomly generated shared-`sigma` batches — the shape of a CPE mask
//! group — [`BinomialNormalBatch`] must agree with per-worker
//! [`binomial_normal_moments`] / [`binomial_normal_log_z`] calls, and its
//! second moment with the same `integrate` calls over `(h − mu)²`,
//! **exactly** (`prop_assert_eq!` on the raw `f64` bits, not an epsilon).
//! Every case force-includes the hard cells on top of the random draws:
//!
//! * boundary-peaked integrands (`X = 0` with large `C`, and `C = 0` with
//!   large `X`) whose peak lives inside the bracketing grid's end gaps;
//! * large-count cells (up to hundreds of thousands of answers), including
//!   counts so extreme the normaliser underflows to `-inf`;
//! * the zero-count cell (`C = X = 0`, the no-posterior prediction path);
//! * out-of-range means and sub-floor sigmas (the degenerate-conditional
//!   clamp).

use c4u_stats::{
    binomial_normal_log_z, binomial_normal_moments, BinomialNormalBatch, BinomialNormalMoments,
    GaussLegendre, QuadratureMath,
};
use proptest::prelude::*;

/// One random worker cell: conditional mean and answer counts. The mean range
/// deliberately exceeds `[0, 1]` — conditioning can extrapolate outside the
/// accuracy interval.
fn cell_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (-0.3..1.3f64, 0u32..400_000, 0u32..400_000).prop_map(|(mu, c, x)| (mu, c as f64, x as f64))
}

/// The always-included hard cells: boundary peaks, huge counts, underflow,
/// zero counts.
fn edge_cells() -> Vec<(f64, f64, f64)> {
    vec![
        (0.99, 100_000.0, 0.0),      // boundary peak at h -> 1 (X = 0)
        (0.01, 0.0, 100_000.0),      // boundary peak at h -> 0 (C = 0)
        (0.5, 500_000.0, 500_000.0), // underflows between nodes
        (0.7, 0.0, 0.0),             // zero counts: pure truncated normal
        (1.2, 3.0, 1.0),             // mean beyond the unit interval
    ]
}

/// One batched sweep of `cells` at a shared `sigma`.
fn sweep(
    batch: &BinomialNormalBatch,
    sigma: f64,
    cells: &[(f64, f64, f64)],
) -> Vec<BinomialNormalMoments> {
    let mu: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let c: Vec<f64> = cells.iter().map(|c| c.1).collect();
    let x: Vec<f64> = cells.iter().map(|c| c.2).collect();
    let mut out = vec![BinomialNormalMoments::default(); cells.len()];
    batch.moments(sigma, &mu, &c, &x, &mut out);
    out
}

/// `E[(h − mu)²]` the scalar way: the integrand and `integrate` calls of
/// `binomial_normal_moments`, shifted by the batch's (bit-identical) grid
/// peak, with `(h − mu)²` as the moment. The sweep's underflow fallback is
/// the conditional variance.
fn scalar_second_moment(
    quadrature: &GaussLegendre,
    peak: f64,
    mu: f64,
    sigma: f64,
    c: f64,
    x: f64,
) -> f64 {
    let sigma = sigma.max(1e-6);
    let log_integrand = |h: f64| {
        let h = h.clamp(1e-12, 1.0 - 1e-12);
        let z = (h - mu) / sigma;
        c * h.ln() + x * (1.0 - h).ln()
            - 0.5 * z * z
            - sigma.ln()
            - 0.5 * (2.0 * std::f64::consts::PI).ln()
    };
    let z = quadrature.integrate(0.0, 1.0, |h| (log_integrand(h) - peak).exp());
    if !peak.is_finite() || z <= 0.0 || !z.is_finite() {
        return sigma * sigma;
    }
    let second = quadrature.integrate(0.0, 1.0, |h| {
        let d = h - mu;
        d * d * (log_integrand(h) - peak).exp()
    });
    second / z
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_moments_and_log_z_match_scalar_bitwise(
        cells in prop::collection::vec(cell_strategy(), 1..12),
        sigma in 0.0..0.5f64,
        order in 2usize..48,
    ) {
        let mut cells = cells;
        cells.extend(edge_cells());
        let quadrature = GaussLegendre::new(order);
        let batch = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        prop_assert_eq!(batch.num_nodes(), quadrature.order());

        for (i, (out, &(mu, c, x))) in sweep(&batch, sigma, &cells).iter().zip(&cells).enumerate() {
            let (scalar_log_z, scalar_mean) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            prop_assert_eq!(out.log_z, scalar_log_z, "cell {} of order {}", i, order);
            prop_assert_eq!(out.mean, scalar_mean, "cell {} of order {}", i, order);
            prop_assert_eq!(
                out.log_z,
                binomial_normal_log_z(&quadrature, mu, sigma, c, x),
                "cell {} of order {}", i, order
            );
            let peak = batch.log_integrand_peak(sigma, mu, c, x);
            prop_assert_eq!(
                out.second,
                scalar_second_moment(&quadrature, peak, mu, sigma, c, x),
                "cell {} of order {}", i, order
            );
        }
    }

    /// The `FastVector` accuracy contract at this layer: against the pinned
    /// `Exact` path, per-cell `log_z` and moments agree to ~1e-12 relative on
    /// well-scaled cells — compared in the peak-shifted exp domain: when
    /// the shifted mass lands in subnormal territory (the bracketing-grid
    /// peak can sit hundreds of log-units above every quadrature node,
    /// leaving shifted node terms quantised to multiples of ~4.9e-324), the
    /// last digits of *any* log-space answer are quantisation noise, so both
    /// paths must agree on "zero mass" rather than on those digits.
    ///
    /// On ill-conditioned cells the bound degrades with the log-domain
    /// conditioning: the `FastVector` fill folds its constants per worker and
    /// multiplies by `1/sigma`, so each shifted log term carries a few ulps
    /// of the *pre-shift* magnitudes (~`eps * |peak|` absolute), which the
    /// exponential turns into relative mass noise. The extreme-count cells
    /// here (|peak| up to ~1e6 nats) sit ~1e-10 apart in mass for that
    /// reason; a 64-ulp-equivalent conditioning allowance covers the
    /// handful of reordered operations with wide margin while keeping the
    /// 1e-12 baseline binding wherever |peak| ≲ 1e3.
    #[test]
    fn fast_vector_tracks_exact_within_1e12_relative(
        cells in prop::collection::vec(cell_strategy(), 1..12),
        sigma in 0.0..0.5f64,
        order in 2usize..48,
    ) {
        let mut cells = cells;
        cells.extend(edge_cells());
        let quadrature = GaussLegendre::new(order);
        let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        let fast = BinomialNormalBatch::new(&quadrature);
        let (out_e, out_f) = (sweep(&exact, sigma, &cells), sweep(&fast, sigma, &cells));

        for (i, ((e, f), &(mu, c, x))) in out_e.iter().zip(&out_f).zip(&cells).enumerate() {
            let peak = exact.log_integrand_peak(sigma, mu, c, x);
            if !peak.is_finite() {
                prop_assert_eq!(e.log_z, f64::NEG_INFINITY, "cell {}", i);
                prop_assert_eq!(f.log_z, f64::NEG_INFINITY, "cell {}", i);
                continue;
            }
            // Shifted-mass comparison: ~1e-12 relative on well-scaled cells
            // plus the conditioning allowance (see the doc comment),
            // collapsing the subnormal-mass regime to 0 ~ 0.
            let cond = 64.0 * f64::EPSILON * (1.0 + peak.abs());
            let mass_e = (e.log_z - peak).exp();
            let mass_f = (f.log_z - peak).exp();
            let tolerance = (1e-12 + cond) * mass_e.max(mass_f) + 1e-290;
            prop_assert!(
                (mass_e - mass_f).abs() <= tolerance,
                "cell {} (mu={:e} c={} x={} sigma={:e} order={}): exact {} vs fast {}",
                i, mu, c, x, sigma, order, e.log_z, f.log_z
            );
            // The moments are ratios of non-negative sums, only
            // well-conditioned while the shifted normaliser is well above the
            // subnormal band — below that, every node term is quantised to
            // multiples of ~4.9e-324 and the ratio is noise in *both* paths.
            // Above it, their node terms carry the same per-term
            // conditioning noise as the mass (factor 2: the numerator and the
            // normaliser each contribute), relative to the moment's size.
            if mass_e.min(mass_f) >= 1e-300 {
                prop_assert!(
                    (e.mean - f.mean).abs() <= 1e-12 + 2.0 * cond,
                    "cell {}: mean {} vs {}", i, e.mean, f.mean
                );
                prop_assert!(
                    (e.second - f.second).abs() <= (1e-12 + 2.0 * cond) * e.second.max(1.0),
                    "cell {}: second {} vs {}", i, e.second, f.second
                );
            }
        }
    }
}
