//! The binomial×normal integrals of the CPE likelihood (Eq. 5–8).
//!
//! Every term of the CPE marginal likelihood is a normaliser of the form
//! `Z = ∫_0^1 h^C (1-h)^X N(h; mu, sigma^2) dh`, and the Eq. 8 prediction is the
//! first moment `E[h]` under the same unnormalised density. This module owns
//! the scalar form of that integrand:
//!
//! * [`binomial_normal_log_z`] / [`binomial_normal_moments`] — `log Z` (and
//!   optionally `E[h]`) for a single observation, evaluated in log-space so that
//!   large answer counts cannot underflow.
//!
//! The CPE hot paths sweep whole mask groups through
//! [`BinomialNormalBatch::moments`](crate::BinomialNormalBatch::moments)
//! instead, which also integrates the second moment about the conditional
//! mean, `E[(h - mu)^2]`; these scalar forms are its bit-for-bit oracle. The
//! two moments carry the derivatives of `log Z` by the classical
//! exponential-tilting identities: with expectations taken under
//! `p(h) ∝ h^C (1-h)^X N(h; mu, v)`,
//!
//! ```text
//! ∂ log Z / ∂ mu = E[h - mu] / v
//! ∂ log Z / ∂ v  = (E[(h - mu)^2] - v) / (2 v^2)
//! ```
//!
//! which hold for the Gauss–Legendre approximation of `log Z` as well
//! (differentiation and the fixed-node quadrature sum commute), so the swept
//! moments match a central-difference stencil over the same quadrature to
//! stencil accuracy.

use crate::integrate::GaussLegendre;

/// Floor applied to the conditional standard deviation before integrating, so a
/// degenerate conditional cannot produce a zero-width integrand.
pub(crate) const SIGMA_FLOOR: f64 = 1e-6;

/// Near-endpoint points added to the peak-bracketing grid.
///
/// The historical grid spanned `[0.0125, 0.9875]`, so an integrand peaking
/// inside the end gaps (large `C` with `X = 0`, or vice versa) underestimated
/// `log_max` and could overflow `(log_integrand - log_max).exp()` at the
/// outermost quadrature nodes. These points bracket boundary peaks; for
/// interior peaks they are never the maximum, so the historical results are
/// unchanged bit for bit. The `0.0` / `1.0` entries are clamped inside the
/// log-integrand and so evaluate at the extreme representable accuracies.
const EDGE_BRACKET_POINTS: [f64; 10] = [
    0.0,
    1e-6,
    1e-4,
    1e-3,
    5e-3,
    0.995,
    0.999,
    0.9999,
    1.0 - 1e-6,
    1.0,
];

/// The peak-bracketing grid: the historical 41-point interior grid followed by
/// the near-endpoint points of [`EDGE_BRACKET_POINTS`].
pub(crate) fn bracketing_points() -> impl Iterator<Item = f64> {
    (0..=40)
        .map(|i| 0.0125 + 0.975 * (i as f64 / 40.0))
        .chain(EDGE_BRACKET_POINTS)
}

/// Computes `(log Z, E[h])` where
/// `Z = ∫_0^1 h^C (1-h)^X N(h; mu, sigma^2) dh` and the expectation is taken
/// under the same unnormalised density. Evaluation happens in log-space so that
/// large answer counts cannot underflow.
///
/// This is the shared integrand of Eq. 5 (likelihood, via `log Z`) and Eq. 8
/// (prediction, via `E[h]`). The CPE hot paths no longer call it per worker —
/// they sweep whole mask groups through the structure-of-arrays tables of
/// [`BinomialNormalBatch`](crate::BinomialNormalBatch) — but this scalar form
/// remains the pinned cross-check oracle: the batched results are bit-identical
/// to it, enforced by the equivalence and property suites.
pub fn binomial_normal_moments(
    quadrature: &GaussLegendre,
    mu: f64,
    sigma: f64,
    c: f64,
    x: f64,
) -> (f64, f64) {
    moments_impl(quadrature, mu, sigma, c, x, true)
}

/// `log Z` alone — the likelihood path needs only the normaliser, and skipping
/// the posterior-mean integral halves the quadrature work per evaluation. The
/// returned value is bit-identical to `binomial_normal_moments(...).0` (the
/// two integrals are independent).
// c4u-lint: allow(unused-pub-fn, reason = "test oracle: the scalar Eq. 5 normaliser the batched sweep is pinned against")
pub fn binomial_normal_log_z(
    quadrature: &GaussLegendre,
    mu: f64,
    sigma: f64,
    c: f64,
    x: f64,
) -> f64 {
    moments_impl(quadrature, mu, sigma, c, x, false).0
}

fn moments_impl(
    quadrature: &GaussLegendre,
    mu: f64,
    sigma: f64,
    c: f64,
    x: f64,
    want_mean: bool,
) -> (f64, f64) {
    crate::batch::record_scalar_evaluation();
    let sigma = sigma.max(SIGMA_FLOOR);
    let log_integrand = |h: f64| {
        let h = h.clamp(1e-12, 1.0 - 1e-12);
        let z = (h - mu) / sigma;
        c * h.ln() + x * (1.0 - h).ln()
            - 0.5 * z * z
            - sigma.ln()
            - 0.5 * (2.0 * std::f64::consts::PI).ln()
    };
    // Locate the maximum of the log-integrand on a coarse grid for stable
    // exponentiation.
    let mut log_max = f64::NEG_INFINITY;
    for h in bracketing_points() {
        log_max = log_max.max(log_integrand(h));
    }
    if !log_max.is_finite() {
        return (f64::NEG_INFINITY, mu.clamp(0.0, 1.0));
    }
    let z = quadrature.integrate(0.0, 1.0, |h| (log_integrand(h) - log_max).exp());
    let first = if want_mean {
        quadrature.integrate(0.0, 1.0, |h| h * (log_integrand(h) - log_max).exp())
    } else {
        0.0
    };
    if z <= 0.0 || !z.is_finite() {
        return (f64::NEG_INFINITY, mu.clamp(0.0, 1.0));
    }
    (z.ln() + log_max, first / z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinomialNormalBatch, BinomialNormalMoments, QuadratureMath};

    #[test]
    fn log_z_only_variant_matches_full_moments() {
        let quadrature = GaussLegendre::new(32);
        for (mu, sigma, c, x) in [
            (0.5, 0.15, 7.0, 3.0),
            (0.8, 0.05, 0.0, 0.0),
            (0.2, 0.3, 140.0, 2.0),
            (-0.5, 0.1, 5.0, 5.0),
        ] {
            let (log_z, _) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            // Exact equality: the two integrals are independent computations.
            assert_eq!(binomial_normal_log_z(&quadrature, mu, sigma, c, x), log_z);
        }
    }

    #[test]
    fn boundary_peaked_integrands_stay_finite() {
        // Large C with X = 0 peaks inside the old grid's end gap near h = 1
        // (and symmetrically near h = 0): before the near-endpoint bracketing
        // points, log_max was underestimated and the outermost quadrature nodes
        // overflowed `exp`, collapsing log Z to -inf.
        let quadrature = GaussLegendre::new(32);
        for (mu, sigma, c, x) in [
            (0.99, 0.05, 100_000.0, 0.0),
            (0.95, 0.02, 250_000.0, 1.0),
            (0.01, 0.05, 0.0, 100_000.0),
            (0.05, 0.02, 1.0, 250_000.0),
        ] {
            let (log_z, mean) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            assert!(log_z.is_finite(), "log Z for C={c} X={x}: {log_z}");
            assert!((0.0..=1.0).contains(&mean), "E[h] for C={c} X={x}: {mean}");
            if c > x {
                assert!(mean > 0.9, "peak near 1 expected, got {mean}");
            } else {
                assert!(mean < 0.1, "peak near 0 expected, got {mean}");
            }
        }
    }

    #[test]
    fn interior_peaks_unchanged_by_edge_bracketing() {
        // For interior-peaked integrands the near-endpoint points never win the
        // max, so the historical values are preserved exactly: the bracketing
        // grid's interior 41 points already dominate.
        let quadrature = GaussLegendre::new(32);
        let (log_z, mean) = binomial_normal_moments(&quadrature, 0.5, 0.15, 7.0, 3.0);
        // B(8, 4)-weighted normal: a plainly finite interior value.
        assert!(log_z.is_finite() && log_z < 0.0);
        assert!((0.3..0.9).contains(&mean));
    }

    /// One batched sweep of `cells` at a shared `sigma`.
    fn sweep(
        quadrature: &GaussLegendre,
        sigma: f64,
        cells: &[(f64, f64, f64)],
    ) -> Vec<BinomialNormalMoments> {
        let mu: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let c: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let x: Vec<f64> = cells.iter().map(|c| c.2).collect();
        let mut out = vec![BinomialNormalMoments::default(); cells.len()];
        BinomialNormalBatch::new_with_math(quadrature, QuadratureMath::Exact)
            .moments(sigma, &mu, &c, &x, &mut out);
        out
    }

    #[test]
    fn batch_log_z_matches_single_evaluations() {
        let quadrature = GaussLegendre::new(32);
        let sigma = 0.12;
        let batch = [(0.55, 7.0, 3.0), (0.7, 0.0, 0.0), (0.3, 2.0, 8.0)];
        for (out, &(mu, c, x)) in sweep(&quadrature, sigma, &batch).iter().zip(&batch) {
            // Same nodes, same shift, same clamp, same summation order.
            assert_eq!(
                out.log_z,
                binomial_normal_log_z(&quadrature, mu, sigma, c, x)
            );
            assert!(out.log_z.is_finite());
        }
    }

    #[test]
    fn gradients_match_central_differences() {
        // The derivatives the swept moments carry by the tilting identities.
        let quadrature = GaussLegendre::new(48);
        let step = 1e-6;
        for (mu, sigma, c, x) in [
            (0.55, 0.12, 7.0, 3.0),
            (0.7, 0.2, 0.0, 0.0),
            (0.3, 0.08, 2.0, 8.0),
            (0.9, 0.15, 10.0, 0.0),
        ] {
            let out = sweep(&quadrature, sigma, &[(mu, c, x)])[0];
            let v = sigma * sigma;
            let d_mean = (out.mean - mu) / v;
            let d_variance = (out.second - v) / (2.0 * v * v);
            let fd_mean = (binomial_normal_log_z(&quadrature, mu + step, sigma, c, x)
                - binomial_normal_log_z(&quadrature, mu - step, sigma, c, x))
                / (2.0 * step);
            let fd_var = (binomial_normal_log_z(&quadrature, mu, (v + step).sqrt(), c, x)
                - binomial_normal_log_z(&quadrature, mu, (v - step).sqrt(), c, x))
                / (2.0 * step);
            assert!(
                (d_mean - fd_mean).abs() < 1e-5 * (1.0 + fd_mean.abs()),
                "d_mean {d_mean} vs fd {fd_mean}"
            );
            assert!(
                (d_variance - fd_var).abs() < 1e-4 * (1.0 + fd_var.abs()),
                "d_variance {d_variance} vs fd {fd_var}"
            );
        }
    }

    #[test]
    fn underflowing_normaliser_yields_zero_derivatives() {
        // Counts so large that the integrand's mass lies entirely between
        // quadrature nodes: the normaliser underflows to zero and the sweep
        // returns the conditional prior's moments, whose implied derivatives
        // are a harmless zero, not NaN.
        let quadrature = GaussLegendre::new(32);
        let (mu, sigma) = (0.5, 0.15);
        let out = sweep(&quadrature, sigma, &[(mu, 500_000.0, 500_000.0)])[0];
        assert_eq!(out.log_z, f64::NEG_INFINITY);
        assert_eq!(out.mean - mu, 0.0);
        assert_eq!(out.second - sigma * sigma, 0.0);
    }

    #[test]
    fn mirrored_inputs_give_mirrored_moments() {
        // h -> 1 - h swaps C and X and reflects the prior mean.
        let quadrature = GaussLegendre::new(32);
        for (mu, sigma, c, x) in [(0.7, 0.1, 6.0, 2.0), (0.4, 0.2, 0.0, 9.0)] {
            let (log_z, mean) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            let (m_log_z, m_mean) = binomial_normal_moments(&quadrature, 1.0 - mu, sigma, x, c);
            assert!((log_z - m_log_z).abs() < 1e-9, "{log_z} vs {m_log_z}");
            assert!((mean + m_mean - 1.0).abs() < 1e-9);
        }
        let (_, centre) = binomial_normal_moments(&quadrature, 0.5, 0.2, 4.0, 4.0);
        assert!((centre - 0.5).abs() < 1e-9);
    }

    #[test]
    fn correct_answers_pull_the_posterior_mean_up() {
        let quadrature = GaussLegendre::new(32);
        let means: Vec<f64> = (0..6)
            .map(|c| binomial_normal_moments(&quadrature, 0.5, 0.15, c as f64, 5.0 - c as f64).1)
            .collect();
        assert!(means.windows(2).all(|w| w[1] > w[0]), "{means:?}");
        assert!(means.iter().all(|m| (0.0..=1.0).contains(m)));
    }
}
