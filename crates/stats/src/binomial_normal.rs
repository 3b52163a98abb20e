//! The binomial×normal integrals of the CPE likelihood (Eq. 5–8) and their
//! closed-form derivatives.
//!
//! Every term of the CPE marginal likelihood is a normaliser of the form
//! `Z = ∫_0^1 h^C (1-h)^X N(h; mu, sigma^2) dh`, and the Eq. 8 prediction is the
//! first moment `E[h]` under the same unnormalised density. This module owns
//! that integrand:
//!
//! * [`binomial_normal_log_z`] / [`binomial_normal_moments`] — `log Z` (and
//!   optionally `E[h]`) for a single observation, evaluated in log-space so that
//!   large answer counts cannot underflow;
//! * [`binomial_normal_log_z_gradients`] — `log Z` **and** its closed-form
//!   derivatives with respect to the conditional mean and variance for a whole
//!   batch of observations sharing one `sigma`, computed from two extra
//!   quadrature moments in a single sweep over shared nodes. This is the
//!   sweep of the CPE fit's E-step: within a CPE mask group the
//!   conditional variance is value-independent, so the node positions, their
//!   logarithms, and the peak-bracketing grid are computed once per group
//!   instead of once per worker.
//!
//! The derivative identities are the classical exponential-tilting moments:
//! with expectations taken under `p(h) ∝ h^C (1-h)^X N(h; mu, v)`,
//!
//! ```text
//! ∂ log Z / ∂ mu = E[h - mu] / v
//! ∂ log Z / ∂ v  = (E[(h - mu)^2] - v) / (2 v^2)
//! ```
//!
//! which are exactly the derivatives of the Gauss–Legendre approximation of
//! `log Z` as well (differentiation and the fixed-node quadrature sum commute),
//! so they match a central-difference stencil over the same quadrature to
//! stencil accuracy. Read backwards, the identities give the posterior moments
//! `E[h] = mu + v ∂ log Z/∂ mu` and `E[(h - mu)^2] = v + 2 v^2 ∂ log Z/∂ v`,
//! which is how the CPE E-step uses them.

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

/// `log Z` and its derivatives with respect to the conditional mean and
/// conditional variance, for one observation of a shared-`sigma` batch.
///
/// `Default` is the all-zero gradient — a convenient filler when resizing a
/// reusable output buffer for
/// [`BinomialNormalBatch::log_z_gradients_into`](crate::BinomialNormalBatch::log_z_gradients_into).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LogZGradient {
    /// `log Z` of the binomial×normal integral ([`f64::NEG_INFINITY`] when the
    /// normaliser underflows; the derivatives are zero in that case).
    pub log_z: f64,
    /// `∂ log Z / ∂ mu` — derivative with respect to the conditional mean.
    pub d_mean: f64,
    /// `∂ log Z / ∂ v` — derivative with respect to the conditional variance
    /// `v = sigma^2`.
    pub d_variance: f64,
}

impl LogZGradient {
    /// Whether the normaliser converged (finite `log Z` and derivatives).
    pub fn is_finite(&self) -> bool {
        self.log_z.is_finite() && self.d_mean.is_finite() && self.d_variance.is_finite()
    }
}

/// Evaluates `log Z` and its conditional-mean/variance derivatives for a batch
/// of observations sharing one conditional standard deviation, in one
/// vectorised sweep over shared quadrature nodes.
///
/// `observations` holds `(mu, correct, wrong)` per observation. Within a CPE
/// mask group the conditional variance does not depend on the observed values,
/// so the node positions, their (clamped) logarithms `ln h` / `ln(1-h)`, and
/// the peak-bracketing grid tables are computed **once per group** here and
/// reused for every worker — the three moments `Z`, `E[h - mu]`, and
/// `E[(h - mu)^2]` then cost one fused pass per worker instead of three
/// integrals.
///
/// An observation whose normaliser underflows gets `log_z = -inf` and zero
/// derivatives, so a caller accumulating a gradient skips it instead of
/// poisoning the sum with `NaN`.
///
/// ```
/// use c4u_stats::{binomial_normal_log_z, binomial_normal_log_z_gradients, GaussLegendre};
///
/// let quadrature = GaussLegendre::new(32);
/// // One worker: conditional mean 0.55, sigma 0.12, C = 7 correct, X = 3 wrong.
/// let grad = binomial_normal_log_z_gradients(&quadrature, 0.12, &[(0.55, 7.0, 3.0)])[0];
/// assert!(grad.is_finite());
/// // The fused log Z agrees with the dedicated log-Z sweep to float rounding.
/// let log_z = binomial_normal_log_z(&quadrature, 0.55, 0.12, 7.0, 3.0);
/// assert!((grad.log_z - log_z).abs() < 1e-12);
/// // More correct than wrong answers: the likelihood rises with the mean.
/// assert!(grad.d_mean > 0.0);
/// ```
pub fn binomial_normal_log_z_gradients(
    quadrature: &GaussLegendre,
    sigma: f64,
    observations: &[(f64, f64, f64)],
) -> Vec<LogZGradient> {
    // The SoA tables this builds are exactly the shared per-node tables the
    // historical inline sweep tabulated per call; the batch method preserves
    // the accumulation operation for operation, so this delegation is
    // bit-identical to the pre-batch implementation.
    crate::batch::BinomialNormalBatch::new(quadrature).log_z_gradients(sigma, observations)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn batch_log_z_matches_single_evaluations() {
        let quadrature = GaussLegendre::new(32);
        let sigma = 0.12;
        let batch = [(0.55, 7.0, 3.0), (0.7, 0.0, 0.0), (0.3, 2.0, 8.0)];
        let grads = binomial_normal_log_z_gradients(&quadrature, sigma, &batch);
        assert_eq!(grads.len(), batch.len());
        for (grad, &(mu, c, x)) in grads.iter().zip(&batch) {
            let log_z = binomial_normal_log_z(&quadrature, mu, sigma, c, x);
            // Same nodes, same shift, same clamp — only the loop structure
            // differs, so agreement is to rounding, not just quadrature, error.
            assert!(
                (grad.log_z - log_z).abs() < 1e-12,
                "batch {} vs single {log_z}",
                grad.log_z
            );
            assert!(grad.is_finite());
        }
    }

    #[test]
    fn gradients_match_central_differences() {
        let quadrature = GaussLegendre::new(48);
        let step = 1e-6;
        for (mu, sigma, c, x) in [
            (0.55, 0.12, 7.0, 3.0),
            (0.7, 0.2, 0.0, 0.0),
            (0.3, 0.08, 2.0, 8.0),
            (0.9, 0.15, 10.0, 0.0),
        ] {
            let grad = binomial_normal_log_z_gradients(&quadrature, sigma, &[(mu, c, x)])[0];
            let fd_mean = (binomial_normal_log_z(&quadrature, mu + step, sigma, c, x)
                - binomial_normal_log_z(&quadrature, mu - step, sigma, c, x))
                / (2.0 * step);
            let v = sigma * sigma;
            let fd_var = (binomial_normal_log_z(&quadrature, mu, (v + step).sqrt(), c, x)
                - binomial_normal_log_z(&quadrature, mu, (v - step).sqrt(), c, x))
                / (2.0 * step);
            assert!(
                (grad.d_mean - fd_mean).abs() < 1e-5 * (1.0 + fd_mean.abs()),
                "d_mean {} vs fd {fd_mean}",
                grad.d_mean
            );
            assert!(
                (grad.d_variance - fd_var).abs() < 1e-4 * (1.0 + fd_var.abs()),
                "d_variance {} vs fd {fd_var}",
                grad.d_variance
            );
        }
    }

    #[test]
    fn underflowing_normaliser_yields_zero_derivatives() {
        // Counts so large that the integrand's mass lies entirely between
        // quadrature nodes: the normaliser underflows to zero and the gradient
        // must come back as a harmless zero, not NaN.
        let quadrature = GaussLegendre::new(32);
        let grads =
            binomial_normal_log_z_gradients(&quadrature, 0.15, &[(0.5, 500_000.0, 500_000.0)]);
        assert_eq!(grads[0].log_z, f64::NEG_INFINITY);
        assert_eq!(grads[0].d_mean, 0.0);
        assert_eq!(grads[0].d_variance, 0.0);
        assert!(!grads[0].is_finite());
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
