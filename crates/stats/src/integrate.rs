//! One-dimensional numerical quadrature.
//!
//! The CPE estimator repeatedly evaluates integrals of the form
//! `∫_0^1 h^C (1-h)^X · N(h; mu, sigma^2) dh` (Eq. 5 and Eq. 8 of the paper). The
//! integrands are smooth on a bounded interval, so fixed-order Gauss–Legendre
//! quadrature is both accurate and fast.

/// Iteration cap for the Newton refinement of the Legendre roots. Convergence
/// is quadratic from the Chebyshev initial guess, so real rules converge in a
/// handful of iterations; the cap only bounds pathological non-termination.
const MAX_NEWTON_ITERATIONS: usize = 100;

/// Newton-step magnitude below which a root is accepted (about 5 ulps at the
/// largest root magnitudes, |x| < 1).
const NEWTON_TOLERANCE: f64 = 1e-15;

/// Evaluates `(P_n(x), P_{n-1}(x))` by the three-term recurrence.
fn legendre_pair(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0;
    let mut p1 = 0.0;
    for j in 0..n {
        let p2 = p1;
        p1 = p0;
        p0 = ((2.0 * j as f64 + 1.0) * x * p1 - j as f64 * p2) / (j as f64 + 1.0);
    }
    (p0, p1)
}

/// Nodes and weights of an `n`-point Gauss–Legendre rule on `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Builds an `n`-point rule by Newton iteration on the Legendre polynomial roots.
    ///
    /// `n` is clamped to at least 2. Rules up to a few hundred points are cheap to
    /// build; the CPE path caches one rule and reuses it for every worker. Every
    /// root is iterated to convergence (step below `NEWTON_TOLERANCE`, 1e-15); in
    /// debug builds an unconverged root or an out-of-tolerance residual is a
    /// `debug_assert!` failure rather than a silently inaccurate rule.
    pub fn new(n: usize) -> Self {
        let n = n.max(2);
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Initial guess: Chebyshev-like approximation of the i-th root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut dp = 0.0;
            let mut converged = false;
            for _ in 0..MAX_NEWTON_ITERATIONS {
                let (p0, p1) = legendre_pair(n, x);
                // Derivative via the standard identity.
                dp = n as f64 * (x * p0 - p1) / (x * x - 1.0);
                let dx = p0 / dp;
                x -= dx;
                if dx.abs() < NEWTON_TOLERANCE {
                    converged = true;
                    break;
                }
            }
            debug_assert!(
                converged,
                "Gauss-Legendre Newton iteration did not converge for order {n}, root {i}"
            );
            #[cfg(debug_assertions)]
            {
                // Residual check at the accepted root: the next Newton step must
                // be at tolerance scale, otherwise the rule is unconverged.
                let (residual, _) = legendre_pair(n, x);
                let step = residual / dp;
                debug_assert!(
                    step.abs() < 1e-12,
                    "Gauss-Legendre root {i} of order {n} has residual Newton step {step:e}"
                );
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        Self { nodes, weights }
    }

    /// Number of points in the rule.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// The rule's raw nodes and weights on the canonical interval `[-1, 1]`,
    /// in node order.
    ///
    /// [`GaussLegendre::integrate`] folds the interval half-width into the
    /// *final sum* rather than into the weights, so a caller replicating its
    /// arithmetic bit for bit (the batched binomial×normal kernel) needs the
    /// raw weights.
    pub fn raw_points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.nodes.iter().copied().zip(self.weights.iter().copied())
    }

    /// Integrates `f` over `[a, b]`.
    pub fn integrate(&self, a: f64, b: f64, mut f: impl FnMut(f64) -> f64) -> f64 {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let mut sum = 0.0;
        for (x, w) in self.nodes.iter().zip(self.weights.iter()) {
            sum += w * f(mid + half * x);
        }
        sum * half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_weights_sum_to_interval_length() {
        for &n in &[2usize, 8, 16, 32, 64] {
            let gl = GaussLegendre::new(n);
            assert_eq!(gl.order(), n);
            let total: f64 = gl.weights.iter().sum();
            assert!((total - 2.0).abs() < 1e-12, "order {n}: {total}");
        }
    }

    #[test]
    fn gauss_legendre_exact_for_polynomials() {
        // An n-point rule integrates polynomials of degree 2n-1 exactly.
        let gl = GaussLegendre::new(5);
        // ∫_0^1 x^9 dx = 0.1
        let got = gl.integrate(0.0, 1.0, |x| x.powi(9));
        assert!((got - 0.1).abs() < 1e-13);
        // ∫_{-2}^{3} (x^3 - 2x + 1) dx = [x^4/4 - x^2 + x] = (81/4 - 9 + 3) - (4 - 4 - 2)
        let exact = (81.0 / 4.0 - 9.0 + 3.0) - (4.0 - 4.0 - 2.0);
        let got = gl.integrate(-2.0, 3.0, |x| x.powi(3) - 2.0 * x + 1.0);
        assert!((got - exact).abs() < 1e-11);
    }

    #[test]
    fn gauss_legendre_handles_transcendental_integrands() {
        let gl = GaussLegendre::new(32);
        // ∫_0^pi sin(x) dx = 2
        assert!((gl.integrate(0.0, std::f64::consts::PI, f64::sin) - 2.0).abs() < 1e-10);
        // ∫_0^1 e^x dx = e - 1
        assert!((gl.integrate(0.0, 1.0, f64::exp) - (std::f64::consts::E - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_integrates_normal_density() {
        let gl = GaussLegendre::new(64);
        let std_normal_pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        // Nearly all the standard normal mass lies in [-8, 8].
        let mass = gl.integrate(-8.0, 8.0, std_normal_pdf);
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        // First moment of the standard normal over a symmetric interval is 0.
        let moment = gl.integrate(-8.0, 8.0, |x| x * std_normal_pdf(x));
        assert!(moment.abs() < 1e-10);
    }

    #[test]
    fn gauss_legendre_binomial_kernel_matches_beta_function() {
        // ∫_0^1 h^C (1-h)^X dh = B(C+1, X+1) = C! X! / (C+X+1)!
        let gl = GaussLegendre::new(32);
        let factorial = |n: usize| (1..=n).map(|k| k as f64).product::<f64>();
        for &(c, x) in &[(0usize, 0usize), (3, 1), (5, 5), (10, 2)] {
            let got = gl.integrate(0.0, 1.0, |h| h.powi(c as i32) * (1.0 - h).powi(x as i32));
            let exact = factorial(c) * factorial(x) / factorial(c + x + 1);
            assert!((got - exact).abs() < 1e-10, "C={c} X={x}: {got} vs {exact}");
        }
    }

    #[test]
    fn minimum_order_is_two() {
        let gl = GaussLegendre::new(0);
        assert_eq!(gl.order(), 2);
        assert!((gl.integrate(0.0, 1.0, |x| x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn points_reproduce_integrate() {
        let gl = GaussLegendre::new(12);
        let f = |x: f64| (x * x + 1.0).ln();
        let raw: f64 = gl.raw_points().map(|(x, w)| w * f(1.25 + 0.75 * x)).sum();
        assert_eq!(raw * 0.75, gl.integrate(0.5, 2.0, f));
    }

    #[test]
    fn nodes_are_symmetric_and_inside_the_interval() {
        for n in [2usize, 7, 16] {
            let raw: Vec<(f64, f64)> = GaussLegendre::new(n).raw_points().collect();
            for (i, &(x, w)) in raw.iter().enumerate() {
                let (mx, mw) = raw[n - 1 - i];
                assert!((x + mx).abs() < 1e-14 && (w - mw).abs() < 1e-14, "{n}/{i}");
                assert!(x.abs() < 1.0 && w > 0.0);
            }
        }
    }
}
