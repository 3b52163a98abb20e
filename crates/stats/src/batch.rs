//! Batched structure-of-arrays evaluation of the binomial×normal integrals.
//!
//! The CPE E-step — and with it the Eq. 5 likelihood and the Eq. 8
//! prediction — integrates the same integrand
//! `h^C (1-h)^X N(h; mu, sigma^2)` for every worker of a mask group, over the
//! *same* Gauss–Legendre nodes and with the *same* conditional `sigma`. The
//! scalar functions in [`crate::binomial_normal`] recompute the node
//! logarithms `ln h` / `ln(1-h)` and the peak-bracketing grid once per
//! worker; [`BinomialNormalBatch`] tabulates them once per rule into flat
//! contiguous buffers and then sweeps a whole `(mu, c, x)` batch over them.
//!
//! There is one sweep, [`BinomialNormalBatch::moments`]. Per worker it
//! accumulates three sums over the shifted integrand `e`: the normaliser
//! `Σ w·e`, the first moment `Σ w·h·e` and the second moment about the
//! conditional mean `Σ w·(h − mu)²·e`. It returns `log Z`, `E[h]` (the Eq. 8
//! posterior mean) and `E[(h − mu)²]`, from which the E-step reads the
//! posterior variance directly.
//!
//! # Math modes
//!
//! The sweep runs under one of two [`QuadratureMath`] contracts, fixed at
//! construction:
//!
//! * [`QuadratureMath::FastVector`] (the default) runs worker-major over
//!   chunks of eight members: one pass over the peak-bracketing grid and two
//!   over the nodes, each an inner loop across the chunk's member lanes.
//!   Per element it evaluates the division-free fill (a reciprocal multiply
//!   and fused multiply-adds; the grid scan expands the Gaussian exponent to
//!   a quadratic in `h`), the polynomial [`vexp_scalar`] (≤2 ULP of libm, see
//!   [`crate::vmath`]) and the three sums, which each member accumulates in
//!   node order. Terms are exponentiated relative to the member's largest
//!   node term, so none that counts is subnormal (x86 runs subnormal results
//!   through a slow microcode assist); the underflow fallback is taken where
//!   the `Exact` sweep's shifted mass would round to zero. Members never
//!   share a sum, so a member's result does not
//!   depend on the batch it is swept in, nor on its position there: a short
//!   batch, or the tail of a long one, is padded to the chunk width and stays
//!   on the vector path. The results are not bit-identical to the scalar
//!   oracle — the contract is tolerance-based instead: per-cell
//!   `log_z`/moments within ~1e-12 relative of the `Exact` path on
//!   well-scaled cells, pinned by property tests at this layer and by
//!   selection-equivalence tests at the estimator layer.
//! * [`QuadratureMath::Exact`] exponentiates with libm's `f64::exp` in node
//!   order, preserving the exact summation order of
//!   [`GaussLegendre::integrate`]. Every arithmetic expression replicates the
//!   scalar path operation for operation (same clamp, same subtraction order,
//!   same fold of the interval half-width into the final sum), so `log Z`
//!   and `E[h]` are **bit-identical** to
//!   [`binomial_normal_moments`](crate::binomial_normal_moments) /
//!   [`binomial_normal_log_z`](crate::binomial_normal_log_z), and the second
//!   moment is bit-identical to the same `integrate` call over
//!   `(h − mu)² · e` — the scalar forms remain the pinned cross-check oracle,
//!   enforced by the equivalence and property suites rather than by an
//!   epsilon. Per worker it makes two passes over the node tables: the
//!   shifted log-integrand values land in a scratch buffer, then
//!   exponentiation and accumulation fold the buffer into the three sums.
//!
//! The `FastVector` grid scan's quadratic form carries an absolute error of
//! order `eps / sigma²` (≲1e-4 at the `SIGMA_FLOOR` extreme) in the peak it
//! finds. That peak only shifts the integrand before the exponential and is
//! added back through `log Z`, and the moments are ratios of sums that scale
//! by the same `exp(-peak)`, so the perturbation cancels out of every
//! returned quantity up to ordinary rounding (only a cell balanced on the
//! absolute underflow cutoff could flip its `NEG_INFINITY` fallback). The
//! per-node fill must not use that expansion: its errors do not cancel.
//!
//! The module also owns the thread-local diagnostic counters that let tests pin
//! the batching contract: an E-step, a likelihood evaluation or a
//! `predict_batch` pass must cost `O(unique_masks)` batched sweeps, not
//! `O(workers)` scalar evaluations (mirroring the conditioning-factorisation
//! counter in [`crate::mvn`]).
//!
//! ```
//! use c4u_stats::{
//!     binomial_normal_moments, BinomialNormalBatch, BinomialNormalMoments, GaussLegendre,
//!     QuadratureMath,
//! };
//!
//! let quadrature = GaussLegendre::new(32);
//! let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
//!
//! // One mask group: three workers sharing a conditional sigma.
//! let sigma = 0.12;
//! let mu = [0.55, 0.7, 0.3];
//! let c = [7.0, 0.0, 2.0];
//! let x = [3.0, 0.0, 8.0];
//! let mut out = [BinomialNormalMoments::default(); 3];
//! exact.moments(sigma, &mu, &c, &x, &mut out);
//!
//! // Bit-identical to the scalar oracle, worker by worker.
//! for i in 0..3 {
//!     let (log_z, mean) = binomial_normal_moments(&quadrature, mu[i], sigma, c[i], x[i]);
//!     assert_eq!(out[i].log_z, log_z);
//!     assert_eq!(out[i].mean, mean);
//!     // The answers narrow the posterior below the conditional prior.
//!     let variance = out[i].second - (out[i].mean - mu[i]).powi(2);
//!     assert!(0.0 < variance && variance < sigma * sigma);
//! }
//!
//! // The default sweep tracks it within its tolerance contract.
//! let mut fast = [BinomialNormalMoments::default(); 3];
//! BinomialNormalBatch::new(&quadrature).moments(sigma, &mu, &c, &x, &mut fast);
//! for (f, e) in fast.iter().zip(&out) {
//!     assert!((f.log_z - e.log_z).abs() < 1e-12 && (f.mean - e.mean).abs() < 1e-12);
//! }
//! ```

use crate::binomial_normal::{bracketing_points, SIGMA_FLOOR};
use crate::integrate::GaussLegendre;
use crate::vmath::vexp_scalar;
use std::cell::Cell;

thread_local! {
    static BATCHED_QUADRATURE_SWEEPS: Cell<u64> = const { Cell::new(0) };
    static SCALAR_QUADRATURE_EVALUATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of batched quadrature sweeps (one [`BinomialNormalBatch`] call over a
/// whole mask group, or one block of it) recorded on this thread.
///
/// Together with [`scalar_quadrature_evaluations`] this lets tests pin the
/// batching contract of the CPE hot paths: `O(unique_masks)` sweeps per
/// evaluation, zero scalar evaluations. A sweep is counted on the thread that
/// runs it: the CPE E-step fans the blocks of a mask group larger than one
/// block out over threads, and the sweeps of the blocks that run on those
/// threads are counted there, not on the calling thread.
// c4u-lint: allow(unused-pub-fn, reason = "sweep counter the tests read as a check until a per-run trace replaces the thread-locals")
pub fn batched_quadrature_sweeps() -> u64 {
    BATCHED_QUADRATURE_SWEEPS.with(Cell::get)
}

/// Number of scalar binomial×normal evaluations
/// ([`binomial_normal_moments`](crate::binomial_normal_moments) /
/// [`binomial_normal_log_z`](crate::binomial_normal_log_z)) recorded on this
/// thread.
// c4u-lint: allow(unused-pub-fn, reason = "sweep counter the tests read as a check until a per-run trace replaces the thread-locals")
pub fn scalar_quadrature_evaluations() -> u64 {
    SCALAR_QUADRATURE_EVALUATIONS.with(Cell::get)
}

pub(crate) fn record_batched_sweep() {
    BATCHED_QUADRATURE_SWEEPS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_scalar_evaluation() {
    SCALAR_QUADRATURE_EVALUATIONS.with(|c| c.set(c.get() + 1));
}

/// One worker's output of a [`BinomialNormalBatch::moments`] sweep.
///
/// When the normaliser underflows (the integrand's mass lies between the
/// nodes, or the peak cannot be bracketed), `log_z` is
/// [`f64::NEG_INFINITY`], `mean` is `mu.clamp(0, 1)` (the fallback of
/// [`binomial_normal_moments`](crate::binomial_normal_moments)) and `second`
/// is the conditional variance `sigma²`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BinomialNormalMoments {
    /// `log Z` of Eq. 5.
    pub log_z: f64,
    /// `E[h]`, the Eq. 8 posterior mean.
    pub mean: f64,
    /// `E[(h − mu)²]`, the posterior second moment about the conditional
    /// mean `mu`.
    pub second: f64,
}

/// Arithmetic contract of the batched sweep — see the
/// [`BinomialNormalBatch`] docs for the full accuracy contract of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuadratureMath {
    /// libm `f64::exp` in the scalar summation order: bit-identical to the
    /// scalar oracle functions.
    Exact,
    /// The worker-major sweep over eight-member chunks — division-free fill
    /// arithmetic, the polynomial [`vexp_scalar`], and node-order sums per
    /// member: deterministic and independent of a member's batch, but
    /// validated by tolerance (~1e-12 relative per cell) rather than bit
    /// equality. The default.
    #[default]
    FastVector,
}

/// Width of the max-reduce accumulators of the `Exact` grid scan. A grid
/// tail shorter than this takes the scalar remainder path, which computes
/// identical per-element values.
const FOLD_LANES: usize = 4;

/// Members per chunk of the `FastVector` sweep: the lane count of its inner
/// loops. A partial chunk is padded to this width.
const MEMBER_LANES: usize = 8;

/// Node terms below `e^NEGLIGIBLE` of a member's largest node term count as
/// zero in the `FastVector` sums: they sit some 260 orders of magnitude
/// below the sum's last digit, and every term above the cut stays far from
/// the subnormal range after its weight and moment factors.
const NEGLIGIBLE: f64 = -600.0;

/// `ln` of the smallest positive subnormal and of the largest finite `f64`:
/// outside this range the `Exact` sweep's shifted mass rounds to zero or
/// overflows, and the `FastVector` sweep takes the same underflow fallback.
const MASS_RANGE: std::ops::RangeInclusive<f64> = -744.440_071_921_381_2..=709.782_712_893_384;

/// Reusable scratch for the batched sweep.
///
/// The sweeps stage the shifted log-integrand at every node before
/// exponentiating it: the `Exact` sweep one worker at a time, the
/// `FastVector` sweep one member chunk at a time.
/// [`BinomialNormalBatch::moments_with_scratch`] borrows the buffers from
/// here instead of allocating per call, so a caller that loops over mask
/// groups and epochs performs **zero** heap allocations in the sweep. The
/// buffers only ever grow; sharing one scratch across batches of different
/// rule sizes is fine.
#[derive(Debug, Clone, Default)]
pub struct QuadratureScratch {
    buf: Vec<f64>,
    lanes: Vec<[f64; MEMBER_LANES]>,
}

impl QuadratureScratch {
    /// An empty scratch; the first sweep sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node-sized view, growing the backing buffer if needed.
    fn nodes(&mut self, n: usize) -> &mut [f64] {
        if self.buf.len() < n {
            self.buf.resize(n, 0.0);
        }
        &mut self.buf[..n]
    }

    /// One member chunk's lanes per node, growing the buffer if needed.
    fn lanes(&mut self, n: usize) -> &mut [[f64; MEMBER_LANES]] {
        if self.lanes.len() < n {
            self.lanes.resize(n, [0.0; MEMBER_LANES]);
        }
        &mut self.lanes[..n]
    }
}

/// Structure-of-arrays tables for batched binomial×normal quadrature over one
/// [`GaussLegendre`] rule on `[0, 1]`.
///
/// Built once per rule (cheap: one `ln` pair per node and grid point) and
/// reused for every mask group and every model evaluation. All buffers are
/// flat and contiguous. The sweep arithmetic is fixed at construction by
/// [`QuadratureMath`] ([`new`](Self::new) takes the default, `FastVector`).
#[derive(Debug, Clone)]
pub struct BinomialNormalBatch {
    /// Mapped node positions `mid + half * x` on `[0, 1]`, unclamped — the
    /// moment integrands multiply by the *raw* node position (and its offset
    /// from `mu`), exactly as the scalar moment closure does.
    node_h: Vec<f64>,
    /// Node positions clamped to `[1e-12, 1 - 1e-12]` — the argument of the
    /// log-integrand.
    node_hc: Vec<f64>,
    /// Raw rule weights. [`GaussLegendre::integrate`] folds the interval
    /// half-width into the final sum, so the sweep must accumulate with raw
    /// weights and scale once at the end to stay bit-identical.
    node_w: Vec<f64>,
    /// `ln h` at the clamped nodes.
    node_lh: Vec<f64>,
    /// `ln(1 - h)` at the clamped nodes.
    node_l1h: Vec<f64>,
    /// The peak-bracketing grid (clamped) and its log tables, in
    /// `bracketing_points()` order so the `Exact` scan visits grid points in
    /// the scalar order.
    grid_hc: Vec<f64>,
    grid_lh: Vec<f64>,
    grid_l1h: Vec<f64>,
    /// Sweep arithmetic contract, fixed at construction.
    math: QuadratureMath,
}

/// Interval half-width and midpoint of `[0, 1]` — written as the same
/// expressions `GaussLegendre::integrate` evaluates so the mapped nodes and
/// the final scaling carry identical bits.
const HALF: f64 = 0.5 * (1.0 - 0.0);
const MID: f64 = 0.5 * (0.0 + 1.0);

impl BinomialNormalBatch {
    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]`, in the default
    /// [`QuadratureMath`] mode.
    pub fn new(quadrature: &GaussLegendre) -> Self {
        Self::new_with_math(quadrature, QuadratureMath::default())
    }

    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]` with an explicit
    /// sweep arithmetic contract.
    pub fn new_with_math(quadrature: &GaussLegendre, math: QuadratureMath) -> Self {
        let n = quadrature.order();
        // `GaussLegendre::new` clamps its order to >= 2, so an empty rule is
        // unreachable through the public API; assert rather than silently
        // producing a batch whose every fold returns the empty-sum value.
        assert!(
            n >= 2,
            "quadrature rule must have at least 2 nodes, got {n}"
        );
        let mut node_h = Vec::with_capacity(n);
        let mut node_hc = Vec::with_capacity(n);
        let mut node_w = Vec::with_capacity(n);
        let mut node_lh = Vec::with_capacity(n);
        let mut node_l1h = Vec::with_capacity(n);
        for (x, w) in quadrature.raw_points() {
            let h = MID + HALF * x;
            let hc = h.clamp(1e-12, 1.0 - 1e-12);
            node_h.push(h);
            node_hc.push(hc);
            node_w.push(w);
            node_lh.push(hc.ln());
            node_l1h.push((1.0 - hc).ln());
        }
        let mut grid_hc = Vec::new();
        let mut grid_lh = Vec::new();
        let mut grid_l1h = Vec::new();
        for h in bracketing_points() {
            let hc = h.clamp(1e-12, 1.0 - 1e-12);
            grid_hc.push(hc);
            grid_lh.push(hc.ln());
            grid_l1h.push((1.0 - hc).ln());
        }
        Self {
            node_h,
            node_hc,
            node_w,
            node_lh,
            node_l1h,
            grid_hc,
            grid_lh,
            grid_l1h,
            math,
        }
    }

    /// Number of quadrature nodes in the tables (always at least 2).
    pub fn num_nodes(&self) -> usize {
        self.node_h.len()
    }

    /// The sweep arithmetic contract this batch was built with.
    pub fn math(&self) -> QuadratureMath {
        self.math
    }

    /// `(log Z, E[h], E[(h − mu)²])` of Eq. 5/8 for a whole shared-`sigma`
    /// batch: one sweep over the node tables, one counter tick for the whole
    /// call.
    ///
    /// `mu`, `c`, `x` and `out` must have equal lengths. In
    /// [`QuadratureMath::Exact`] mode `log_z` and `mean` are bit-identical to
    /// [`binomial_normal_moments`](crate::binomial_normal_moments) at the same
    /// `(mu, sigma, c, x)`, including the underflow fallback
    /// `(NEG_INFINITY, mu.clamp(0, 1))`, and `second` is the integral of
    /// `(h − mu)²` times the integrand over the same nodes and shift,
    /// divided by the same `Z`. In either mode a worker's output depends only
    /// on its own `(mu, c, x)` and `sigma`.
    ///
    /// Allocates a fresh scratch buffer; hot loops should hold a
    /// [`QuadratureScratch`] and call
    /// [`moments_with_scratch`](Self::moments_with_scratch).
    pub fn moments(
        &self,
        sigma: f64,
        mu: &[f64],
        c: &[f64],
        x: &[f64],
        out: &mut [BinomialNormalMoments],
    ) {
        self.moments_with_scratch(sigma, mu, c, x, out, &mut QuadratureScratch::new());
    }

    /// [`moments`](Self::moments) with a caller-owned scratch buffer: zero
    /// heap allocations once the scratch has grown to the rule size.
    pub fn moments_with_scratch(
        &self,
        sigma: f64,
        mu: &[f64],
        c: &[f64],
        x: &[f64],
        out: &mut [BinomialNormalMoments],
        scratch: &mut QuadratureScratch,
    ) {
        assert_eq!(mu.len(), c.len());
        assert_eq!(mu.len(), x.len());
        assert_eq!(mu.len(), out.len());
        record_batched_sweep();
        let sigma = sigma.max(SIGMA_FLOOR);
        let ln_sigma = sigma.ln();
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        match self.math {
            QuadratureMath::Exact => {
                let scratch = scratch.nodes(self.num_nodes());
                for (i, out) in out.iter_mut().enumerate() {
                    let (mu_i, c_i, x_i) = (mu[i], c[i], x[i]);
                    let log_max = self.log_max(sigma, ln_sigma, half_ln_2pi, mu_i, c_i, x_i);
                    *out = if log_max.is_finite() {
                        // The scalar path runs the normaliser and the moment
                        // as two independent `integrate` calls over the same
                        // integrand values; one fused node-order pass
                        // reproduces both sums bit for bit because each
                        // accumulator sees the same terms in the same order.
                        self.fill_shifted_log_integrand(
                            sigma,
                            ln_sigma,
                            half_ln_2pi,
                            mu_i,
                            c_i,
                            x_i,
                            log_max,
                            scratch,
                        );
                        finish(sigma, mu_i, log_max, self.fold_exact(scratch, mu_i))
                    } else {
                        underflow(sigma, mu_i)
                    };
                }
            }
            QuadratureMath::FastVector => {
                let (inv_sigma, k) = (1.0 / sigma, ln_sigma + half_ln_2pi);
                let terms = scratch.lanes(self.num_nodes());
                let chunks = out
                    .chunks_mut(MEMBER_LANES)
                    .zip(mu.chunks(MEMBER_LANES))
                    .zip(c.chunks(MEMBER_LANES))
                    .zip(x.chunks(MEMBER_LANES));
                for (((out, mu), c), x) in chunks {
                    // Padding lanes hold a well-scaled cell whose results
                    // are dropped.
                    let sums = self.sweep_fast(
                        inv_sigma,
                        k,
                        &padded(mu, 0.5),
                        &padded(c, 0.0),
                        &padded(x, 0.0),
                        terms,
                    );
                    for (j, (out, &mu)) in out.iter_mut().zip(mu).enumerate() {
                        let (log_max, peak) = (sums.log_max[j], sums.node_max[j]);
                        let (z, m, s) = (sums.z[j], sums.m[j], sums.s[j]);
                        // The mass relative to the grid peak, `ln(z) + peak`,
                        // takes the underflow fallback where the `Exact`
                        // sweep's shifted mass would round to zero or
                        // overflow.
                        let log_mass = (z * HALF).ln() + peak;
                        *out = if log_max.is_finite() && MASS_RANGE.contains(&log_mass) {
                            finish(sigma, mu, log_max + peak, (z, m, s))
                        } else {
                            underflow(sigma, mu)
                        };
                    }
                }
            }
        }
    }

    /// The `Exact` peak-bracketing grid's log-integrand maximum for one cell
    /// — the stable-exponentiation shift the scalar oracle and the `Exact`
    /// sweep normalise by before exponentiating.
    ///
    /// Exposed as a diagnostic so equivalence suites can reason about the
    /// *shifted* mass `exp(log_z - peak)`: when that mass lands in subnormal
    /// territory the last-digit noise of any `log_z` is unbounded (subnormals
    /// are quantised to multiples of ~4.9e-324), so comparisons between
    /// independently accumulated paths must happen in the shifted exp domain,
    /// not the log domain.
    pub fn log_integrand_peak(&self, sigma: f64, mu: f64, c: f64, x: f64) -> f64 {
        let sigma = sigma.max(SIGMA_FLOOR);
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        self.log_max(sigma, sigma.ln(), half_ln_2pi, mu, c, x)
    }

    /// `log_max` over the peak-bracketing grid with the scalar closure's
    /// `/ sigma` division and subtraction order, bit for bit: 4-lane max
    /// accumulators over the chunks, scalar tail, lanes folded at the end.
    /// Bit-identical to a sequential scan for every fold order —
    /// floating-point `max` is commutative and associative on the non-`NaN`
    /// values the grid produces (and an all-`-inf` scan still yields
    /// `-inf`) — while letting the autovectoriser keep the grid scan in
    /// packed lanes.
    fn log_max(&self, sigma: f64, ln_sigma: f64, half_ln_2pi: f64, mu: f64, c: f64, x: f64) -> f64 {
        let term = |hc: f64, lh: f64, l1h: f64| {
            let z = (hc - mu) / sigma;
            c * lh + x * l1h - 0.5 * z * z - ln_sigma - half_ln_2pi
        };
        let mut acc = [f64::NEG_INFINITY; FOLD_LANES];
        let mut hc_it = self.grid_hc.chunks_exact(FOLD_LANES);
        let mut lh_it = self.grid_lh.chunks_exact(FOLD_LANES);
        let mut l1h_it = self.grid_l1h.chunks_exact(FOLD_LANES);
        for ((hc, lh), l1h) in (&mut hc_it).zip(&mut lh_it).zip(&mut l1h_it) {
            for (a, ((&hc, &lh), &l1h)) in acc.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                *a = a.max(term(hc, lh, l1h));
            }
        }
        for ((&hc, &lh), &l1h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
        {
            acc[0] = acc[0].max(term(hc, lh, l1h));
        }
        acc.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Pass 1 of the [`QuadratureMath::Exact`] per-worker sweep: the shifted
    /// log-integrand value at every node into `scratch`, preserving the
    /// scalar oracle's `/ sigma` division and constant-subtraction order bit
    /// for bit.
    #[allow(clippy::too_many_arguments)]
    fn fill_shifted_log_integrand(
        &self,
        sigma: f64,
        ln_sigma: f64,
        half_ln_2pi: f64,
        mu: f64,
        c: f64,
        x: f64,
        log_max: f64,
        scratch: &mut [f64],
    ) {
        for (((t, hc), lh), l1h) in scratch
            .iter_mut()
            .zip(&self.node_hc)
            .zip(&self.node_lh)
            .zip(&self.node_l1h)
        {
            let z = (hc - mu) / sigma;
            *t = c * lh + x * l1h - 0.5 * z * z - ln_sigma - half_ln_2pi - log_max;
        }
    }

    // c4u-lint: hot-path
    /// Pass 2 of the [`QuadratureMath::Exact`] per-worker sweep: the three
    /// sums `Σ w·e`, `Σ w·h·e` and `Σ w·(h − mu)²·e` with libm `exp`, each in
    /// the node-order summation of `GaussLegendre::integrate`, bit for bit.
    fn fold_exact(&self, scratch: &[f64], mu: f64) -> (f64, f64, f64) {
        let (mut sum_z, mut sum_m, mut sum_2) = (0.0, 0.0, 0.0);
        for ((t, w), h) in scratch.iter().zip(&self.node_w).zip(&self.node_h) {
            // c4u-lint: allow(scalar-libm-in-hot-path, reason = "Exact-mode fold: QuadratureMath::Exact is contractually bit-pinned to scalar libm exp")
            let e = t.exp();
            let d = h - mu;
            sum_z += w * e;
            sum_m += w * (h * e);
            sum_2 += w * (d * d * e);
        }
        (sum_z, sum_m, sum_2)
    }

    /// The [`QuadratureMath::FastVector`] sweep of one member chunk,
    /// worker-major: every loop below runs across the chunk's member lanes
    /// with the same per-lane arithmetic, so a lane's result never depends
    /// on its neighbours.
    ///
    /// 1. The grid pass takes each member's `log_max` with the Gaussian
    ///    exponent expanded to `alpha·hc² + beta·hc + gamma` (`alpha =
    ///    −1/(2 sigma²)`, constants folded per member, `k` = `ln sigma +
    ///    ln √(2π)`): four fused multiply-adds and a compare-select per grid
    ///    point. A `NaN` term (an edge point's `0 · ln 0`) is skipped by the
    ///    `t > max` select, as the exact scan's `f64::max` skips it.
    /// 2. The fill pass stages the shifted log-integrand at every node in
    ///    `terms`, with the division-free form `u = (hc − mu)·(1/sigma)`,
    ///    and takes its maximum over the nodes, `node_max`.
    /// 3. The sum pass exponentiates each term relative to `node_max` with
    ///    [`vexp_scalar`] and adds the three weighted terms to the member's
    ///    sums in node order. Shifting by the node maximum keeps every term
    ///    that counts in the normal range even when every node lies far
    ///    below the grid peak (a narrow integrand), and a term below
    ///    `e^NEGLIGIBLE` of the largest is a zero: producing subnormal or
    ///    underflowing values costs a microcode assist per element on x86,
    ///    several times the rest of the sweep.
    fn sweep_fast(
        &self,
        inv_sigma: f64,
        k: f64,
        mu: &[f64; MEMBER_LANES],
        c: &[f64; MEMBER_LANES],
        x: &[f64; MEMBER_LANES],
        terms: &mut [[f64; MEMBER_LANES]],
    ) -> ChunkSums {
        let alpha = -0.5 * inv_sigma * inv_sigma;
        let mut beta = [0.0; MEMBER_LANES];
        let mut gamma = [0.0; MEMBER_LANES];
        for j in 0..MEMBER_LANES {
            beta[j] = -2.0 * alpha * mu[j];
            gamma[j] = alpha * mu[j] * mu[j] - k;
        }
        let mut log_max = [f64::NEG_INFINITY; MEMBER_LANES];
        for ((&hc, &lh), &l1h) in self.grid_hc.iter().zip(&self.grid_lh).zip(&self.grid_l1h) {
            for j in 0..MEMBER_LANES {
                let t = hc.mul_add(hc.mul_add(alpha, beta[j]), gamma[j]);
                let t = lh.mul_add(c[j], t);
                let t = l1h.mul_add(x[j], t);
                log_max[j] = if t > log_max[j] { t } else { log_max[j] };
            }
        }
        let mut shift = [0.0; MEMBER_LANES];
        for j in 0..MEMBER_LANES {
            shift[j] = k + log_max[j];
        }
        let mut node_max = [f64::NEG_INFINITY; MEMBER_LANES];
        let nodes = self.node_hc.iter().zip(&self.node_lh).zip(&self.node_l1h);
        for (t, ((&hc, &lh), &l1h)) in terms.iter_mut().zip(nodes) {
            for j in 0..MEMBER_LANES {
                let u = (hc - mu[j]) * inv_sigma;
                let v = x[j].mul_add(l1h, c[j] * lh) - u.mul_add(0.5 * u, shift[j]);
                node_max[j] = if v > node_max[j] { v } else { node_max[j] };
                t[j] = v;
            }
        }
        let mut sums = ChunkSums {
            log_max,
            node_max,
            z: [0.0; MEMBER_LANES],
            m: [0.0; MEMBER_LANES],
            s: [0.0; MEMBER_LANES],
        };
        for (t, (&w, &h)) in terms.iter().zip(self.node_w.iter().zip(&self.node_h)) {
            for j in 0..MEMBER_LANES {
                let r = t[j] - node_max[j];
                let e = w * vexp_scalar(r.max(NEGLIGIBLE));
                let e = if r < NEGLIGIBLE { 0.0 } else { e };
                let d = h - mu[j];
                sums.z[j] += e;
                sums.m[j] += h * e;
                sums.s[j] += d * d * e;
            }
        }
        sums
    }
    // c4u-lint: end-hot-path
}

/// Per-member peak shifts and node sums of one `FastVector` chunk: the
/// grid peak, the largest node term relative to it, and the sums relative
/// to that node term.
struct ChunkSums {
    log_max: [f64; MEMBER_LANES],
    node_max: [f64; MEMBER_LANES],
    z: [f64; MEMBER_LANES],
    m: [f64; MEMBER_LANES],
    s: [f64; MEMBER_LANES],
}

/// One chunk of a member column, its tail padded with `fill`.
fn padded(values: &[f64], fill: f64) -> [f64; MEMBER_LANES] {
    let mut lanes = [fill; MEMBER_LANES];
    lanes[..values.len()].copy_from_slice(values);
    lanes
}

/// The underflow fallback of one cell: `log Z = -inf`, the conditional
/// prior's mean (clamped to `[0, 1]`) and variance.
fn underflow(sigma: f64, mu: f64) -> BinomialNormalMoments {
    BinomialNormalMoments {
        log_z: f64::NEG_INFINITY,
        mean: mu.clamp(0.0, 1.0),
        second: sigma * sigma,
    }
}

/// One cell's moments from its peak shift and its three node sums, which
/// carry raw weights: the interval half-width is folded in here, as
/// `GaussLegendre::integrate` folds it into its final sum.
fn finish(sigma: f64, mu: f64, log_max: f64, sums: (f64, f64, f64)) -> BinomialNormalMoments {
    let (sum_z, sum_m, sum_2) = sums;
    let z = sum_z * HALF;
    if z <= 0.0 || !z.is_finite() {
        return underflow(sigma, mu);
    }
    BinomialNormalMoments {
        log_z: z.ln() + log_max,
        mean: sum_m * HALF / z,
        second: sum_2 * HALF / z,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial_normal::{binomial_normal_log_z, binomial_normal_moments};

    const CELLS: [(f64, f64, f64, f64); 8] = [
        (0.5, 0.15, 7.0, 3.0),
        (0.8, 0.05, 0.0, 0.0),
        (0.2, 0.3, 140.0, 2.0),
        (-0.5, 0.1, 5.0, 5.0),
        (0.99, 0.05, 100_000.0, 0.0),
        (0.01, 0.05, 0.0, 100_000.0),
        (0.5, 0.15, 500_000.0, 500_000.0),
        (0.7, 0.0, 4.0, 1.0), // sigma below the floor
    ];

    fn columns() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            CELLS.iter().map(|c| c.0).collect(),
            CELLS.iter().map(|c| c.2).collect(),
            CELLS.iter().map(|c| c.3).collect(),
        )
    }

    fn sweep(batch: &BinomialNormalBatch, sigma: f64) -> Vec<BinomialNormalMoments> {
        let (mu, c, x) = columns();
        let mut out = vec![BinomialNormalMoments::default(); mu.len()];
        batch.moments(sigma, &mu, &c, &x, &mut out);
        out
    }

    fn sweep_one(
        batch: &BinomialNormalBatch,
        mu: f64,
        sigma: f64,
        c: f64,
        x: f64,
    ) -> BinomialNormalMoments {
        let mut out = [BinomialNormalMoments::default()];
        batch.moments(sigma, &[mu], &[c], &[x], &mut out);
        out[0]
    }

    /// `E[(h − mu)²]` the scalar way: the integrand, shift and `integrate`
    /// calls of `binomial_normal_moments`, with `(h − mu)²` as the moment.
    fn scalar_second_moment(
        quadrature: &GaussLegendre,
        mu: f64,
        sigma: f64,
        c: f64,
        x: f64,
    ) -> f64 {
        let sigma = sigma.max(SIGMA_FLOOR);
        let log_integrand = |h: f64| {
            let h = h.clamp(1e-12, 1.0 - 1e-12);
            let z = (h - mu) / sigma;
            c * h.ln() + x * (1.0 - h).ln()
                - 0.5 * z * z
                - sigma.ln()
                - 0.5 * (2.0 * std::f64::consts::PI).ln()
        };
        let log_max = bracketing_points()
            .map(log_integrand)
            .fold(f64::NEG_INFINITY, f64::max);
        let z = quadrature.integrate(0.0, 1.0, |h| (log_integrand(h) - log_max).exp());
        if !log_max.is_finite() || z <= 0.0 || !z.is_finite() {
            return sigma * sigma;
        }
        let second = quadrature.integrate(0.0, 1.0, |h| {
            let d = h - mu;
            d * d * (log_integrand(h) - log_max).exp()
        });
        second / z
    }

    #[test]
    fn batched_moments_bit_identical_to_scalar() {
        for order in [2usize, 16, 32, 64] {
            let quadrature = GaussLegendre::new(order);
            let batch = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
            for sigma in [0.0, 0.02, 0.12, 0.3] {
                for (i, (out, &(mu, _, c, x))) in
                    sweep(&batch, sigma).iter().zip(&CELLS).enumerate()
                {
                    let (log_z, mean) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
                    assert_eq!(out.log_z, log_z, "order {order} sigma {sigma} cell {i}");
                    assert_eq!(out.mean, mean, "order {order} sigma {sigma} cell {i}");
                    assert_eq!(
                        out.log_z,
                        binomial_normal_log_z(&quadrature, mu, sigma, c, x),
                        "order {order} sigma {sigma} cell {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_second_moment_bit_identical_to_scalar_integral() {
        for order in [2usize, 16, 32, 64] {
            let quadrature = GaussLegendre::new(order);
            let batch = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
            for sigma in [0.0, 0.02, 0.12, 0.3] {
                for (i, (out, &(mu, _, c, x))) in
                    sweep(&batch, sigma).iter().zip(&CELLS).enumerate()
                {
                    assert_eq!(
                        out.second,
                        scalar_second_moment(&quadrature, mu, sigma, c, x),
                        "order {order} sigma {sigma} cell {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_variants_bit_identical_to_allocating_forms() {
        let quadrature = GaussLegendre::new(24);
        let batch = BinomialNormalBatch::new(&quadrature);
        let (mu, c, x) = columns();
        // One scratch reused across every call (and deliberately pre-grown by
        // a larger rule) must not change any result.
        let mut scratch = QuadratureScratch::new();
        let mut out = vec![BinomialNormalMoments::default(); mu.len()];
        BinomialNormalBatch::new(&GaussLegendre::new(48)).moments_with_scratch(
            0.2,
            &mu,
            &c,
            &x,
            &mut out,
            &mut scratch,
        );
        for sigma in [0.02, 0.12] {
            batch.moments_with_scratch(sigma, &mu, &c, &x, &mut out, &mut scratch);
            assert_eq!(out, sweep(&batch, sigma));
        }
    }

    /// FastVector is not bit-identical, but on well-scaled cells it must sit
    /// within ~1e-12 relative of the Exact path (the proptest suite widens
    /// this to random cells; this pins the deterministic hard cells).
    #[test]
    fn fast_vector_tracks_exact_within_tolerance() {
        for order in [2usize, 5, 16, 32, 64] {
            let quadrature = GaussLegendre::new(order);
            let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
            let fast = BinomialNormalBatch::new(&quadrature);
            assert_eq!(fast.math(), QuadratureMath::FastVector);
            for sigma in [0.02, 0.12, 0.3] {
                let (e, f) = (sweep(&exact, sigma), sweep(&fast, sigma));
                for (i, (e, f)) in e.iter().zip(&f).enumerate() {
                    if e.log_z == f64::NEG_INFINITY {
                        assert_eq!(f.log_z, f64::NEG_INFINITY, "order {order} cell {i}");
                        continue;
                    }
                    let tol = 1e-12 * (1.0 + e.log_z.abs());
                    assert!(
                        (e.log_z - f.log_z).abs() <= tol,
                        "order {order} sigma {sigma} cell {i}: {} vs {}",
                        e.log_z,
                        f.log_z
                    );
                    // Baseline tolerance plus the conditioning allowance:
                    // the fused fill carries a few ulps of the pre-shift
                    // magnitudes (~|log_z|), which the exponential turns
                    // into relative noise on every node term.
                    let moment_tol = 1e-12 + 64.0 * f64::EPSILON * (1.0 + e.log_z.abs());
                    assert!(
                        (e.mean - f.mean).abs() <= moment_tol,
                        "order {order} sigma {sigma} cell {i}: mean {} vs {}",
                        e.mean,
                        f.mean
                    );
                    assert!(
                        (e.second - f.second).abs() <= moment_tol,
                        "order {order} sigma {sigma} cell {i}: second {} vs {}",
                        e.second,
                        f.second
                    );
                }
            }
        }
    }

    #[test]
    fn underflow_fallbacks_match_scalar() {
        let quadrature = GaussLegendre::new(32);
        let batch = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        // Counts so large that the integrand's mass lies entirely between
        // quadrature nodes: the normaliser underflows to zero.
        let (mu, sigma, c, x) = (0.5, 0.15, 500_000.0, 500_000.0);
        let mut out = [BinomialNormalMoments::default()];
        batch.moments(sigma, &[mu], &[c], &[x], &mut out);
        let (log_z, mean) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
        assert_eq!(out[0].log_z, log_z);
        assert_eq!(out[0].mean, mean);
        assert_eq!(
            out[0],
            BinomialNormalMoments {
                log_z: f64::NEG_INFINITY,
                mean: 0.5, // mu.clamp(0, 1)
                second: sigma * sigma,
            }
        );
    }

    #[test]
    fn fast_vector_falls_back_where_exact_does() {
        // Both ends of the `Exact` shifted mass: a grid peak far above every
        // node (the mass rounds to zero) and a node far above the grid peak
        // (a conditional narrower than the grid spacing, centred on a node:
        // the mass overflows).
        let quadrature = GaussLegendre::new(32);
        let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        let fast = BinomialNormalBatch::new(&quadrature);
        let node = exact.node_h[9];
        for (mu, sigma, c, x) in [(0.5, 0.15, 500_000.0, 500_000.0), (node, 2e-5, 0.0, 0.0)] {
            let e = sweep_one(&exact, mu, sigma, c, x);
            assert_eq!(e, underflow(sigma, mu), "exact at mu {mu}");
            assert_eq!(sweep_one(&fast, mu, sigma, c, x), e, "fast at mu {mu}");
        }
    }

    #[test]
    fn counters_tick_per_call_not_per_worker() {
        let quadrature = GaussLegendre::new(16);
        let batch = BinomialNormalBatch::new(&quadrature);
        let sweeps = batched_quadrature_sweeps();
        let scalar = scalar_quadrature_evaluations();
        let mu = [0.5; 100];
        let c = [3.0; 100];
        let x = [2.0; 100];
        let mut out = [BinomialNormalMoments::default(); 100];
        batch.moments(0.1, &mu, &c, &x, &mut out);
        batch.moments(0.1, &mu, &c, &x, &mut out);
        assert_eq!(batched_quadrature_sweeps() - sweeps, 2);
        assert_eq!(scalar_quadrature_evaluations() - scalar, 0);
        binomial_normal_moments(&quadrature, 0.5, 0.1, 3.0, 2.0);
        binomial_normal_log_z(&quadrature, 0.5, 0.1, 3.0, 2.0);
        assert_eq!(scalar_quadrature_evaluations() - scalar, 2);
        assert_eq!(batched_quadrature_sweeps() - sweeps, 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let quadrature = GaussLegendre::new(8);
        let batch = BinomialNormalBatch::new(&quadrature);
        let mut out = [BinomialNormalMoments::default(); 1];
        batch.moments(0.1, &[0.5], &[1.0, 2.0], &[1.0], &mut out);
    }

    #[test]
    #[should_panic]
    fn mismatched_out_length_panics() {
        let quadrature = GaussLegendre::new(8);
        let batch = BinomialNormalBatch::new(&quadrature);
        let mut out = [BinomialNormalMoments::default(); 2];
        batch.moments(0.1, &[0.5], &[1.0], &[1.0], &mut out);
    }

    #[test]
    fn accessors_reflect_the_construction() {
        let quadrature = GaussLegendre::new(12);
        let batch = BinomialNormalBatch::new(&quadrature);
        assert_eq!(batch.num_nodes(), 12);
        assert_eq!(batch.math(), QuadratureMath::default());
        assert_eq!(QuadratureMath::default(), QuadratureMath::FastVector);
        let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        assert_eq!(exact.math(), QuadratureMath::Exact);
        // An empty batch is a valid (no-op) sweep in both modes.
        batch.moments(0.1, &[], &[], &[], &mut []);
        exact.moments(0.1, &[], &[], &[], &mut []);
    }
}
