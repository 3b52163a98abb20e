//! Batched structure-of-arrays evaluation of the binomial×normal integrals.
//!
//! The CPE E-step — and with it the Eq. 5 likelihood and the Eq. 8
//! prediction — integrates the same integrand
//! `h^C (1-h)^X N(h; mu, sigma^2)` for every worker of a mask group, over the
//! *same* Gauss–Legendre nodes and with the *same* conditional `sigma`. The
//! scalar functions in [`crate::binomial_normal`] recompute the node
//! logarithms `ln h` / `ln(1-h)` and the peak-bracketing grid once per
//! worker; [`BinomialNormalBatch`] tabulates them once per rule into flat
//! contiguous buffers and then sweeps a whole `(mu, c, x)` batch over them in
//! node-major inner loops.
//!
//! There is one sweep, [`BinomialNormalBatch::moments`]. Per worker its fold
//! accumulates three sums over the shifted integrand `e`: the normaliser
//! `Σ w·e`, the first moment `Σ w·h·e` and the second moment about the
//! conditional mean `Σ w·(h − mu)²·e`. It returns `log Z`, `E[h]` (the Eq. 8
//! posterior mean) and `E[(h − mu)²]`, from which the E-step reads the
//! posterior variance directly.
//!
//! Per worker the `Exact` sweep is two passes over the node tables:
//!
//! 1. the shifted log-integrand values land in a contiguous scratch buffer —
//!    a pure mul/add loop over `node_lh`/`node_l1h`/`node_hc` that the
//!    autovectoriser turns into f64 lanes;
//! 2. exponentiation and accumulation fold the scratch buffer into the three
//!    sums.
//!
//! The `FastVector` sweep fuses the two passes: each [`VEXP_LANES`]-wide node
//! chunk is filled, exponentiated, and accumulated while still in registers
//! and a stack staging buffer, skipping the scratch round-trip entirely.
//!
//! # Math modes
//!
//! The fold pass runs under one of two [`QuadratureMath`] contracts, fixed at
//! construction:
//!
//! * [`QuadratureMath::Exact`] (the default) exponentiates with libm's
//!   `f64::exp` in node order, preserving the exact summation order of
//!   [`GaussLegendre::integrate`]. Every arithmetic expression replicates the
//!   scalar path operation for operation (same clamp, same subtraction order,
//!   same fold of the interval half-width into the final sum), so `log Z`
//!   and `E[h]` are **bit-identical** to
//!   [`binomial_normal_moments`](crate::binomial_normal_moments) /
//!   [`binomial_normal_log_z`](crate::binomial_normal_log_z), and the second
//!   moment is bit-identical to the same `integrate` call over
//!   `(h − mu)² · e` — the scalar forms remain the pinned cross-check oracle,
//!   enforced by the equivalence and property suites rather than by an
//!   epsilon.
//! * [`QuadratureMath::FastVector`] replaces the per-node division with a
//!   reciprocal multiply and fused multiply-adds, exponentiates with the
//!   lane-chunked polynomial [`vexp`] (≤2 ULP per element, see
//!   [`crate::vmath`]), and accumulates in chunk-wide partial sums, which
//!   breaks the serial add chain so the autovectoriser can keep the whole
//!   fused sweep in packed lanes. The accumulation is still deterministic (a
//!   fixed chunking, not threads), but it is **not** bit-identical to the
//!   scalar oracle — the contract is tolerance-based instead: per-cell
//!   `log_z`/moments within ~1e-12 relative of the `Exact` path on
//!   well-scaled cells, pinned by property tests at this layer and
//!   selection-equivalence tests at the estimator layer. Rules shorter than
//!   the fold lanes simply take the remainder path — results are
//!   position-independent either way.
//!
//! The peak-bracketing `log_max` grid scan is chunked into lane-wide max
//! accumulators in both modes (floating-point `max` is insensitive to fold
//! order for the non-`NaN` values the grid produces), but its *arithmetic*
//! splits by mode: `Exact` evaluates every grid term with the oracle's
//! `/ sigma` division so the scan stays bit-identical, while `FastVector`
//! expands the Gaussian exponent to a division-free quadratic in `hc` (see
//! `grid_max_approx`). The approximate peak only shifts the integrand before
//! the exponential and is added back through `log_z`, so the perturbation
//! cancels out of every returned quantity up to ordinary rounding — well
//! inside the `FastVector` tolerance contract.
//!
//! The module also owns the thread-local diagnostic counters that let tests pin
//! the batching contract: an E-step, a likelihood evaluation or a
//! `predict_batch` pass must cost `O(unique_masks)` batched sweeps, not
//! `O(workers)` scalar evaluations (mirroring the conditioning-factorisation
//! counter in [`crate::mvn`]).
//!
//! ```
//! use c4u_stats::{binomial_normal_moments, BinomialNormalBatch, BinomialNormalMoments, GaussLegendre};
//!
//! let quadrature = GaussLegendre::new(32);
//! let batch = BinomialNormalBatch::new(&quadrature);
//!
//! // One mask group: three workers sharing a conditional sigma.
//! let sigma = 0.12;
//! let mu = [0.55, 0.7, 0.3];
//! let c = [7.0, 0.0, 2.0];
//! let x = [3.0, 0.0, 8.0];
//! let mut out = [BinomialNormalMoments::default(); 3];
//! batch.moments(sigma, &mu, &c, &x, &mut out);
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
//! ```

use crate::binomial_normal::{bracketing_points, SIGMA_FLOOR};
use crate::integrate::GaussLegendre;
use crate::vmath::{vexp, vexp_scalar, VEXP_LANES};
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

/// Arithmetic contract of the batched fold passes — see the
/// [`BinomialNormalBatch`] docs for the full accuracy contract of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuadratureMath {
    /// libm `f64::exp` in the scalar summation order: bit-identical to the
    /// scalar oracle functions. The pinned default.
    #[default]
    Exact,
    /// Fused register-resident sweeps over [`VEXP_LANES`]-wide node chunks —
    /// division-free fill arithmetic, the lane-chunked polynomial
    /// [`vexp`], and chunk-wide partial-sum accumulation in one
    /// pass: deterministic, but validated by tolerance (~1e-12 relative per
    /// cell) rather than bit equality.
    FastVector,
}

/// Width of the partial-sum / max-reduce accumulators in the `Exact`-mode
/// fold passes. Rules (or the bracketing grid tail) shorter than this fall
/// back to the scalar remainder path, which computes identical per-element
/// values. (The `FastVector` sweeps chunk by [`VEXP_LANES`] instead.)
const FOLD_LANES: usize = 4;

/// Reusable scratch for the batched sweep.
///
/// The `Exact`-mode per-worker passes need one `num_nodes`-sized buffer for
/// the shifted log-integrand; [`BinomialNormalBatch::moments_with_scratch`]
/// borrows it from here instead of allocating per call, so a caller that
/// loops over mask groups and epochs performs **zero** heap allocations in
/// the sweep (the `FastVector` sweep stages through a fixed stack buffer and
/// never touches it). The buffer only ever grows; sharing one scratch across batches
/// of different rule sizes is fine.
#[derive(Debug, Clone, Default)]
pub struct QuadratureScratch {
    buf: Vec<f64>,
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
}

/// Structure-of-arrays tables for batched binomial×normal quadrature over one
/// [`GaussLegendre`] rule on `[0, 1]`.
///
/// Built once per rule (cheap: one `ln` pair per node and grid point) and
/// reused for every mask group and every model evaluation. All buffers are
/// flat and contiguous; the per-worker inner loops index them node-major.
/// The fold arithmetic is fixed at construction by [`QuadratureMath`]
/// ([`new`](Self::new) pins the bit-identical `Exact` mode).
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
    /// `bracketing_points()` order so the `log_max` fold visits grid points in
    /// the scalar order — padded to a multiple of [`VEXP_LANES`] by repeating
    /// the last point (a no-op under `max`) so the scans have no scalar tail.
    grid_hc: Vec<f64>,
    grid_lh: Vec<f64>,
    grid_l1h: Vec<f64>,
    /// Fold arithmetic contract, fixed at construction.
    math: QuadratureMath,
}

/// Interval half-width and midpoint of `[0, 1]` — written as the same
/// expressions `GaussLegendre::integrate` evaluates so the mapped nodes and
/// the final scaling carry identical bits.
const HALF: f64 = 0.5 * (1.0 - 0.0);
const MID: f64 = 0.5 * (0.0 + 1.0);

impl BinomialNormalBatch {
    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]`, in the pinned
    /// bit-identical [`QuadratureMath::Exact`] mode.
    pub fn new(quadrature: &GaussLegendre) -> Self {
        Self::new_with_math(quadrature, QuadratureMath::Exact)
    }

    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]` with an explicit
    /// fold-arithmetic contract.
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
        // Pad the grid tables to a whole number of scan chunks by repeating
        // the last grid point. A `max` fold over duplicates of an element it
        // already visits returns the identical value in both math modes, and
        // the padding lets the per-worker `log_max` scans run lane chunks
        // only — no serial scalar-remainder dependency chain at the tail.
        while !grid_hc.len().is_multiple_of(VEXP_LANES) {
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_hc.push(*grid_hc.last().expect("bracketing grid is non-empty"));
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_lh.push(*grid_lh.last().expect("bracketing grid is non-empty"));
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_l1h.push(*grid_l1h.last().expect("bracketing grid is non-empty"));
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

    /// Number of quadrature nodes in the tables (always at least 2; rules
    /// shorter than the chunk widths run entirely on the scalar remainder
    /// paths, with identical per-element arithmetic).
    pub fn num_nodes(&self) -> usize {
        self.node_h.len()
    }

    /// The fold-arithmetic contract this batch was built with.
    pub fn math(&self) -> QuadratureMath {
        self.math
    }

    /// `(log Z, E[h], E[(h − mu)²])` of Eq. 5/8 for a whole shared-`sigma`
    /// batch: one sweep over the node tables per worker, one counter tick for
    /// the whole call.
    ///
    /// `mu`, `c`, `x` and `out` must have equal lengths. In
    /// [`QuadratureMath::Exact`] mode `log_z` and `mean` are bit-identical to
    /// [`binomial_normal_moments`](crate::binomial_normal_moments) at the same
    /// `(mu, sigma, c, x)`, including the underflow fallback
    /// `(NEG_INFINITY, mu.clamp(0, 1))`, and `second` is the integral of
    /// `(h − mu)²` times the integrand over the same nodes and shift,
    /// divided by the same `Z`.
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
        let scratch = scratch.nodes(self.num_nodes());
        for (i, out) in out.iter_mut().enumerate() {
            let (mu_i, c_i, x_i) = (mu[i], c[i], x[i]);
            let underflow = BinomialNormalMoments {
                log_z: f64::NEG_INFINITY,
                mean: mu_i.clamp(0.0, 1.0),
                second: sigma * sigma,
            };
            let log_max = self.log_max(sigma, ln_sigma, half_ln_2pi, mu_i, c_i, x_i);
            if !log_max.is_finite() {
                *out = underflow;
                continue;
            }
            // The scalar path runs the normaliser and the moment as two
            // independent `integrate` calls over the same integrand values;
            // one fused node-order pass reproduces both sums bit for bit
            // because each accumulator sees the same terms in the same order.
            let (sum_z, sum_m, sum_2) = match self.math {
                QuadratureMath::Exact => {
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
                    self.fold_exact(scratch, mu_i)
                }
                QuadratureMath::FastVector => self.sweep_fast(
                    1.0 / sigma,
                    ln_sigma + half_ln_2pi + log_max,
                    mu_i,
                    c_i,
                    x_i,
                ),
            };
            let z = sum_z * HALF;
            *out = if z <= 0.0 || !z.is_finite() {
                underflow
            } else {
                BinomialNormalMoments {
                    log_z: z.ln() + log_max,
                    mean: sum_m * HALF / z,
                    second: sum_2 * HALF / z,
                }
            };
        }
    }

    /// The peak-bracketing grid's log-integrand maximum for one cell — the
    /// stable-exponentiation shift every evaluation path (scalar and batched)
    /// normalises by before exponentiating.
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

    /// `log_max` over the peak-bracketing grid (`- ln_sigma - half_ln_2pi`,
    /// matching the scalar closure's subtraction order bit for bit in
    /// [`QuadratureMath::Exact`] mode).
    fn log_max(&self, sigma: f64, ln_sigma: f64, half_ln_2pi: f64, mu: f64, c: f64, x: f64) -> f64 {
        match self.math {
            QuadratureMath::Exact => self.grid_max(|hc, lh, l1h| {
                let z = (hc - mu) / sigma;
                c * lh + x * l1h - 0.5 * z * z - ln_sigma - half_ln_2pi
            }),
            QuadratureMath::FastVector => {
                self.grid_max_approx(mu, c, x, 1.0 / sigma, ln_sigma + half_ln_2pi)
            }
        }
    }

    /// Division-free `log_max` of the [`QuadratureMath::FastVector`] path:
    /// the Gaussian exponent is expanded to the quadratic
    /// `alpha·hc² + beta·hc + gamma` (`alpha = −1/(2 sigma²)`, constants
    /// folded per worker), so every grid point costs four fused
    /// multiply-adds and a compare — no division, no `f64::max` libcall —
    /// in one 8-lane chunked max pass.
    ///
    /// Expanding the square trades the exact form's `~2^-48` relative error
    /// for a cancellation-amplified **absolute** error of order
    /// `eps · |alpha|` (≲1e-4 at the `SIGMA_FLOOR` extreme). That is fine
    /// *here* — and only here — because the stabilisation peak **cancels
    /// mathematically** in everything the sweeps return: `log Z` adds the
    /// same `log_max` it subtracted inside the exponent, and the
    /// moment outputs are ratios of sums that scale by the
    /// identical `exp(-log_max)`. Any finite shift within the exp
    /// over/underflow budget (~±700 nats of the true peak) produces the same
    /// results up to ordinary rounding, well inside the FastVector ~1e-12
    /// tolerance contract (only a cell balanced on the absolute underflow
    /// cutoff could flip its `NEG_INFINITY` fallback, which that contract
    /// already treats as a boundary). The per-node *fill* arithmetic must
    /// NOT use this expansion — its errors do not cancel.
    ///
    /// `NaN` grid terms (an edge point's `0 · ln 0`) are skipped by the
    /// `t > a` compare-select exactly as the exact scan's `f64::max` skips
    /// them, and a non-finite result still falls back the same way: the
    /// caller replaces the whole cell with the underflow value.
    ///
    /// Marked `#[inline]` for the same reason as [`vexp`]: one call per
    /// worker from the hot batch loops, where the call boundary would spill
    /// the loop's live vector registers.
    // c4u-lint: hot-path
    #[inline]
    fn grid_max_approx(&self, mu: f64, c: f64, x: f64, inv_sigma: f64, k: f64) -> f64 {
        let alpha = -0.5 * inv_sigma * inv_sigma;
        let beta = -2.0 * alpha * mu;
        let gamma = alpha * mu * mu - k;
        let mut acc = [f64::NEG_INFINITY; VEXP_LANES];
        let mut hc_it = self.grid_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.grid_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.grid_l1h.chunks_exact(VEXP_LANES);
        for ((hc, lh), l1h) in (&mut hc_it).zip(&mut lh_it).zip(&mut l1h_it) {
            for (a, ((&hc, &lh), &l1h)) in acc.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let t = hc.mul_add(hc.mul_add(alpha, beta), gamma);
                let t = lh.mul_add(c, t);
                let t = l1h.mul_add(x, t);
                *a = if t > *a { t } else { *a };
            }
        }
        for ((&hc, &lh), &l1h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
        {
            let t = hc.mul_add(hc.mul_add(alpha, beta), gamma);
            let t = lh.mul_add(c, t);
            let t = l1h.mul_add(x, t);
            acc[0] = if t > acc[0] { t } else { acc[0] };
        }
        acc.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Chunked max-reduce of `term` over the bracketing-grid tables: 4-lane
    /// max accumulators over the chunks, scalar tail, lanes folded at the
    /// end. Bit-identical to a sequential scan for every fold order —
    /// floating-point `max` is commutative and associative on the non-`NaN`
    /// values the grid produces (and an all-`-inf` scan still yields
    /// `-inf`) — while letting the autovectoriser keep the grid scan in
    /// packed lanes. The [`QuadratureMath::Exact`] grid path.
    fn grid_max(&self, term: impl Fn(f64, f64, f64) -> f64) -> f64 {
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
    /// for bit. The `FastVector` sweep never stages through `scratch` — see
    /// [`sweep_fast`](Self::sweep_fast).
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

    /// Pairwise tree reduction of a lane accumulator: `log2(LANES)` rounds of
    /// halving instead of a serial left fold. The serial fold is a
    /// latency-chained `LANES - 1` additions (~4 cycles each) per worker; the
    /// tree is `log2(LANES)` dependent rounds. Fast-sweep accumulators only —
    /// the Exact fold keeps the pinned node-order serial sum.
    #[inline]
    fn hsum_lanes(mut acc: [f64; VEXP_LANES]) -> f64 {
        const { assert!(VEXP_LANES.is_power_of_two()) };
        let mut half = VEXP_LANES / 2;
        while half >= 1 {
            for i in 0..half {
                acc[i] += acc[i + half];
            }
            half /= 2;
        }
        acc[0]
    }

    /// Exact-mode fold of the three sums `Σ w·e`, `Σ w·h·e` and
    /// `Σ w·(h − mu)²·e`: libm `exp`, node-order serial sums, each in the
    /// summation order of `GaussLegendre::integrate`, bit for bit.
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

    /// FastVector sweep: fill, exponentiate, and accumulate one
    /// [`VEXP_LANES`]-wide node chunk at a time, entirely in registers and a
    /// stack staging buffer — no scratch round-trip. The per-node arithmetic
    /// is the division-free fill form (`u = (hc − mu)·(1/sigma)`, constants
    /// folded per worker into `k`) followed by [`vexp`] on the staged chunk;
    /// the remainder (and any rule shorter than one chunk) runs the
    /// identical [`vexp_scalar`] math, so results stay position-independent.
    /// The three sums of [`fold_exact`](Self::fold_exact) accumulate in
    /// chunk-wide partial sums.
    fn sweep_fast(&self, inv_sigma: f64, k: f64, mu: f64, c: f64, x: f64) -> (f64, f64, f64) {
        let mut acc_z = [0.0f64; VEXP_LANES];
        let mut acc_m = [0.0f64; VEXP_LANES];
        let mut acc_2 = [0.0f64; VEXP_LANES];
        let mut buf = [0.0f64; VEXP_LANES];
        let mut hc_it = self.node_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.node_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.node_l1h.chunks_exact(VEXP_LANES);
        let mut w_it = self.node_w.chunks_exact(VEXP_LANES);
        let mut h_it = self.node_h.chunks_exact(VEXP_LANES);
        for ((((hc, lh), l1h), w), h) in (&mut hc_it)
            .zip(&mut lh_it)
            .zip(&mut l1h_it)
            .zip(&mut w_it)
            .zip(&mut h_it)
        {
            for (b, ((&hc, &lh), &l1h)) in buf.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let u = (hc - mu) * inv_sigma;
                *b = x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k);
            }
            vexp(&mut buf);
            // Fixed-size chunk views: `[f64; VEXP_LANES]` (rather than
            // length-8 slices) is the shape LLVM widens into clean packed
            // multiply-adds across the chunk instead of pairing the
            // accumulators per node into element shuffles.
            // c4u-lint: allow(no-unwrap-in-lib, reason = "chunks_exact yields slices of exactly the requested width")
            let w: &[f64; VEXP_LANES] = w.try_into().expect("chunks_exact width");
            // c4u-lint: allow(no-unwrap-in-lib, reason = "chunks_exact yields slices of exactly the requested width")
            let h: &[f64; VEXP_LANES] = h.try_into().expect("chunks_exact width");
            for j in 0..VEXP_LANES {
                buf[j] *= w[j];
            }
            for j in 0..VEXP_LANES {
                acc_z[j] += buf[j];
            }
            for j in 0..VEXP_LANES {
                acc_m[j] += h[j] * buf[j];
            }
            for j in 0..VEXP_LANES {
                let d = h[j] - mu;
                acc_2[j] += d * d * buf[j];
            }
        }
        for ((((&hc, &lh), &l1h), &w), &h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
            .zip(w_it.remainder())
            .zip(h_it.remainder())
        {
            let u = (hc - mu) * inv_sigma;
            let e = w * vexp_scalar(x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k));
            let d = h - mu;
            acc_z[0] += e;
            acc_m[0] += h * e;
            acc_2[0] += d * d * e;
        }
        (
            Self::hsum_lanes(acc_z),
            Self::hsum_lanes(acc_m),
            Self::hsum_lanes(acc_2),
        )
    }
    // c4u-lint: end-hot-path
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
            let batch = BinomialNormalBatch::new(&quadrature);
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
            let batch = BinomialNormalBatch::new(&quadrature);
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
            let exact = BinomialNormalBatch::new(&quadrature);
            let fast = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::FastVector);
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
        let batch = BinomialNormalBatch::new(&quadrature);
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
        let fast = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::FastVector);
        assert_eq!(fast.math(), QuadratureMath::FastVector);
        // An empty batch is a valid (no-op) sweep.
        batch.moments(0.1, &[], &[], &[], &mut []);
    }
}
