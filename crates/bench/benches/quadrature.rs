//! Roofline-style micro-benchmark of the batched SoA quadrature kernel.
//!
//! Sweeps mask-group sizes (`workers`) against Gauss–Legendre orders
//! (`nodes`) and sweep math modes and, for every cell, times one batched
//! [`BinomialNormalBatch::moments`] sweep against the equivalent per-worker
//! scalar [`binomial_normal_moments`] loop — the exact pair of paths the CPE
//! hot paths switched between. The scalar loop is timed **once** per
//! `(nodes, workers)` point and shared by both math modes, so the speedup
//! columns stay comparable. Reported per cell:
//!
//! * median wall-clock of each path (self-timed; medians are robust to
//!   scheduling noise),
//! * batched **ns per worker-node** — the roofline quantity: the fill
//!   arithmetic plus one `exp` per worker-node,
//! * **effective GB/s** of the batched sweep under the traffic model
//!   documented on [`Cell::effective_gb_per_s`],
//! * the **speedup** over the scalar loop (the scalar path re-derives every
//!   per-node logarithm per worker; the batched sweep streams shared tables).
//!
//! The report is printed only; the end-to-end benchmark (`perfbench/`) times
//! this layer in place. Correctness gates before any timing: the `exact`
//! sweep's `log Z` and `E[h]` must agree with the scalar oracle **bit for
//! bit**, and its second moment with the same scalar `integrate` calls over
//! `(h − mu)²` (see [`scalar_second_moment`]); the `fast_vector` sweep must
//! track the exact sweep within its documented ~1e-12 relative contract on
//! this group.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench quadrature
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `C4U_QUAD_WORKERS` — comma-separated group sizes (default
//!   `1000,10000,100000,1000000`);
//! * `C4U_QUAD_NODES` — comma-separated quadrature orders (default
//!   `16,32,64`);
//! * `C4U_QUAD_SAMPLES` — timing samples per cell (default 7; the median is
//!   reported);
//! * `C4U_QUAD_MATH` — `exact`, `fast_vector`, or `both` (default both).

use c4u_bench::{env::C4uEnv, quad_math_modes};
use c4u_stats::{
    binomial_normal_moments, BinomialNormalBatch, BinomialNormalMoments, GaussLegendre,
    QuadratureMath, QuadratureScratch,
};
use std::time::Instant;

/// One `(workers, nodes)` cell of the sweep: median wall-clock of the batched
/// structure-of-arrays sweep and of the equivalent per-worker scalar loop.
struct Cell {
    workers: usize,
    nodes: usize,
    batched_median_ns: f64,
    scalar_median_ns: f64,
}

impl Cell {
    /// Batched nanoseconds per worker-node — the roofline quantity.
    fn ns_per_worker_node(&self) -> f64 {
        self.batched_median_ns / (self.workers * self.nodes) as f64
    }

    /// Scalar over batched wall-clock: the throughput multiple the SoA layout
    /// buys on this cell.
    fn speedup(&self) -> f64 {
        self.scalar_median_ns / self.batched_median_ns
    }

    /// Effective streamed bandwidth of the batched sweep in GB/s, under the
    /// traffic model `workers x (5 x nodes + 6) x 8` bytes per call: per
    /// worker the kernel streams four node tables (`h`, clamped `h`, `ln h`,
    /// `ln(1-h)`) plus the scratch buffer (written then read, counted once),
    /// and about six scalars of per-worker data (`mu`, `c`, `x`, and the three
    /// outputs). An upper bound on useful traffic, so the number is a
    /// roofline *floor*: reaching a given fraction of memory bandwidth proves
    /// at least that much of the sweep is streaming, not stalling.
    fn effective_gb_per_s(&self) -> f64 {
        let bytes = (self.workers * (5 * self.nodes + 6) * 8) as f64;
        bytes / self.batched_median_ns
    }
}

/// Label of a math mode in the printed table.
fn math_tag(math: QuadratureMath) -> &'static str {
    match math {
        QuadratureMath::Exact => "exact",
        QuadratureMath::FastVector => "fast_vector",
    }
}

/// Deterministic per-worker cells shaped like a CPE mask group: conditional
/// means spread across the accuracy range, modest answer counts.
fn make_group(workers: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut mu = Vec::with_capacity(workers);
    let mut c = Vec::with_capacity(workers);
    let mut x = Vec::with_capacity(workers);
    for w in 0..workers {
        mu.push(0.15 + 0.7 * (w as f64 / workers.max(1) as f64));
        let correct = (2 + (w * 7) % 8) as f64;
        c.push(correct);
        x.push(10.0 - correct);
    }
    (mu, c, x)
}

/// `E[(h − mu)²]` the scalar way, the test-side oracle of the sweep's second
/// moment: the integrand and `integrate` calls of `binomial_normal_moments`,
/// shifted by the batch's (bit-identical) grid peak, with `(h − mu)²` as the
/// moment, in the fold's operation order.
fn scalar_second_moment(quadrature: &GaussLegendre, peak: f64, mu: f64, c: f64, x: f64) -> f64 {
    let log_integrand = |h: f64| {
        let h = h.clamp(1e-12, 1.0 - 1e-12);
        let z = (h - mu) / SIGMA;
        c * h.ln() + x * (1.0 - h).ln()
            - 0.5 * z * z
            - SIGMA.ln()
            - 0.5 * (2.0 * std::f64::consts::PI).ln()
    };
    let z = quadrature.integrate(0.0, 1.0, |h| (log_integrand(h) - peak).exp());
    let second = quadrature.integrate(0.0, 1.0, |h| {
        let d = h - mu;
        d * d * (log_integrand(h) - peak).exp()
    });
    second / z
}

/// Median of a sample vector (sorted in place).
fn median_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

const SIGMA: f64 = 0.12;

fn main() {
    // One typed snapshot covers every knob; misspelled C4U_* names warn here.
    let env = C4uEnv::from_env();
    let workers_sweep = env.quad_workers;
    let nodes_sweep = env.quad_nodes;
    let samples = env.quad_samples;
    let maths = quad_math_modes();

    println!("Batched SoA quadrature sweep vs per-worker scalar loop");
    println!("(sigma = {SIGMA}, {samples} samples per cell, medians reported)\n");
    println!(
        "  {:>8} {:>6} {:>12} {:>14} {:>14} {:>12} {:>10} {:>8}",
        "workers", "nodes", "math", "batched ns", "scalar ns", "ns/(w*n)", "eff GB/s", "speedup"
    );

    for &nodes in &nodes_sweep {
        let quadrature = GaussLegendre::new(nodes);
        let exact = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::Exact);
        for &workers in &workers_sweep {
            let (mu, c, x) = make_group(workers);
            let mut out = vec![BinomialNormalMoments::default(); workers];
            let mut scratch = QuadratureScratch::new();

            // Correctness gate before any timing: the exact batched sweep
            // must be bit-identical to the scalar oracle on this group.
            exact.moments_with_scratch(SIGMA, &mu, &c, &x, &mut out, &mut scratch);
            for (w, out) in out.iter().enumerate() {
                let (scalar_log_z, scalar_mean) =
                    binomial_normal_moments(&quadrature, mu[w], SIGMA, c[w], x[w]);
                assert_eq!(out.log_z, scalar_log_z, "log Z drift at worker {w}");
                assert_eq!(out.mean, scalar_mean, "posterior-mean drift at worker {w}");
                let peak = exact.log_integrand_peak(SIGMA, mu[w], c[w], x[w]);
                assert_eq!(
                    out.second,
                    scalar_second_moment(&quadrature, peak, mu[w], c[w], x[w]),
                    "second-moment drift at worker {w}"
                );
            }
            let exact_out = out.clone();

            // The scalar loop is math-independent: time it once per
            // (nodes, workers) point and share the median across modes.
            let mut scalar_ns = Vec::with_capacity(samples);
            for _ in 0..samples {
                let start = Instant::now();
                for (w, out) in out.iter_mut().enumerate() {
                    let (lz, m) = binomial_normal_moments(&quadrature, mu[w], SIGMA, c[w], x[w]);
                    out.log_z = lz;
                    out.mean = m;
                }
                scalar_ns.push(start.elapsed().as_nanos() as f64);
            }
            let scalar_median_ns = median_ns(&mut scalar_ns);

            for &math in &maths {
                let batch = BinomialNormalBatch::new_with_math(&quadrature, math);
                batch.moments_with_scratch(SIGMA, &mu, &c, &x, &mut out, &mut scratch);
                if math == QuadratureMath::Exact {
                    // Already gated bitwise above; this sweep just re-warms.
                } else {
                    // FastVector correctness gate: within the documented
                    // ~1e-12 relative contract of the Exact path (these cells
                    // are all well-scaled — bounded counts, interior means).
                    for (w, (f, e)) in out.iter().zip(&exact_out).enumerate() {
                        let tol = 1e-11 * (1.0 + e.log_z.abs());
                        assert!(
                            (f.log_z - e.log_z).abs() <= tol,
                            "log Z drift beyond contract at worker {w}: {} vs {}",
                            f.log_z,
                            e.log_z
                        );
                        assert!(
                            (f.mean - e.mean).abs() <= 1e-11,
                            "posterior-mean drift beyond contract at worker {w}"
                        );
                        assert!(
                            (f.second - e.second).abs() <= 1e-11,
                            "second-moment drift beyond contract at worker {w}"
                        );
                    }
                }

                let mut batched_ns = Vec::with_capacity(samples);
                for _ in 0..samples {
                    let start = Instant::now();
                    batch.moments_with_scratch(SIGMA, &mu, &c, &x, &mut out, &mut scratch);
                    batched_ns.push(start.elapsed().as_nanos() as f64);
                }

                let cell = Cell {
                    workers,
                    nodes,
                    batched_median_ns: median_ns(&mut batched_ns),
                    scalar_median_ns,
                };
                println!(
                    "  {:>8} {:>6} {:>12} {:>14.0} {:>14.0} {:>12.2} {:>10.2} {:>7.1}x",
                    cell.workers,
                    cell.nodes,
                    math_tag(math),
                    cell.batched_median_ns,
                    cell.scalar_median_ns,
                    cell.ns_per_worker_node(),
                    cell.effective_gb_per_s(),
                    cell.speedup()
                );
            }
        }
    }
}
