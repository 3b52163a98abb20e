//! Multivariate normal distribution over worker accuracy vectors.
//!
//! The paper models each worker's per-domain annotation accuracy as a
//! `(D+1)`-dimensional random vector `v_i = [h_{i,1}, ..., h_{i,D}, h_{i,T}]^T` drawn
//! from `N(mu, Sigma)` (Eq. 1–2). The covariance is parameterised by per-domain
//! standard deviations `sigma_d` and pairwise correlations `rho_{i,j}`. This module
//! implements:
//!
//! * construction either from a raw covariance or from `(sigma, rho)` parameters;
//! * sampling (via Cholesky);
//! * truncated-box sampling (accuracies live in `(0, 1)` — Sec. V-A);
//! * conditioning on a subset of coordinates (the `mu_bar` / `Sigma_bar` of Eq. 5),
//!   which is the primitive the CPE estimator uses to predict the target-domain
//!   accuracy from the prior-domain profile.

use crate::univariate::sample_standard_normal;
use crate::StatsError;
use c4u_linalg::{Cholesky, Matrix, Vector};
use rand::Rng;
use std::cell::Cell;

/// Default number of rejection-sampling attempts for box-truncated draws before
/// falling back to clamping the last proposal into the box.
const TRUNCATION_MAX_REJECTS: usize = 256;

/// Floor applied to every conditional variance a [`Conditioner`] can produce.
///
/// Both conditioning paths share it: the empty-`given` marginal path (a raw
/// covariance diagonal entry) and the Schur-complement path
/// `Sigma_{T,T} - Sigma_{T,G} Sigma_{G,G}^{-1} Sigma_{G,T}`, which can go
/// non-positive in floating point when the observed block is nearly singular
/// (the jittered factorisation keeps the solve stable but cannot keep the
/// subtraction positive).
const CONDITIONAL_VARIANCE_FLOOR: f64 = 1e-12;

thread_local! {
    /// Per-thread count of observed-block Cholesky factorisations performed by
    /// [`MultivariateNormal::conditioner`] (and therefore by
    /// [`MultivariateNormal::condition_on`], which delegates to it).
    ///
    /// A diagnostic the kernel-equivalence tests read to show that the
    /// mask-grouped CPE kernel factorises once per unique missing-domain mask
    /// instead of once per worker. Thread-local so that parallel engine runs
    /// and parallel tests cannot contaminate each other's counts; it has no
    /// effect on results.
    static CONDITIONING_FACTORIZATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Observed-block factorisations performed by the current thread since it
/// started.
// c4u-lint: allow(unused-pub-fn, reason = "factorisation counter the tests read as a check until a per-run trace replaces the thread-locals")
pub fn conditioning_factorizations() -> u64 {
    CONDITIONING_FACTORIZATIONS.with(Cell::get)
}

/// A multivariate normal distribution `N(mu, Sigma)`.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vector,
    cov: Matrix,
    chol: Cholesky,
}

/// The univariate conditional distribution of one coordinate given the others, i.e.
/// the `(mu_bar, Sigma_bar)` pair of Eq. 5 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditional1D {
    /// Conditional mean `mu_bar`.
    pub mean: f64,
    /// Conditional variance `Sigma_bar` (always positive; floored at a tiny value).
    pub variance: f64,
}

impl Conditional1D {
    /// Conditional standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

impl MultivariateNormal {
    /// Creates a distribution from a mean vector and covariance matrix.
    ///
    /// The covariance is symmetrised and, if necessary, repaired with diagonal jitter
    /// so that a valid Cholesky factor always exists (rounding in iterative
    /// covariance updates can produce slightly indefinite matrices).
    pub fn new(mean: Vector, cov: Matrix) -> Result<Self, StatsError> {
        let d = mean.len();
        if d == 0 {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        if cov.shape() != (d, d) {
            return Err(StatsError::DimensionMismatch {
                what: "covariance must be d x d",
                left: d,
                right: cov.nrows(),
            });
        }
        if mean.has_non_finite() || cov.has_non_finite() {
            return Err(StatsError::InvalidParameter {
                what: "mean/covariance must be finite",
                value: f64::NAN,
            });
        }
        let cov = cov
            .symmetrize()
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let chol = Cholesky::new_with_jitter(&cov, 1e-10, 12)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        Ok(Self { mean, cov, chol })
    }

    /// Creates a distribution from per-dimension means, standard deviations, and a
    /// correlation matrix, i.e. exactly the parameterisation of Eq. 2:
    /// `Sigma[i][j] = rho[i][j] * sigma[i] * sigma[j]` with `rho[i][i] = 1`.
    pub fn from_correlations(
        means: &[f64],
        std_devs: &[f64],
        correlations: &Matrix,
    ) -> Result<Self, StatsError> {
        let d = means.len();
        if std_devs.len() != d {
            return Err(StatsError::DimensionMismatch {
                what: "means and std_devs must have equal length",
                left: d,
                right: std_devs.len(),
            });
        }
        if correlations.shape() != (d, d) {
            return Err(StatsError::DimensionMismatch {
                what: "correlation matrix must be d x d",
                left: d,
                right: correlations.nrows(),
            });
        }
        for (i, &s) in std_devs.iter().enumerate() {
            if s <= 0.0 || !s.is_finite() {
                return Err(StatsError::InvalidParameter {
                    what: "standard deviations must be finite and > 0",
                    value: std_devs[i],
                });
            }
        }
        let cov = Matrix::from_fn(d, d, |i, j| {
            if i == j {
                std_devs[i] * std_devs[i]
            } else {
                correlations[(i, j)].clamp(-0.999, 0.999) * std_devs[i] * std_devs[j]
            }
        });
        Self::new(Vector::from_slice(means), cov)
    }

    /// Dimensionality of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.cov
    }

    /// Per-dimension standard deviations (square roots of the covariance diagonal).
    pub fn std_devs(&self) -> Vec<f64> {
        (0..self.dim())
            .map(|i| self.cov[(i, i)].max(0.0).sqrt())
            .collect()
    }

    /// The correlation parameter between dimensions `i` and `j`.
    pub fn correlation(&self, i: usize, j: usize) -> Result<f64, StatsError> {
        if i >= self.dim() || j >= self.dim() {
            return Err(StatsError::DimensionMismatch {
                what: "correlation index out of range",
                left: i.max(j),
                right: self.dim(),
            });
        }
        if i == j {
            return Ok(1.0);
        }
        let si = self.cov[(i, i)].max(f64::MIN_POSITIVE).sqrt();
        let sj = self.cov[(j, j)].max(f64::MIN_POSITIVE).sqrt();
        Ok((self.cov[(i, j)] / (si * sj)).clamp(-1.0, 1.0))
    }

    /// Draws one sample `x = mu + L z` with `z` standard normal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let z = Vector::from_fn(self.dim(), |_| sample_standard_normal(rng));
        let lz = self
            .chol
            .l()
            .matvec(&z)
            // c4u-lint: allow(no-unwrap-in-lib, reason = "factor and sample dimensions agree by construction")
            .expect("Cholesky factor conforms with z");
        // c4u-lint: allow(no-unwrap-in-lib, reason = "mean and product dimensions agree by construction")
        self.mean.add(&lz).expect("dimensions conform")
    }

    /// Draws a sample with every coordinate restricted to `[lower, upper]` by
    /// rejection sampling (falling back to clamping after 256 rejected
    /// proposals).
    ///
    /// This is the "truncated multivariate normal distribution within (0, 1)" used to
    /// generate synthetic workers in Sec. V-A of the paper.
    pub fn sample_truncated<R: Rng + ?Sized>(&self, rng: &mut R, lower: f64, upper: f64) -> Vector {
        for _ in 0..TRUNCATION_MAX_REJECTS {
            let x = self.sample(rng);
            if x.iter().all(|&v| v >= lower && v <= upper) {
                return x;
            }
        }
        self.sample(rng).clamp(lower, upper)
    }

    /// Conditional distribution of coordinate `target` given observed values for the
    /// coordinates `given_idx` (`given_idx[i]` observed as `given_values[i]`).
    ///
    /// With the usual block notation this is
    /// `mu_bar  = mu_T + Sigma_{T,G} Sigma_{G,G}^{-1} (x_G - mu_G)` and
    /// `Sigma_bar = Sigma_{T,T} - Sigma_{T,G} Sigma_{G,G}^{-1} Sigma_{G,T}`,
    /// exactly the expressions under Eq. 5 in the paper. When `given_idx` is empty
    /// the marginal of the target coordinate is returned, which is what makes the
    /// "worker has no historical record on any prior domain" case work transparently.
    // c4u-lint: allow(unused-pub-fn, reason = "test oracle: the Schur-complement conditional the cached Conditioner is pinned against")
    pub fn condition_on(
        &self,
        target: usize,
        given_idx: &[usize],
        given_values: &[f64],
    ) -> Result<Conditional1D, StatsError> {
        // Cheap length check up front: don't pay (or count) an observed-block
        // factorisation for a call that Conditioner::condition would reject.
        if given_idx.len() != given_values.len() {
            return Err(StatsError::DimensionMismatch {
                what: "given indices and values must have equal length",
                left: given_idx.len(),
                right: given_values.len(),
            });
        }
        self.conditioner(target, given_idx)?.condition(given_values)
    }

    /// Builds a [`Conditioner`]: the factorisation-caching form of
    /// [`MultivariateNormal::condition_on`].
    ///
    /// The observed-block Cholesky factorisation (`O(g^3)` for `g` observed
    /// coordinates) and the conditional variance — which does not depend on the
    /// observed *values* — are computed once here; every subsequent
    /// [`Conditioner::condition`] call costs only an `O(g^2)` triangular solve.
    /// The CPE likelihood kernel builds one conditioner per unique
    /// missing-domain mask and applies it to every worker sharing that mask.
    pub fn conditioner(
        &self,
        target: usize,
        given_idx: &[usize],
    ) -> Result<Conditioner, StatsError> {
        let d = self.dim();
        if target >= d {
            return Err(StatsError::DimensionMismatch {
                what: "conditioning target out of range",
                left: target,
                right: d,
            });
        }
        if given_idx.iter().any(|&i| i >= d || i == target) {
            return Err(StatsError::InvalidParameter {
                what: "given index out of range or equal to target",
                value: target as f64,
            });
        }
        let var_t = self.cov[(target, target)];
        if given_idx.is_empty() {
            return Ok(Conditioner {
                target,
                given_idx: Vec::new(),
                target_mean: self.mean[target],
                given_means: Vec::new(),
                sigma_tg: Vector::zeros(0),
                chol_gg: None,
                weights: Vector::zeros(0),
                variance: var_t.max(CONDITIONAL_VARIANCE_FLOOR),
            });
        }

        let sigma_gg = self
            .cov
            .submatrix(given_idx, given_idx)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let sigma_tg = Vector::from_fn(given_idx.len(), |j| self.cov[(target, given_idx[j])]);
        let given_means: Vec<f64> = given_idx.iter().map(|&i| self.mean[i]).collect();

        let chol_gg = sigma_gg
            .cholesky_with_jitter(1e-10, 12)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        CONDITIONING_FACTORIZATIONS.with(|c| c.set(c.get() + 1));
        // v = Sigma_{G,G}^{-1} Sigma_{G,T}
        let v = chol_gg
            .solve(&sigma_tg)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        let variance = var_t
            - sigma_tg
                .dot(&v)
                .map_err(|e| StatsError::Numerical(e.to_string()))?;

        Ok(Conditioner {
            target,
            given_idx: given_idx.to_vec(),
            target_mean: self.mean[target],
            given_means,
            sigma_tg,
            chol_gg: Some(chol_gg),
            weights: v,
            variance: variance.max(CONDITIONAL_VARIANCE_FLOOR),
        })
    }
}

/// A factorised conditioning operator for one `(target, observed-set)` pair.
///
/// Holds the observed-block Cholesky factor, the cross-covariance row
/// `Sigma_{T,G}`, and the (value-independent) conditional variance, so that
/// conditioning on many different observed-value vectors costs one triangular
/// solve each instead of one factorisation each. Produced by
/// [`MultivariateNormal::conditioner`].
#[derive(Debug, Clone)]
pub struct Conditioner {
    /// Target coordinate index in the distribution this conditioner came from.
    target: usize,
    /// Observed coordinate indices, in conditioning order.
    given_idx: Vec<usize>,
    target_mean: f64,
    given_means: Vec<f64>,
    sigma_tg: Vector,
    /// `None` when the observed set is empty (marginal conditioning).
    chol_gg: Option<Cholesky>,
    /// `Sigma_{G,G}^{-1} Sigma_{G,T}` (empty when the observed set is empty).
    weights: Vector,
    variance: f64,
}

impl Conditioner {
    /// Number of observed coordinates this conditioner was built for.
    pub fn num_given(&self) -> usize {
        self.given_means.len()
    }

    /// Target coordinate index this conditioner was built for.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Observed coordinate indices, in the order `condition` expects values.
    pub fn given_idx(&self) -> &[usize] {
        &self.given_idx
    }

    /// The conditional variance `Sigma_bar` (independent of the observed values).
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// The weight vector `alpha = Sigma_{G,G}^{-1} Sigma_{G,T}` (empty for the
    /// marginal conditioner).
    ///
    /// The conditional mean is `mu_T + alpha . (x_G - mu_G)`, so `alpha` is the
    /// Jacobian of the conditional mean in the observed values — and, with a
    /// sign flip, in the observed-block prior means. The CPE M-step reads it
    /// as the regression of a missing domain on the observed ones.
    pub fn weights(&self) -> &[f64] {
        self.weights.as_slice()
    }

    /// Conditional distribution of the target coordinate given the observed
    /// values, in the same order as the `given_idx` the conditioner was built
    /// with. Bit-for-bit identical to [`MultivariateNormal::condition_on`].
    pub fn condition(&self, given_values: &[f64]) -> Result<Conditional1D, StatsError> {
        let mut w = vec![0.0; self.num_given()];
        Ok(Conditional1D {
            mean: self.condition_into(given_values, &mut w)?,
            variance: self.variance,
        })
    }

    /// [`Conditioner::condition`] without the allocation: writes the
    /// observed-block solve `w = Sigma_{G,G}^{-1} (x_G - mu_G)` into `w` and
    /// returns the conditional mean (the variance is
    /// [`Conditioner::variance`]), bit for bit the `condition` mean.
    ///
    /// `w` is the Jacobian of the conditional mean in the cross-covariance
    /// row `Sigma_{T,G}`.
    ///
    /// `w` must have [`Conditioner::num_given`] entries.
    pub fn condition_into(&self, given_values: &[f64], w: &mut [f64]) -> Result<f64, StatsError> {
        if given_values.len() != self.num_given() {
            return Err(StatsError::DimensionMismatch {
                what: "given indices and values must have equal length",
                left: self.num_given(),
                right: given_values.len(),
            });
        }
        if w.len() != self.num_given() {
            return Err(StatsError::DimensionMismatch {
                what: "solve buffer must have one entry per given index",
                left: self.num_given(),
                right: w.len(),
            });
        }
        let Some(chol_gg) = &self.chol_gg else {
            return Ok(self.target_mean);
        };
        for ((wj, &x), &m) in w.iter_mut().zip(given_values).zip(&self.given_means) {
            *wj = x - m;
        }
        chol_gg
            .solve_in_place(w)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        // Vector::dot's product-then-sum order.
        let dot: f64 = self
            .sigma_tg
            .as_slice()
            .iter()
            .zip(w.iter())
            .map(|(a, b)| a * b)
            .sum();
        Ok(self.target_mean + dot)
    }

    /// [`Conditioner::condition_into`] for a block of members, worker-major:
    /// `given_columns` yields one column per given coordinate, in the order
    /// the conditioner was built with, each holding one value per member, and
    /// `means` receives each member's conditional mean.
    ///
    /// Every mean carries the bits `condition_into` returns on that member's
    /// values: the observed-block solve runs in the columns of `w` (resized
    /// to `num_given() * means.len()`) through
    /// `Cholesky::solve_columns_in_place`, which repeats the single-system
    /// solve's operations in its order, and each member's dot product folds
    /// from `Iterator::sum`'s start value in coordinate order.
    pub fn condition_columns<'a>(
        &self,
        given_columns: impl IntoIterator<Item = &'a [f64]>,
        w: &mut Vec<f64>,
        means: &mut [f64],
    ) -> Result<(), StatsError> {
        let len = means.len();
        w.clear();
        let mut columns = 0;
        for (column, &m) in given_columns.into_iter().zip(&self.given_means) {
            if column.len() != len {
                return Err(StatsError::DimensionMismatch {
                    what: "every given column must hold one value per member",
                    left: len,
                    right: column.len(),
                });
            }
            w.extend(column.iter().map(|&x| x - m));
            columns += 1;
        }
        if columns != self.num_given() {
            return Err(StatsError::DimensionMismatch {
                what: "one column per given index",
                left: self.num_given(),
                right: columns,
            });
        }
        let Some(chol_gg) = &self.chol_gg else {
            means.fill(self.target_mean);
            return Ok(());
        };
        if len == 0 {
            return Ok(());
        }
        chol_gg
            .solve_columns_in_place(w, len)
            .map_err(|e| StatsError::Numerical(e.to_string()))?;
        // `Iterator::sum`'s start value for `f64` (its empty sum), so each
        // member's dot product folds exactly as `condition_into`'s does.
        let start: f64 = std::iter::empty::<f64>().sum();
        means.fill(start);
        for (&a, column) in self.sigma_tg.as_slice().iter().zip(w.chunks_exact(len)) {
            for (dot, &wj) in means.iter_mut().zip(column) {
                *dot += a * wj;
            }
        }
        for mean in means {
            *mean += self.target_mean;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_mvn() -> MultivariateNormal {
        let mean = Vector::from_slice(&[0.7, 0.88, 0.58, 0.55]);
        let std = [0.22, 0.10, 0.25, 0.17];
        let rho = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.5 });
        MultivariateNormal::from_correlations(mean.as_slice(), &std, &rho).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(MultivariateNormal::new(Vector::zeros(0), Matrix::zeros(0, 0)).is_err());
        assert!(MultivariateNormal::new(Vector::zeros(2), Matrix::zeros(3, 3)).is_err());
        let mut bad = Matrix::identity(2);
        bad[(0, 0)] = f64::NAN;
        assert!(MultivariateNormal::new(Vector::zeros(2), bad).is_err());
        assert!(
            MultivariateNormal::from_correlations(&[0.5, 0.5], &[0.1], &Matrix::identity(2))
                .is_err()
        );
        assert!(MultivariateNormal::from_correlations(
            &[0.5, 0.5],
            &[0.1, 0.0],
            &Matrix::identity(2)
        )
        .is_err());
        assert!(MultivariateNormal::from_correlations(
            &[0.5, 0.5],
            &[0.1, 0.1],
            &Matrix::identity(3)
        )
        .is_err());
    }

    #[test]
    fn correlation_roundtrip() {
        let mvn = example_mvn();
        for i in 0..4 {
            assert!((mvn.correlation(i, i).unwrap() - 1.0).abs() < 1e-12);
            for j in 0..4 {
                if i != j {
                    assert!((mvn.correlation(i, j).unwrap() - 0.5).abs() < 1e-9);
                }
            }
        }
        let stds = mvn.std_devs();
        assert!((stds[0] - 0.22).abs() < 1e-12);
        assert!((stds[3] - 0.17).abs() < 1e-12);
        assert!(mvn.correlation(0, 9).is_err());
    }

    #[test]
    fn sampling_recovers_moments() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<Vector> = (0..30_000).map(|_| mvn.sample(&mut rng)).collect();
        for d in 0..4 {
            let vals: Vec<f64> = samples.iter().map(|s| s[d]).collect();
            let m = crate::descriptive::mean(&vals);
            let s = crate::descriptive::std_dev(&vals);
            assert!((m - mvn.mean()[d]).abs() < 0.01, "dim {d} mean {m}");
            assert!((s - mvn.std_devs()[d]).abs() < 0.01, "dim {d} std {s}");
        }
        // Empirical correlation close to 0.5.
        let x: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let y: Vec<f64> = samples.iter().map(|s| s[1]).collect();
        let r = crate::descriptive::pearson_correlation(&x, &y).unwrap();
        assert!((r - 0.5).abs() < 0.03, "corr {r}");
    }

    #[test]
    fn truncated_sampling_stays_in_box() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let x = mvn.sample_truncated(&mut rng, 0.0, 1.0);
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn conditioning_reduces_variance_with_positive_correlation() {
        let mvn = example_mvn();
        let marginal = mvn.condition_on(3, &[], &[]).unwrap();
        let cond = mvn.condition_on(3, &[0, 1, 2], &[0.9, 0.95, 0.8]).unwrap();
        assert!(cond.variance < marginal.variance);
        // A strong profile should pull the conditional mean above the marginal mean.
        assert!(cond.mean > marginal.mean);
        // And a weak profile below it.
        let weak = mvn.condition_on(3, &[0, 1, 2], &[0.2, 0.5, 0.1]).unwrap();
        assert!(weak.mean < marginal.mean);
        assert!(cond.std_dev() > 0.0);
    }

    #[test]
    fn conditioning_matches_bivariate_closed_form() {
        // For a bivariate normal, E[Y|X=x] = mu_y + rho*sigma_y/sigma_x*(x - mu_x),
        // Var[Y|X=x] = sigma_y^2 (1 - rho^2).
        let (mu_x, mu_y, sx, sy, rho) = (0.6, 0.5, 0.2, 0.15, 0.7);
        let corr = Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { rho });
        let mvn = MultivariateNormal::from_correlations(&[mu_x, mu_y], &[sx, sy], &corr).unwrap();
        let x_obs = 0.9;
        let cond = mvn.condition_on(1, &[0], &[x_obs]).unwrap();
        let expected_mean = mu_y + rho * sy / sx * (x_obs - mu_x);
        let expected_var = sy * sy * (1.0 - rho * rho);
        assert!((cond.mean - expected_mean).abs() < 1e-9);
        assert!((cond.variance - expected_var).abs() < 1e-9);
    }

    #[test]
    fn conditioning_validation() {
        let mvn = example_mvn();
        assert!(mvn.condition_on(9, &[], &[]).is_err());
        assert!(mvn.condition_on(3, &[0], &[]).is_err());
        assert!(mvn.condition_on(3, &[3], &[0.5]).is_err());
        assert!(mvn.condition_on(3, &[7], &[0.5]).is_err());
    }

    #[test]
    fn conditioner_matches_condition_on_bit_for_bit() {
        let mvn = example_mvn();
        let observed_sets: &[&[usize]] = &[&[], &[0], &[0, 1], &[0, 1, 2], &[2, 0]];
        let value_sets: &[&[f64]] = &[
            &[0.9, 0.95, 0.8],
            &[0.2, 0.5, 0.1],
            &[0.55, 0.61, 0.43],
            &[0.01, 0.99, 0.5],
        ];
        for idx in observed_sets {
            let conditioner = mvn.conditioner(3, idx).unwrap();
            assert_eq!(conditioner.num_given(), idx.len());
            for values in value_sets {
                let values = &values[..idx.len()];
                let via_handle = conditioner.condition(values).unwrap();
                let direct = mvn.condition_on(3, idx, values).unwrap();
                // Exact f64 equality: the cached factorisation must not change a bit.
                assert_eq!(via_handle.mean, direct.mean);
                assert_eq!(via_handle.variance, direct.variance);
                assert_eq!(conditioner.variance(), direct.variance);
            }
        }
    }

    #[test]
    fn conditioner_validation() {
        let mvn = example_mvn();
        assert!(mvn.conditioner(9, &[]).is_err());
        assert!(mvn.conditioner(3, &[3]).is_err());
        assert!(mvn.conditioner(3, &[7]).is_err());
        let conditioner = mvn.conditioner(3, &[0, 1]).unwrap();
        assert!(conditioner.condition(&[0.5]).is_err());
        let empty = mvn.conditioner(3, &[]).unwrap();
        assert!(empty.condition(&[0.5]).is_err());
    }

    #[test]
    fn factorization_counter_tracks_conditioner_builds() {
        let mvn = example_mvn();
        let before = conditioning_factorizations();
        let conditioner = mvn.conditioner(3, &[0, 1]).unwrap();
        // Building the conditioner factorises once…
        assert_eq!(conditioning_factorizations(), before + 1);
        // …and applying it any number of times adds nothing.
        for _ in 0..5 {
            conditioner.condition(&[0.5, 0.6]).unwrap();
        }
        assert_eq!(conditioning_factorizations(), before + 1);
        // The marginal (empty mask) never factorises.
        mvn.conditioner(3, &[]).unwrap();
        assert_eq!(conditioning_factorizations(), before + 1);
        // The one-shot path counts one factorisation per call.
        mvn.condition_on(3, &[0], &[0.5]).unwrap();
        assert_eq!(conditioning_factorizations(), before + 2);
    }

    #[test]
    fn nearly_degenerate_covariance_keeps_conditional_variance_positive() {
        // Two observed domains that are almost copies of each other and almost
        // copies of the target: the observed block is nearly singular, and the
        // Schur complement Sigma_TT - Sigma_TG Sigma_GG^-1 Sigma_GT lands at
        // rounding distance from zero (or below it). The shared floor must keep
        // every conditional variance strictly positive on BOTH paths.
        let eps = 1e-9;
        let cov = Matrix::from_rows(&[
            vec![0.04, 0.04 - eps, 0.04 - eps],
            vec![0.04 - eps, 0.04, 0.04 - eps],
            vec![0.04 - eps, 0.04 - eps, 0.04],
        ])
        .unwrap();
        let mvn = MultivariateNormal::new(Vector::from_slice(&[0.5, 0.5, 0.5]), cov).unwrap();
        // Non-empty path (Schur complement).
        for idx in [&[0usize][..], &[0, 1][..]] {
            let conditioner = mvn.conditioner(2, idx).unwrap();
            assert!(
                conditioner.variance() > 0.0,
                "variance {} for idx {idx:?}",
                conditioner.variance()
            );
            let values = vec![0.5; idx.len()];
            let cond = conditioner.condition(&values).unwrap();
            assert!(cond.variance > 0.0);
            assert!(cond.std_dev().is_finite() && cond.std_dev() > 0.0);
            assert!(cond.mean.is_finite());
        }
        // Empty path (marginal), for symmetry with the floor on the raw diagonal.
        let marginal = mvn.conditioner(2, &[]).unwrap();
        assert!(marginal.variance() >= 1e-12);
    }

    #[test]
    fn condition_into_matches_condition_and_exposes_the_solve() {
        let mvn = example_mvn();
        let conditioner = mvn.conditioner(3, &[0, 2]).unwrap();
        let values = [0.8, 0.45];
        let direct = conditioner.condition(&values).unwrap();
        let mut w = [f64::NAN; 2];
        let mean = conditioner.condition_into(&values, &mut w).unwrap();
        // Exact equality: condition() is condition_into() minus the solve.
        assert_eq!(direct.mean, mean);
        assert_eq!(direct.variance, conditioner.variance());
        // The solve reproduces the conditional mean through the cross-covariance
        // row: mean = mu_T + Sigma_TG . w.
        let sigma_tg = [mvn.covariance()[(3, 0)], mvn.covariance()[(3, 2)]];
        let rebuilt = mvn.mean()[3] + sigma_tg[0] * w[0] + sigma_tg[1] * w[1];
        assert!((rebuilt - mean).abs() < 1e-12);
        // weights() is the value-independent Jacobian of the conditional mean.
        let alpha = conditioner.weights();
        assert_eq!(alpha.len(), 2);
        let bumped = conditioner
            .condition(&[values[0] + 1e-3, values[1]])
            .unwrap();
        assert!(((bumped.mean - mean) / 1e-3 - alpha[0]).abs() < 1e-6);
        // Evidence at its prior means leaves the target's prior mean.
        let at_means = [mvn.mean()[0], mvn.mean()[2]];
        assert_eq!(
            conditioner.condition(&at_means).unwrap().mean,
            mvn.mean()[3]
        );
        // The marginal conditioner has no weights and an empty solve.
        let marginal = mvn.conditioner(3, &[]).unwrap();
        assert!(marginal.weights().is_empty());
        let cond = marginal.condition(&[]).unwrap();
        assert_eq!(cond.mean, mvn.mean()[3]);
        assert_eq!(marginal.condition_into(&[], &mut []).unwrap(), cond.mean);
        assert!(marginal.condition(&[0.5]).is_err());
    }

    #[test]
    fn condition_into_writes_the_solve_bit_for_bit() {
        let mvn = example_mvn();
        for given in [&[0usize, 1, 2][..], &[0, 2], &[1]] {
            let conditioner = mvn.conditioner(3, given).unwrap();
            let values: Vec<f64> = given.iter().map(|&i| 0.31 + 0.17 * i as f64).collect();
            // The historical route: a diff vector solved through the factor
            // (`Cholesky::solve`, which c4u-linalg pins bit for bit against
            // substitution through a transposed copy of the factor).
            let diff = Vector::from_fn(given.len(), |j| values[j] - mvn.mean()[given[j]]);
            let l = mvn
                .covariance()
                .submatrix(given, given)
                .unwrap()
                .cholesky_with_jitter(1e-10, 12)
                .unwrap();
            let expected_w = l.solve(&diff).unwrap();
            let sigma_tg = Vector::from_fn(given.len(), |j| mvn.covariance()[(3, given[j])]);
            let expected_mean = mvn.mean()[3] + sigma_tg.dot(&expected_w).unwrap();

            let mut w = vec![f64::NAN; given.len()];
            let mean = conditioner.condition_into(&values, &mut w).unwrap();
            assert_eq!(w, expected_w.as_slice());
            assert_eq!(mean, expected_mean);
            assert_eq!(conditioner.condition(&values).unwrap().mean, mean);
            // A solve buffer of the wrong length is a typed error.
            assert!(conditioner
                .condition_into(&values, &mut vec![0.0; given.len() + 1])
                .is_err());
        }
        let marginal = mvn.conditioner(3, &[]).unwrap();
        assert_eq!(
            marginal.condition_into(&[], &mut []).unwrap(),
            mvn.mean()[3]
        );
    }

    #[test]
    fn condition_columns_match_condition_into_bit_for_bit() {
        let mvn = example_mvn();
        for given in [&[0usize, 1, 2][..], &[0, 2], &[1], &[]] {
            let conditioner = mvn.conditioner(3, given).unwrap();
            for len in [0usize, 1, 5, 13] {
                // Member j's values; the first member sits at the prior means
                // (a zero dot product) and one value is NaN.
                let member = |j: usize| -> Vec<f64> {
                    given
                        .iter()
                        .map(|&i| match j {
                            0 => mvn.mean()[i],
                            7 if i == given[0] => f64::NAN,
                            _ => 0.05 + 0.9 * ((j * 37 + i * 11) % 101) as f64 / 100.0,
                        })
                        .collect()
                };
                let columns: Vec<Vec<f64>> = (0..given.len())
                    .map(|k| (0..len).map(|j| member(j)[k]).collect())
                    .collect();
                let mut means = vec![f64::NAN; len];
                let mut w = Vec::new();
                conditioner
                    .condition_columns(columns.iter().map(Vec::as_slice), &mut w, &mut means)
                    .unwrap();
                for (j, &mean) in means.iter().enumerate() {
                    let mut single = vec![0.0; given.len()];
                    let expected = conditioner.condition_into(&member(j), &mut single).unwrap();
                    assert_eq!(
                        mean.to_bits(),
                        expected.to_bits(),
                        "given {given:?}: member {j} of {len}"
                    );
                }
            }
            // A short column or a missing one is a typed error.
            if let Some((_, rest)) = given.split_first() {
                let short = vec![vec![0.5; 2]; given.len()];
                let mut means = [0.0; 3];
                assert!(conditioner
                    .condition_columns(short.iter().map(Vec::as_slice), &mut Vec::new(), &mut means)
                    .is_err());
                let fewer = vec![vec![0.5; 3]; rest.len()];
                assert!(conditioner
                    .condition_columns(fewer.iter().map(Vec::as_slice), &mut Vec::new(), &mut means)
                    .is_err());
            }
        }
    }

    #[test]
    fn indefinite_covariance_is_repaired() {
        // A "correlation" of 1.0 between all pairs with unequal variances is not PSD
        // once perturbed; the jitter repair should still produce a usable model.
        let cov = Matrix::from_rows(&[
            vec![0.04, 0.05, 0.03],
            vec![0.05, 0.04, 0.05],
            vec![0.03, 0.05, 0.04],
        ])
        .unwrap();
        let mvn = MultivariateNormal::new(Vector::from_slice(&[0.5, 0.5, 0.5]), cov);
        assert!(mvn.is_ok());
        let mvn = mvn.unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = mvn.sample(&mut rng);
        assert_eq!(x.len(), 3);
        assert!(x.iter().all(|v| v.is_finite()));
        let cond = mvn.condition_on(2, &[0, 1], &[0.5, 0.5]).unwrap();
        assert!(cond.variance > 0.0 && cond.mean.is_finite());
    }

    #[test]
    fn accessors_reflect_the_construction() {
        let mvn = example_mvn();
        assert_eq!(mvn.dim(), 4);
        assert_eq!(mvn.mean().as_slice(), &[0.7, 0.88, 0.58, 0.55]);
        for (s, expected) in mvn.std_devs().iter().zip([0.22, 0.10, 0.25, 0.17]) {
            assert!((s - expected).abs() < 1e-12);
        }
        assert!((mvn.covariance()[(0, 1)] - 0.5 * 0.22 * 0.10).abs() < 1e-15);
        assert_eq!(mvn.correlation(2, 2).unwrap(), 1.0);
        assert!((mvn.correlation(0, 3).unwrap() - 0.5).abs() < 1e-12);
        assert!(mvn.correlation(0, 4).is_err());
    }

    #[test]
    fn perfect_input_correlations_are_clamped_to_a_valid_covariance() {
        let rho = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mvn = MultivariateNormal::from_correlations(&[0.5, 0.6], &[0.1, 0.2], &rho).unwrap();
        assert!((mvn.correlation(0, 1).unwrap() - 0.999).abs() < 1e-12);
        let cond = mvn.condition_on(1, &[0], &[0.6]).unwrap();
        assert!(cond.variance > 0.0 && cond.variance < 0.01 * 0.04);
        assert!((cond.mean - (0.6 + 0.999 * 2.0 * 0.1)).abs() < 1e-12);
    }

    #[test]
    fn independent_evidence_leaves_the_target_marginal() {
        let mvn = MultivariateNormal::from_correlations(
            &[0.3, 0.6, 0.9],
            &[0.1, 0.2, 0.3],
            &Matrix::identity(3),
        )
        .unwrap();
        let conditioner = mvn.conditioner(1, &[2, 0]).unwrap();
        assert_eq!(conditioner.target(), 1);
        assert_eq!(conditioner.given_idx(), &[2, 0]);
        assert_eq!(conditioner.num_given(), 2);
        assert_eq!(conditioner.condition(&[0.9, 0.3]).unwrap().mean, 0.6);
        assert!(conditioner.weights().iter().all(|w| w.abs() < 1e-15));
        let cond = conditioner.condition(&[0.1, 0.95]).unwrap();
        assert!((cond.mean - 0.6).abs() < 1e-15);
        assert!((cond.std_dev() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn truncated_sampling_clamps_when_rejection_cannot_succeed() {
        // The box sits 40 standard deviations above the mean, so every
        // rejection attempt fails and the final draw is clamped into the box.
        let mvn = MultivariateNormal::new(
            Vector::from_slice(&[0.5, 0.5]),
            Matrix::identity(2).scale(1e-4),
        )
        .unwrap();
        let x = mvn.sample_truncated(&mut StdRng::seed_from_u64(1), 0.9, 0.95);
        assert_eq!(x.as_slice(), &[0.9, 0.9]);
    }
}
