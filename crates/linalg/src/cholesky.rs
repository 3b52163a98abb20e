//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! The multivariate-normal machinery in `c4u-stats` relies on Cholesky factors for
//! two things: sampling (`x = mu + L z`) and solving `Sigma^{-1} b` without forming
//! the inverse explicitly. Because rounding in the CPE covariance updates can
//! momentarily push it slightly outside the PSD cone, [`Cholesky::new_with_jitter`]
//! implements the standard "add diagonal jitter and retry" repair loop.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::triangular::{solve_lower_triangular, SINGULARITY_TOLERANCE};
use crate::vector::Vector;

/// A substitution pivot, or the error the triangular solvers report for it.
fn checked_pivot(pivot: f64, index: usize) -> Result<f64> {
    if pivot.abs() < SINGULARITY_TOLERANCE {
        return Err(LinalgError::Singular { pivot: index });
    }
    Ok(pivot)
}

/// The lower-triangular Cholesky factor `L` with `A = L * L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    pub(crate) l: Matrix,
    /// Jitter that had to be added to the diagonal to make the factorisation succeed.
    jitter_used: f64,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// The input is symmetrised first (`(A + A^T)/2`) so that tiny asymmetries coming
    /// from iterative updates do not cause spurious failures. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a pivot becomes non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let a = a.symmetrize()?;
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            index: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self {
            l,
            jitter_used: 0.0,
        })
    }

    /// Factorises `a`, adding exponentially growing diagonal jitter until the
    /// factorisation succeeds or `max_tries` is exhausted.
    ///
    /// `initial_jitter` is scaled relative to the mean diagonal magnitude so that the
    /// repair is invariant to the overall scale of the covariance.
    pub fn new_with_jitter(a: &Matrix, initial_jitter: f64, max_tries: usize) -> Result<Self> {
        match Self::new(a) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let n = a.nrows().max(1);
        let mean_diag = (0..a.nrows())
            .map(|i| a[(i, i)].abs())
            .sum::<f64>()
            .max(f64::MIN_POSITIVE)
            / n as f64;
        let mut jitter = initial_jitter * mean_diag.max(1e-12);
        let mut last_err = LinalgError::NotPositiveDefinite {
            index: 0,
            value: 0.0,
        };
        for _ in 0..max_tries {
            let repaired = a.add_diagonal(jitter)?;
            match Self::new(&repaired) {
                Ok(mut c) => {
                    c.jitter_used = jitter;
                    return Ok(c);
                }
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    last_err = e;
                    jitter *= 10.0;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter that was added to make the factorisation succeed (zero when the
    /// input was already positive definite).
    pub fn jitter_used(&self) -> f64 {
        self.jitter_used
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A x = b` using the factorisation (forward then backward substitution).
    ///
    /// Allocates only the returned vector; the arithmetic is
    /// [`Cholesky::solve_in_place`]'s.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut_slice())?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the solution on
    /// return. Allocation-free.
    ///
    /// The forward pass is [`solve_lower_triangular`] on `L`, the backward pass
    /// [`solve_upper_triangular`](crate::triangular::solve_upper_triangular)
    /// on `L^T` read through `L[(j, i)]` instead of a
    /// transposed copy, so every floating-point operation happens in the same
    /// order and the result is bit-identical to solving through both routines.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        let l = &self.l;
        for i in 0..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= l[(i, j)] * x[j];
            }
            x[i] = sum / checked_pivot(l[(i, i)], i)?;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= l[(j, i)] * x[j];
            }
            x[i] = sum / checked_pivot(l[(i, i)], i)?;
        }
        Ok(())
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.nrows() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_matrix",
                left: (self.dim(), self.dim()),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(b.nrows(), b.ncols());
        for j in 0..b.ncols() {
            let col = b.column(j)?;
            let x = self.solve(&col)?;
            for i in 0..b.nrows() {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Explicit inverse `A^{-1}` (use [`Cholesky::solve`] when only a product with a
    /// vector is needed).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Computes the Mahalanobis-style quadratic form `d^T A^{-1} d`.
    pub fn mahalanobis_squared(&self, d: &Vector) -> Result<f64> {
        // d^T A^{-1} d = || L^{-1} d ||^2
        let y = solve_lower_triangular(&self.l, d)?;
        y.dot(&y)
    }

    /// Reconstructs `A = L L^T` (mostly for testing and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        self.l
            .matmul(&self.l.transpose())
            // c4u-lint: allow(no-unwrap-in-lib, reason = "L and L^T conform by construction of the factorisation")
            .expect("L and L^T always conform")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B^T B + I for a well-conditioned SPD matrix.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
        .unwrap()
    }

    #[test]
    fn factorise_and_reconstruct() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let back = chol.reconstruct();
        assert!(a.max_abs_diff(&back).unwrap() < 1e-10);
        assert_eq!(chol.jitter_used(), 0.0);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_repairs_indefinite_matrix() {
        // Eigenvalues are 3 and -1; enough jitter makes it SPD.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let chol = Cholesky::new_with_jitter(&a, 1e-6, 20).unwrap();
        assert!(chol.jitter_used() > 0.9);
        // The repaired matrix is close to A + jitter*I.
        let repaired = a.add_diagonal(chol.jitter_used()).unwrap();
        assert!(chol.reconstruct().max_abs_diff(&repaired).unwrap() < 1e-8);
    }

    #[test]
    fn jitter_noop_for_spd() {
        let a = spd3();
        let chol = Cholesky::new_with_jitter(&a, 1e-9, 5).unwrap();
        assert_eq!(chol.jitter_used(), 0.0);
    }

    #[test]
    fn solve_matches_direct_computation() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = chol.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!(back.max_abs_diff(&b).unwrap() < 1e-10);
    }

    #[test]
    fn in_place_solve_is_bit_identical_to_the_transposed_copy_route() {
        use crate::triangular::solve_upper_triangular;
        let a = Matrix::from_rows(&[
            vec![0.031, 0.012, -0.004, 0.007],
            vec![0.012, 0.027, 0.003, -0.001],
            vec![-0.004, 0.003, 0.045, 0.011],
            vec![0.007, -0.001, 0.011, 0.019],
        ])
        .unwrap();
        for m in [spd3(), a] {
            let chol = Cholesky::new(&m).unwrap();
            let n = chol.dim();
            for seed in 0..5 {
                let b = Vector::from_fn(n, |i| ((seed * 7 + i * 3) % 11) as f64 * 0.137 - 0.61);
                let y = solve_lower_triangular(chol.l(), &b).unwrap();
                let expected = solve_upper_triangular(&chol.l().transpose(), &y).unwrap();
                let mut x = b.as_slice().to_vec();
                chol.solve_in_place(&mut x).unwrap();
                assert_eq!(x, expected.as_slice());
                assert_eq!(chol.solve(&b).unwrap(), expected);
            }
        }
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            chol.solve_in_place(&mut [1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn mahalanobis_identity_is_squared_norm() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        let d = Vector::from_slice(&[1.0, 2.0, 2.0]);
        assert!((chol.mahalanobis_squared(&d).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_handles_match_direct_construction() {
        let a = spd3();
        assert!(
            a.cholesky()
                .unwrap()
                .reconstruct()
                .max_abs_diff(&a)
                .unwrap()
                < 1e-10
        );
        let indefinite = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(indefinite.cholesky().is_err());
        assert!(indefinite.cholesky_with_jitter(1e-6, 20).is_ok());
    }

    #[test]
    fn solve_matrix_dimension_check() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(chol.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn mahalanobis_is_the_quadratic_form_of_the_solve() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let d = Vector::from_slice(&[0.5, -1.0, 2.0]);
        let via_solve = d.dot(&chol.solve(&d).unwrap()).unwrap();
        assert!((chol.mahalanobis_squared(&d).unwrap() - via_solve).abs() < 1e-12);
        assert_eq!((chol.dim(), chol.jitter_used()), (3, 0.0));
    }

    #[test]
    fn solves_reject_wrong_lengths() {
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!(chol.solve_in_place(&mut [1.0, 2.0]).is_err());
        assert!(chol.solve(&Vector::zeros(4)).is_err());
        assert!(chol.mahalanobis_squared(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn jitter_gives_up_after_max_tries() {
        // Mean |diagonal| 50.5, so 1e-12 relative jitter grows to only ~5e-10
        // in two tries: far from repairing a -100 pivot.
        let bad = Matrix::from_rows(&[vec![-100.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new_with_jitter(&bad, 1e-12, 2),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            Cholesky::new_with_jitter(&bad, 1e-12, 0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(Cholesky::new_with_jitter(&Matrix::zeros(2, 3), 1e-6, 5).is_err());
    }
}
