//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! The multivariate-normal machinery in `c4u-stats` relies on Cholesky factors for
//! two things: sampling (`x = mu + L z`) and solving `Sigma^{-1} b` without forming
//! the inverse explicitly. Because rounding in the CPE covariance updates can
//! momentarily push it slightly outside the PSD cone, [`Cholesky::new_with_jitter`]
//! implements the standard "add diagonal jitter and retry" repair loop.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Smallest pivot magnitude treated as non-singular during substitution.
const SINGULARITY_TOLERANCE: f64 = 1e-300;

/// A substitution pivot, or the error a triangular solve reports for it.
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
    /// The forward pass is forward substitution on `L`, the backward pass
    /// backward substitution on `L^T` read through `L[(j, i)]` instead of a
    /// transposed copy, so every floating-point operation happens in the same
    /// order as substituting through an explicit `L^T`.
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

    /// [`Cholesky::solve_in_place`] for `len` systems at once, stored as
    /// columns: `x[i * len + j]` is entry `i` of system `j`. Allocation-free.
    ///
    /// Each system goes through exactly `solve_in_place`'s operations, in its
    /// order, so every solution carries the bits `solve_in_place` gives it;
    /// the innermost loops run across the systems, which lets them vectorise.
    pub fn solve_columns_in_place(&self, x: &mut [f64], len: usize) -> Result<()> {
        let n = self.dim();
        if x.len() != n * len {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky column solve",
                left: (n, n),
                right: (x.len(), len),
            });
        }
        if len == 0 {
            return Ok(());
        }
        let l = &self.l;
        for i in 0..n {
            let (solved, rest) = x.split_at_mut(i * len);
            let xi = &mut rest[..len];
            for (j, xj) in solved.chunks_exact(len).enumerate() {
                let lij = l[(i, j)];
                for (sum, &v) in xi.iter_mut().zip(xj) {
                    *sum -= lij * v;
                }
            }
            let pivot = checked_pivot(l[(i, i)], i)?;
            for sum in xi {
                *sum /= pivot;
            }
        }
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut((i + 1) * len);
            let xi = &mut head[i * len..];
            for (j, xj) in solved.chunks_exact(len).enumerate() {
                let lji = l[(i + 1 + j, i)];
                for (sum, &v) in xi.iter_mut().zip(xj) {
                    *sum -= lji * v;
                }
            }
            let pivot = checked_pivot(l[(i, i)], i)?;
            for sum in xi {
                *sum /= pivot;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        assert_eq!(a.shape(), b.shape());
        let pairs = a.as_slice().iter().zip(b.as_slice());
        pairs.fold(0.0, |acc, (x, y)| acc.max((x - y).abs()))
    }

    /// `L L^T` from the factor.
    fn reconstruct(chol: &Cholesky) -> Matrix {
        chol.l().matmul(&chol.l().transpose()).unwrap()
    }

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
        assert!(max_abs_diff(&a, &reconstruct(&chol)) < 1e-10);
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
        assert!(max_abs_diff(&reconstruct(&chol), &repaired) < 1e-8);
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
        for (got, want) in back.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    /// Forward substitution on `L`, then backward substitution on an explicit
    /// transposed copy `U = L^T`.
    fn solve_through_transposed_copy(l: &Matrix, b: &Vector) -> Vector {
        let n = b.len();
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= l[(i, j)] * y[j];
            }
            y[i] = sum / l[(i, i)];
        }
        let u = l.transpose();
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= u[(i, j)] * x[j];
            }
            x[i] = sum / u[(i, i)];
        }
        x
    }

    #[test]
    fn in_place_solve_is_bit_identical_to_the_transposed_copy_route() {
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
                let expected = solve_through_transposed_copy(chol.l(), &b);
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
    fn column_solve_is_bit_identical_to_solving_each_system() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let n = chol.dim();
        for len in [1, 3, 9] {
            let systems: Vec<Vec<f64>> = (0..len)
                .map(|j| {
                    (0..n)
                        .map(|i| ((j * 7 + i * 3) % 11) as f64 * 0.137 - 0.61)
                        .collect()
                })
                .collect();
            let mut columns: Vec<f64> = (0..n * len).map(|e| systems[e % len][e / len]).collect();
            chol.solve_columns_in_place(&mut columns, len).unwrap();
            for (j, system) in systems.iter().enumerate() {
                let mut x = system.clone();
                chol.solve_in_place(&mut x).unwrap();
                let column: Vec<f64> = (0..n).map(|i| columns[i * len + j]).collect();
                assert_eq!(column, x, "system {j} of {len}");
            }
        }
        assert!(matches!(
            chol.solve_columns_in_place(&mut [1.0, 2.0], 1),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(chol.solve_columns_in_place(&mut [], 0).is_ok());
    }

    #[test]
    fn matrix_handles_match_direct_construction() {
        let a = spd3();
        let chol = a.cholesky_with_jitter(1e-6, 20).unwrap();
        assert_eq!(chol.jitter_used(), 0.0);
        assert!(max_abs_diff(&reconstruct(&chol), &a) < 1e-10);
        let indefinite = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(indefinite.cholesky_with_jitter(1e-6, 20).is_ok());
    }

    #[test]
    fn solves_reject_wrong_lengths() {
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!(chol.solve_in_place(&mut [1.0, 2.0]).is_err());
        assert!(chol.solve(&Vector::zeros(4)).is_err());
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
