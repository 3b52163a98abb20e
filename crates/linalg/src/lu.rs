//! LU factorisation with partial pivoting.
//!
//! The Cholesky path covers symmetric positive-definite covariance matrices; LU with
//! partial pivoting is the general-purpose fallback used for the ordinary
//! least-squares normal equations of the Li et al. baseline and for any square system
//! that is not guaranteed to be SPD.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// LU factorisation `P A = L U` with partial (row) pivoting.
///
/// `L` (unit lower-triangular) and `U` (upper-triangular) are stored packed in a
/// single matrix; the permutation is stored as a row-index vector.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
}

impl Lu {
    /// Factorises a square matrix. Returns [`LinalgError::Singular`] when a pivot
    /// column is entirely (numerically) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find the pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            // Eliminate below the pivot.
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / lu[(k, k)];
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let update = factor * lu[(k, j)];
                    lu[(i, j)] -= update;
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply the permutation to b.
        let pb = Vector::from_fn(n, |i| b[self.perm[i]]);
        // Forward substitution with the unit lower factor.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = pb[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * y[j];
            }
            y[i] = sum;
        }
        // Backward substitution with the upper factor.
        let mut x = Vector::zeros(n);
        for ii in 0..n {
            let i = n - 1 - ii;
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            let pivot = self.lu[(i, i)];
            if pivot.abs() < 1e-300 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = sum / pivot;
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.nrows() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_matrix",
                left: (self.dim(), self.dim()),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(b.nrows(), b.ncols());
        for j in 0..b.ncols() {
            let x = self.solve(&b.column(j)?)?;
            for i in 0..b.nrows() {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Explicit inverse of the factorised matrix.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Convenience wrapper: solves `A x = b` by LU factorisation.
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector> {
    Lu::new(a)?.solve(b)
}

/// Convenience wrapper: inverse of `a` by LU factorisation.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Lu::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // x + 2y = 5 ; 3x - y = 1  =>  x = 1, y = 2
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, -1.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, 1.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.5],
            vec![0.1, 3.0, -1.0],
            vec![1.0, 0.0, 4.0],
        ])
        .unwrap();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn singular_matrix_rejected_by_solve() {
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert!(matches!(solve(&s, &b), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn shape_validation() {
        assert!(Lu::new(&Matrix::zeros(2, 3)).is_err());
        assert!(Lu::new(&Matrix::zeros(0, 0)).is_err());
        let lu = Lu::new(&Matrix::identity(2)).unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let x = Lu::new(&a).unwrap().solve_matrix(&b).unwrap();
        let prod = a.matmul(&x).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn agrees_with_cholesky_on_spd() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 5.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x_lu = solve(&a, &b).unwrap();
        let x_chol = crate::Cholesky::new(&a).unwrap().solve(&b).unwrap();
        assert!(x_lu.max_abs_diff(&x_chol).unwrap() < 1e-10);
    }

    #[test]
    fn free_functions_match_the_factorisation() {
        let a = Matrix::from_rows(&[
            vec![0.0, 2.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![3.0, 0.0, 1.0],
        ])
        .unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let lu = Lu::new(&a).unwrap();
        assert_eq!(lu.dim(), 3);
        assert_eq!(solve(&a, &b).unwrap(), lu.solve(&b).unwrap());
        assert_eq!(inverse(&a).unwrap(), lu.inverse().unwrap());
    }
}
