//! Forward and backward substitution for triangular systems.
//!
//! These routines are the building blocks used by the [`Cholesky`](crate::Cholesky)
//! and [`Lu`](crate::Lu) solvers; they are exposed publicly because the conditional
//! multivariate-normal computations in `c4u-stats` also use them directly.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Smallest pivot magnitude treated as non-singular during substitution.
pub const SINGULARITY_TOLERANCE: f64 = 1e-300;

fn check_system(a: &Matrix, b: &Vector, op: &'static str) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if a.nrows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op,
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    if a.nrows() == 0 {
        return Err(LinalgError::Empty);
    }
    Ok(())
}

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// Entries above the diagonal are ignored, so a full square matrix whose lower
/// triangle holds the factor can be passed directly.
pub fn solve_lower_triangular(l: &Matrix, b: &Vector) -> Result<Vector> {
    check_system(l, b, "solve_lower_triangular")?;
    let n = b.len();
    let mut x = Vector::zeros(n);
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[(i, j)] * x[j];
        }
        let pivot = l[(i, i)];
        if pivot.abs() < SINGULARITY_TOLERANCE {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = sum / pivot;
    }
    Ok(x)
}

/// Solves `U x = b` for upper-triangular `U` by backward substitution.
///
/// Entries below the diagonal are ignored.
pub fn solve_upper_triangular(u: &Matrix, b: &Vector) -> Result<Vector> {
    check_system(u, b, "solve_upper_triangular")?;
    let n = b.len();
    let mut x = Vector::zeros(n);
    for ii in 0..n {
        let i = n - 1 - ii;
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= u[(i, j)] * x[j];
        }
        let pivot = u[(i, i)];
        if pivot.abs() < SINGULARITY_TOLERANCE {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = sum / pivot;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_triangular_solution() {
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[4.0, 7.0]);
        let x = solve_lower_triangular(&l, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - (7.0 - 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn upper_triangular_solution() {
        let u = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 4.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, 8.0]);
        let x = solve_upper_triangular(&u, &b).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ignores_off_triangle_entries() {
        // Upper entries should not affect the lower solve.
        let l = Matrix::from_rows(&[vec![1.0, 123.0], vec![0.5, 1.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 1.0]);
        let x = solve_lower_triangular(&l, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn singular_pivot_detected() {
        let l = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 1.0]);
        assert!(matches!(
            solve_lower_triangular(&l, &b),
            Err(LinalgError::Singular { pivot: 0 })
        ));
        let u = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        assert!(matches!(
            solve_upper_triangular(&u, &b),
            Err(LinalgError::Singular { pivot: 1 })
        ));
    }

    #[test]
    fn shape_validation() {
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert!(solve_lower_triangular(&Matrix::zeros(2, 3), &b).is_err());
        assert!(solve_lower_triangular(&Matrix::identity(3), &b).is_err());
        assert!(solve_upper_triangular(&Matrix::zeros(0, 0), &Vector::zeros(0)).is_err());
    }

    #[test]
    fn solutions_satisfy_the_system() {
        let l = Matrix::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![-1.0, 0.5, 0.0],
            vec![0.25, 3.0, 4.0],
        ])
        .unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = solve_lower_triangular(&l, &b).unwrap();
        assert!(l.matvec(&x).unwrap().max_abs_diff(&b).unwrap() < 1e-12);
        let u = l.transpose();
        let y = solve_upper_triangular(&u, &b).unwrap();
        assert!(u.matvec(&y).unwrap().max_abs_diff(&b).unwrap() < 1e-12);
    }
}
