//! Dense, row-major `f64` matrices.
//!
//! [`Matrix`] covers the operations the CPE estimator needs when manipulating the
//! `(D+1) x (D+1)` covariance matrix of the cross-domain worker-accuracy model:
//! construction, slicing of sub-blocks (for Schur-complement conditioning),
//! matrix/vector and matrix/matrix products, transposition, and symmetry helpers.

use crate::error::{LinalgError, Result};
use crate::vector::Vector;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of `rows x cols` filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// Every row must have the same length. An empty slice yields [`LinalgError::Empty`].
    // c4u-lint: allow(unused-pub-fn, reason = "the crate-doc and cpe::kernel doctests and the tests write matrices row by row with it")
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    left: (1, cols),
                    right: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::OutOfBounds {
                index: i * self.cols + j,
                len: self.data.len(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Checked element assignment.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::OutOfBounds {
                index: i * self.cols + j,
                len: self.data.len(),
            });
        }
        let cols = self.cols;
        self.data[i * cols + j] = value;
        Ok(())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    fn check_same_shape(&self, other: &Self, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(())
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.check_same_shape(other, "add")?;
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Matrix-matrix product `self * other`.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, b) in row_out.iter_mut().zip(row_b.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok(Vector::from_fn(self.rows, |i| {
            self.data[i * self.cols..(i + 1) * self.cols]
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        }))
    }

    /// Extracts the sub-matrix with the given row and column indices (in order).
    ///
    /// This is the primitive behind conditioning a multivariate normal on a subset of
    /// its coordinates: the Schur-complement blocks are all obtained via `submatrix`.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Result<Self> {
        let mut out = Self::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out[(oi, oj)] = self.get(i, j)?;
            }
        }
        Ok(out)
    }

    /// Returns `(self + selfᵀ) / 2`, the nearest symmetric matrix in Frobenius norm.
    pub fn symmetrize(&self) -> Result<Self> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(Self::from_fn(self.rows, self.cols, |i, j| {
            0.5 * (self[(i, j)] + self[(j, i)])
        }))
    }

    /// Returns a copy with `jitter` added to every diagonal entry.
    pub fn add_diagonal(&self, jitter: f64) -> Result<Self> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut out = self.clone();
        for i in 0..self.rows {
            out[(i, i)] += jitter;
        }
        Ok(out)
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Factorises the matrix once into a reusable [`Cholesky`](crate::Cholesky)
    /// handle, with the diagonal-jitter repair loop of
    /// [`Cholesky::new_with_jitter`](crate::Cholesky::new_with_jitter) for
    /// matrices sitting on the PSD boundary. The handle amortises the
    /// `O(n^3)` factorisation over arbitrarily many `O(n^2)`
    /// [`Cholesky::solve`](crate::Cholesky::solve) applications ("factorise
    /// once, solve many").
    ///
    /// This is how `c4u_stats::Conditioner` builds its cached observed-block
    /// factor, which the batched CPE kernel then applies to every worker
    /// sharing a missing-domain mask.
    pub fn cholesky_with_jitter(
        &self,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<crate::Cholesky> {
        crate::Cholesky::new_with_jitter(self, initial_jitter, max_tries)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn close_all(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y))
    }

    #[test]
    fn construction() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(close(m[(1, 0)], 3.0));
        let id = Matrix::identity(3);
        assert!(close(id[(2, 2)], 1.0));
        assert!(close(id[(0, 1)], 0.0));
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn rows_columns_diagonal() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!((m[(0, 0)], m[(1, 1)], m[(1, 2)]), (1.0, 5.0, 6.0));
        assert!(m.get(2, 0).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert!(close(t[(2, 1)], 6.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        assert!(close(a.add(&b).unwrap()[(0, 0)], 2.0));
        assert!(close(a.scale(2.0)[(1, 0)], 6.0));
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(close(c[(0, 0)], 19.0));
        assert!(close(c[(0, 1)], 22.0));
        assert!(close(c[(1, 0)], 43.0));
        assert!(close(c[(1, 1)], 50.0));
        assert!(a.matmul(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[vec![1.5, -2.0], vec![0.25, 4.0]]).unwrap();
        let id = Matrix::identity(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_and_quadratic_form() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
        let v = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(a.matvec(&v).unwrap().as_slice(), &[2.0, 6.0]);
        assert!(close(v.dot(&a.matvec(&v).unwrap()).unwrap(), 2.0 + 12.0));
        assert!(a.matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn submatrix_blocks() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(&[0, 2], &[1, 3]).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert!(close(s[(0, 0)], 1.0));
        assert!(close(s[(1, 1)], 11.0));
        assert!(m.submatrix(&[9], &[0]).is_err());
    }

    #[test]
    fn symmetry_helpers() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0]]).unwrap();
        let s = a.symmetrize().unwrap();
        assert_eq!(s, s.transpose());
        assert!(close(s[(0, 1)], 3.0));
        assert!(Matrix::zeros(2, 3).symmetrize().is_err());
    }

    #[test]
    fn jitter_trace_outer() {
        let m = Matrix::identity(2).add_diagonal(0.5).unwrap();
        assert!(close(m[(0, 0)], 1.5));
        assert!(close(m.trace().unwrap(), 3.0));
        assert!(Matrix::zeros(2, 3).trace().is_err());
        let u = Matrix::from_fn(2, 1, |i, _| (i + 1) as f64);
        let v = Matrix::from_fn(1, 2, |_, j| (j + 3) as f64);
        assert_eq!(u.matmul(&v).unwrap().as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn map_and_non_finite() {
        let m = Matrix::identity(2).map(|x| x + 1.0);
        assert!(close(m[(0, 1)], 1.0));
        assert!(!m.has_non_finite());
        let mut bad = Matrix::zeros(1, 1);
        bad[(0, 0)] = f64::NAN;
        assert!(bad.has_non_finite());
    }

    #[test]
    fn element_access_is_bounds_checked() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 4.5).unwrap();
        assert_eq!(m.get(1, 2).unwrap(), 4.5);
        assert!(m.get(2, 0).is_err());
        assert!(m.get(0, 3).is_err());
        assert!(m.set(0, 3, 1.0).is_err());
    }

    #[test]
    fn storage_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (3 * i + j + 1) as f64);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.transpose().as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(!m.is_square() && Matrix::zeros(3, 3).is_square());
    }

    #[test]
    fn transpose_reverses_products() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + 2 * j) as f64 - 1.5);
        let b = Matrix::from_fn(3, 2, |i, j| (3 * i) as f64 * 0.5 - j as f64);
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn cholesky_handles_factor_and_repair() {
        let spd = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let l = crate::Cholesky::new(&spd).unwrap().l().clone();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(close_all(back.as_slice(), spd.as_slice()));
        let indefinite = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(indefinite.cholesky_with_jitter(1e-3, 0).is_err());
        assert!(
            indefinite
                .cholesky_with_jitter(1e-3, 20)
                .unwrap()
                .jitter_used()
                > 0.0
        );
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::identity(2);
        assert!(a.add(&Matrix::zeros(2, 3)).is_err());
        assert!(a.submatrix(&[0], &[2]).is_err());
        assert!(Matrix::zeros(2, 3).add_diagonal(1.0).is_err());
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky_with_jitter(1e-3, 20),
            Err(crate::LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }
}
