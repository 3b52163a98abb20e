//! Packed lower-triangle storage for symmetric-matrix parameters.
//!
//! The CPE estimator optimises its covariance through the row-major packed
//! lower triangle: the symmetric entry `(i, j)` and its mirror `(j, i)` are one
//! parameter, stored once at [`packed_index`]`(max(i,j), min(i,j))`. Gradients
//! with respect to that parameterisation therefore accumulate *symmetric*
//! contributions — most prominently the symmetrised outer products
//! `x y^T + y x^T` that appear when differentiating quadratic forms
//! `x^T A y` through a symmetric `A` ([`PackedLowerTriangle::add_sym_outer`]).
//! This module keeps the index arithmetic and that accumulation rule in one
//! place so every layer (the analytic Eq. 6–7 gradient, tests, benches) agrees
//! on the packing.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Number of packed entries of an `n x n` symmetric matrix: `n (n + 1) / 2`.
pub fn packed_length(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Row-major packed index of the symmetric entry `(i, j)`.
///
/// The two mirror positions map to the same slot; callers may pass the indices
/// in either order.
pub fn packed_index(i: usize, j: usize) -> usize {
    let (row, col) = if i >= j { (i, j) } else { (j, i) };
    row * (row + 1) / 2 + col
}

/// A gradient (or any other additive quantity) accumulated over the packed
/// lower triangle of an `n x n` symmetric matrix.
///
/// This is the covariance parameterisation of the paper's Eq. 7 update: the
/// CPE estimator optimises one parameter per symmetric entry of `Sigma`, and
/// the analytic Eq. 6–7 gradient accumulates into exactly this layout.
///
/// ```
/// use c4u_linalg::{packed_index, PackedLowerTriangle};
///
/// let mut grad = PackedLowerTriangle::zeros(3);
/// grad.add(2, 0, 1.5).unwrap();
/// grad.add(0, 2, 0.5).unwrap();          // mirror position — same parameter
/// assert_eq!(grad.as_slice()[packed_index(2, 0)], 2.0);
/// // Symmetrised rank-one rule: d/dA of x^T A x on the subset {1, 2}.
/// grad.add_sym_outer(1.0, &[1, 2], &[2.0, 3.0], &[2.0, 3.0]).unwrap();
/// assert_eq!(grad.as_slice()[packed_index(2, 1)], 12.0);   // 2 * x_1 * x_2
/// assert_eq!(grad.to_matrix()[(1, 2)], 12.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLowerTriangle {
    dim: usize,
    data: Vec<f64>,
}

impl PackedLowerTriangle {
    /// A zero-initialised accumulator for an `n x n` symmetric matrix.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            data: vec![0.0; packed_length(dim)],
        }
    }

    /// Dimension `n` of the symmetric matrix being accumulated.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed entries, row-major (`(0,0), (1,0), (1,1), (2,0), ...`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Adds `value` to the symmetric parameter `(i, j)` (same slot as `(j, i)`).
    pub fn add(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.dim || j >= self.dim {
            return Err(LinalgError::DimensionMismatch {
                op: "packed triangle index",
                left: (i, j),
                right: (self.dim, self.dim),
            });
        }
        self.data[packed_index(i, j)] += value;
        Ok(())
    }

    /// Accumulates the gradient of `scale * x^T A y` with respect to the packed
    /// parameters of the symmetric matrix `A`, where `x` and `y` live on the
    /// coordinate subset `idx` (ascending global indices).
    ///
    /// Because the off-diagonal entry `(a, b)` is one parameter appearing at
    /// both mirror positions, its derivative is `x_a y_b + x_b y_a`; the
    /// diagonal derivative is `x_a y_a`. Passing `x == y` yields the symmetric
    /// rank-one rule (`2 x_a x_b` off-diagonal, `x_a^2` diagonal) used for the
    /// conditional-variance backpropagation.
    pub fn add_sym_outer(&mut self, scale: f64, idx: &[usize], x: &[f64], y: &[f64]) -> Result<()> {
        if idx.len() != x.len() || idx.len() != y.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "packed sym outer product",
                left: (idx.len(), x.len()),
                right: (idx.len(), y.len()),
            });
        }
        for (p, &gp) in idx.iter().enumerate() {
            self.add(gp, gp, scale * x[p] * y[p])?;
            for (q, &gq) in idx.iter().enumerate().skip(p + 1) {
                self.add(gq, gp, scale * (x[p] * y[q] + x[q] * y[p]))?;
            }
        }
        Ok(())
    }

    /// Expands the packed entries into the full symmetric matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.dim, |i, j| self.data[packed_index(i, j)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_indexing_is_row_major_and_symmetric() {
        assert_eq!(packed_length(4), 10);
        assert_eq!(packed_index(0, 0), 0);
        assert_eq!(packed_index(1, 0), 1);
        assert_eq!(packed_index(1, 1), 2);
        assert_eq!(packed_index(3, 2), 8);
        assert_eq!(packed_index(2, 3), 8);
        // Row-major enumeration hits every slot exactly once, in order.
        let mut k = 0;
        for i in 0..4 {
            for j in 0..=i {
                assert_eq!(packed_index(i, j), k);
                k += 1;
            }
        }
    }

    #[test]
    fn add_accumulates_into_the_shared_slot() {
        let mut g = PackedLowerTriangle::zeros(3);
        g.add(0, 2, 1.5).unwrap();
        g.add(2, 0, 0.5).unwrap();
        g.add(1, 1, -1.0).unwrap();
        assert_eq!(g.as_slice()[packed_index(2, 0)], 2.0);
        assert_eq!(g.as_slice()[packed_index(1, 1)], -1.0);
        assert_eq!(g.dim(), 3);
        assert!(g.add(3, 0, 1.0).is_err());
        let m = g.to_matrix();
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(2, 0)], 2.0);
    }

    #[test]
    fn sym_outer_matches_finite_differences_of_the_quadratic_form() {
        // f(A) = x^T A y over the packed parameters of a 4x4 symmetric A,
        // restricted to the coordinate subset {0, 2, 3}.
        let idx = [0usize, 2, 3];
        let x = [0.7, -1.2, 0.4];
        let y = [0.3, 0.9, -0.5];
        let mut g = PackedLowerTriangle::zeros(4);
        g.add_sym_outer(2.0, &idx, &x, &y).unwrap();

        let f = |packed: &[f64]| {
            // Rebuild A and evaluate 2 * x^T A y on the subset.
            let mut total = 0.0;
            for (p, &gp) in idx.iter().enumerate() {
                for (q, &gq) in idx.iter().enumerate() {
                    total += x[p] * packed[packed_index(gp, gq)] * y[q];
                }
            }
            2.0 * total
        };
        let mut params = vec![0.1; packed_length(4)];
        for slot in 0..packed_length(4) {
            let h = 1e-6;
            let orig = params[slot];
            params[slot] = orig + h;
            let plus = f(&params);
            params[slot] = orig - h;
            let minus = f(&params);
            params[slot] = orig;
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (g.as_slice()[slot] - fd).abs() < 1e-8,
                "slot {slot}: analytic {} vs fd {fd}",
                g.as_slice()[slot]
            );
        }
    }

    #[test]
    fn sym_outer_with_equal_vectors_is_the_rank_one_rule() {
        let idx = [1usize, 2];
        let a = [2.0, 3.0];
        let mut g = PackedLowerTriangle::zeros(3);
        g.add_sym_outer(1.0, &idx, &a, &a).unwrap();
        assert_eq!(g.as_slice()[packed_index(1, 1)], 4.0);
        assert_eq!(g.as_slice()[packed_index(2, 2)], 9.0);
        assert_eq!(g.as_slice()[packed_index(2, 1)], 12.0);
        assert!(g.add_sym_outer(1.0, &idx, &a, &[1.0]).is_err());
    }

    #[test]
    fn sym_outer_rejects_indices_outside_the_triangle() {
        let mut g = PackedLowerTriangle::zeros(2);
        assert!(g
            .add_sym_outer(1.0, &[0, 2], &[1.0, 1.0], &[1.0, 1.0])
            .is_err());
        assert_eq!(packed_length(0), 0);
        assert_eq!(PackedLowerTriangle::zeros(0).to_matrix().shape(), (0, 0));
    }
}
