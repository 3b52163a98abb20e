//! Dense, heap-allocated `f64` vectors.
//!
//! [`Vector`] is a thin wrapper around `Vec<f64>` with the numeric operations the
//! statistical code needs: dot products, element-wise arithmetic, and a few
//! reductions. All binary operations validate dimensions and return
//! [`LinalgError::DimensionMismatch`] rather than panicking.

use crate::error::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// A dense column vector of `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Builds a vector by evaluating `f` at indices `0..n`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns element `i`, or an error if out of bounds.
    pub fn get(&self, i: usize) -> Result<f64> {
        self.data.get(i).copied().ok_or(LinalgError::OutOfBounds {
            index: i,
            len: self.data.len(),
        })
    }

    /// Sets element `i`, or returns an error if out of bounds.
    pub fn set(&mut self, i: usize, value: f64) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(i) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(LinalgError::OutOfBounds { index: i, len }),
        }
    }

    /// Returns an iterator over elements.
    pub fn iter(&self) -> impl Iterator<Item = &f64> {
        self.data.iter()
    }

    fn check_same_len(&self, other: &Self, op: &'static str) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op,
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(())
    }

    /// Dot product with another vector.
    pub fn dot(&self, other: &Self) -> Result<f64> {
        self.check_same_len(other, "dot")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.check_same_len(other, "add")?;
        Ok(Self::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        ))
    }

    /// Multiplies every element by a scalar, returning a new vector.
    pub fn scale(&self, s: f64) -> Self {
        Self::from_vec(self.data.iter().map(|x| x * s).collect())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; zero for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Minimum element, or `None` for the empty vector.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// Maximum element, or `None` for the empty vector.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Returns a new vector with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self::from_vec(self.data.iter().map(|&x| f(x)).collect())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Returns the sub-vector with the elements at `indices`, in order.
    pub fn select(&self, indices: &[usize]) -> Result<Self> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i)?);
        }
        Ok(Self::from_vec(out))
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self::from_vec(data)
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self::from_slice(data)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_len() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(Vector::zeros(4).as_slice(), &[0.0; 4]);
        let f = Vector::from_fn(3, |i| i as f64 * 2.0);
        assert_eq!(f.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn get_set_bounds() {
        let mut v = Vector::zeros(2);
        v.set(1, 5.0).unwrap();
        assert!(close(v.get(1).unwrap(), 5.0));
        assert!(v.get(2).is_err());
        assert!(v.set(9, 1.0).is_err());
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert!(close(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0));
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let v = Vector::from_slice(&[2.0, -1.0, 5.0]);
        assert!(close(v.sum(), 6.0));
        assert!(close(v.mean(), 2.0));
        assert_eq!(v.min(), Some(-1.0));
        assert_eq!(v.max(), Some(5.0));
        assert!(close(Vector::zeros(0).mean(), 0.0));
        assert_eq!(Vector::zeros(0).min(), None);
    }

    #[test]
    fn map_and_clamp() {
        let v = Vector::from_slice(&[-1.0, 0.5, 2.0]);
        assert_eq!(v.map(|x| x * x).as_slice(), &[1.0, 0.25, 4.0]);
        assert_eq!(v.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn select_subset() {
        let v = Vector::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        let s = v.select(&[3, 0]).unwrap();
        assert_eq!(s.as_slice(), &[40.0, 10.0]);
        assert!(v.select(&[9]).is_err());
    }

    #[test]
    fn non_finite_detection() {
        assert!(!Vector::from_slice(&[1.0, 2.0]).has_non_finite());
        assert!(Vector::from_slice(&[1.0, f64::NAN]).has_non_finite());
        assert!(Vector::from_slice(&[f64::INFINITY]).has_non_finite());
    }

    #[test]
    fn indexing_and_from_iter() {
        let mut v: Vector = vec![1.0, 2.0, 3.0].into();
        v[0] = 9.0;
        assert!(close(v[0], 9.0));
        let w: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(w.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn elementwise_ops_reject_mismatched_lengths() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn slices_and_iteration_share_storage() {
        let mut v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        v.as_mut_slice()[1] = -2.0;
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![1.0, -2.0, 3.0]);
        assert_eq!(Vector::from(&[1.0, -2.0, 3.0][..]), v);
        assert!(Vector::zeros(0).is_empty());
    }
}
