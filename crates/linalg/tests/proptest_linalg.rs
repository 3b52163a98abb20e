//! Property-based tests for the linear-algebra substrate.
//!
//! The invariants checked here are the ones the statistical layer leans on:
//! the Cholesky solve really solves, Cholesky reconstruction, transpose
//! involution, and dot-product symmetry.

use c4u_linalg::{Cholesky, Matrix, Vector};
use proptest::prelude::*;

/// Strategy producing small well-scaled vectors.
fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, len)
}

/// Largest element-wise difference of two equally long slices.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0, |acc, (x, y)| acc.max((x - y).abs()))
}

/// The `rows x cols` matrix holding `entries` row by row.
fn row_major(rows: usize, cols: usize, entries: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| entries[i * cols + j])
}

/// Builds a symmetric positive-definite matrix `B^T B + n*I` from arbitrary entries.
fn spd_from_entries(n: usize, entries: &[f64]) -> Matrix {
    let b = row_major(n, n, entries);
    let bt_b = b.transpose().matmul(&b).unwrap();
    bt_b.add(&Matrix::identity(n).scale(n as f64)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dot_product_is_symmetric(a in vec_strategy(5), b in vec_strategy(5)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let ab = va.dot(&vb).unwrap();
        let ba = vb.dot(&va).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn vector_add_sub_roundtrip(a in vec_strategy(6), b in vec_strategy(6)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let roundtrip = va.add(&vb).unwrap().add(&vb.scale(-1.0)).unwrap();
        prop_assert!(max_abs_diff(roundtrip.as_slice(), va.as_slice()) < 1e-9);
    }

    #[test]
    fn transpose_is_involution(entries in vec_strategy(12)) {
        let m = row_major(3, 4, &entries);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(entries in vec_strategy(9)) {
        let m = row_major(3, 3, &entries);
        let id = Matrix::identity(3);
        prop_assert!(max_abs_diff(m.matmul(&id).unwrap().as_slice(), m.as_slice()) < 1e-12);
        prop_assert!(max_abs_diff(id.matmul(&m).unwrap().as_slice(), m.as_slice()) < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs_spd(entries in vec_strategy(16)) {
        let a = spd_from_entries(4, &entries);
        let l = Cholesky::new(&a).unwrap().l().clone();
        let back = l.matmul(&l.transpose()).unwrap();
        prop_assert!(max_abs_diff(back.as_slice(), a.as_slice()) < 1e-7);
    }

    #[test]
    fn cholesky_solve_solves(entries in vec_strategy(9), rhs in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let b = Vector::from_vec(rhs);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        prop_assert!(max_abs_diff(back.as_slice(), b.as_slice()) < 1e-6);
    }

    #[test]
    fn quadratic_form_of_spd_is_nonnegative(entries in vec_strategy(9), v in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let v = Vector::from_vec(v);
        let q = v.dot(&a.matvec(&v).unwrap()).unwrap();
        prop_assert!(q >= -1e-9);
    }
}
