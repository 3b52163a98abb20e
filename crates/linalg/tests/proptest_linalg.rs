//! Property-based tests for the linear-algebra substrate.
//!
//! The invariants checked here are the ones the statistical layer leans on:
//! `A * A^{-1} = I`, `solve` really solves, Cholesky reconstruction, transpose
//! involution, and dot-product symmetry.

use c4u_linalg::{inverse, solve, Cholesky, Matrix, Vector};
use proptest::prelude::*;

/// Strategy producing small well-scaled vectors.
fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, len)
}

/// Builds a symmetric positive-definite matrix `B^T B + n*I` from arbitrary entries.
fn spd_from_entries(n: usize, entries: &[f64]) -> Matrix {
    let b = Matrix::from_row_major(n, n, entries.to_vec()).unwrap();
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
        let roundtrip = va.add(&vb).unwrap().sub(&vb).unwrap();
        prop_assert!(roundtrip.max_abs_diff(&va).unwrap() < 1e-9);
    }

    #[test]
    fn transpose_is_involution(entries in vec_strategy(12)) {
        let m = Matrix::from_row_major(3, 4, entries).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(entries in vec_strategy(9)) {
        let m = Matrix::from_row_major(3, 3, entries).unwrap();
        let id = Matrix::identity(3);
        prop_assert!(m.matmul(&id).unwrap().max_abs_diff(&m).unwrap() < 1e-12);
        prop_assert!(id.matmul(&m).unwrap().max_abs_diff(&m).unwrap() < 1e-12);
    }

    #[test]
    fn lu_solve_solves(entries in vec_strategy(9), rhs in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let b = Vector::from_vec(rhs);
        let x = solve(&a, &b).unwrap();
        let back = a.matvec(&x).unwrap();
        prop_assert!(back.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn lu_inverse_is_inverse(entries in vec_strategy(9)) {
        let a = spd_from_entries(3, &entries);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-6);
    }

    #[test]
    fn cholesky_reconstructs_spd(entries in vec_strategy(16)) {
        let a = spd_from_entries(4, &entries);
        let chol = Cholesky::new(&a).unwrap();
        prop_assert!(chol.reconstruct().max_abs_diff(&a).unwrap() < 1e-7);
    }

    #[test]
    fn cholesky_solve_agrees_with_lu(entries in vec_strategy(9), rhs in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let b = Vector::from_vec(rhs);
        let x_c = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_l = solve(&a, &b).unwrap();
        prop_assert!(x_c.max_abs_diff(&x_l).unwrap() < 1e-6);
    }

    #[test]
    fn mahalanobis_is_nonnegative(entries in vec_strategy(9), d in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let chol = Cholesky::new(&a).unwrap();
        let m = chol.mahalanobis_squared(&Vector::from_vec(d)).unwrap();
        prop_assert!(m >= -1e-12);
    }

    #[test]
    fn quadratic_form_of_spd_is_nonnegative(entries in vec_strategy(9), v in vec_strategy(3)) {
        let a = spd_from_entries(3, &entries);
        let q = a.quadratic_form(&Vector::from_vec(v)).unwrap();
        prop_assert!(q >= -1e-9);
    }
}
