//! PSD repair of covariance iterates.
//!
//! The CPE fit needs its covariance iterates projected into the PSD cone, with
//! a variance floor; the projection lives here, on top of the `c4u-linalg`
//! matrix type.

use crate::StatsError;
use c4u_linalg::{Cholesky, Matrix};

/// Returns a positive-definite matrix close to `m`: the input is symmetrised,
/// correlations are clamped to `[-0.999, 0.999]`, variances floored at `min_variance`,
/// and diagonal jitter is added until a Cholesky factorisation succeeds.
///
/// This is the projection step applied to the initial CPE covariance and after
/// every M-step of its EM fit, keeping the iterate a valid covariance matrix.
pub fn nearest_positive_definite(m: &Matrix, min_variance: f64) -> Result<Matrix, StatsError> {
    if !m.is_square() {
        return Err(StatsError::DimensionMismatch {
            what: "nearest_positive_definite requires a square matrix",
            left: m.nrows(),
            right: m.ncols(),
        });
    }
    let d = m.nrows();
    let sym = m
        .symmetrize()
        .map_err(|e| StatsError::Numerical(e.to_string()))?;
    // Floor the variances, clamp implied correlations.
    let mut vars = vec![0.0; d];
    for (i, v) in vars.iter_mut().enumerate() {
        *v = sym[(i, i)].max(min_variance.max(1e-12));
    }
    let mut repaired = Matrix::from_fn(d, d, |i, j| {
        if i == j {
            vars[i]
        } else {
            let s = (vars[i] * vars[j]).sqrt();
            (sym[(i, j)] / s).clamp(-0.999, 0.999) * s
        }
    });
    // Jitter until Cholesky succeeds.
    let mut jitter = 0.0;
    let base = vars.iter().sum::<f64>() / d as f64;
    for _ in 0..16 {
        let candidate = if jitter == 0.0 {
            repaired.clone()
        } else {
            repaired
                .add_diagonal(jitter)
                .map_err(|e| StatsError::Numerical(e.to_string()))?
        };
        if Cholesky::new(&candidate).is_ok() {
            repaired = candidate;
            return Ok(repaired);
        }
        jitter = if jitter == 0.0 {
            base * 1e-10
        } else {
            jitter * 10.0
        };
    }
    Err(StatsError::Numerical(
        "could not repair matrix into the PSD cone".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4u_linalg::Vector;

    #[test]
    fn nearest_psd_fixes_indefinite_input() {
        // Correlation > 1 in disguise: not PSD.
        let bad = Matrix::from_rows(&[vec![0.04, 0.09], vec![0.09, 0.04]]).unwrap();
        let fixed = nearest_positive_definite(&bad, 1e-6).unwrap();
        assert!(Cholesky::new(&fixed).is_ok());
        // Diagonal preserved (floored), correlations clamped.
        assert!((fixed[(0, 0)] - 0.04).abs() < 1e-9);
        assert!(fixed[(0, 1)].abs() <= 0.999 * 0.04 + 1e-9);
    }

    #[test]
    fn nearest_psd_is_noop_for_valid_covariance() {
        let good = Matrix::from_rows(&[vec![0.04, 0.01], vec![0.01, 0.09]]).unwrap();
        let fixed = nearest_positive_definite(&good, 1e-9).unwrap();
        for (got, want) in fixed.as_slice().iter().zip(good.as_slice()) {
            assert!((got - want).abs() < 1e-9);
        }
        assert!(nearest_positive_definite(&Matrix::zeros(2, 3), 1e-9).is_err());
    }

    #[test]
    fn nearest_psd_floors_variances() {
        let tiny = Matrix::from_rows(&[vec![1e-20, 0.0], vec![0.0, 1.0]]).unwrap();
        let fixed = nearest_positive_definite(&tiny, 1e-4).unwrap();
        assert!(fixed[(0, 0)] >= 1e-4);
    }

    #[test]
    fn repaired_matrix_usable_by_mvn() {
        let bad = Matrix::from_rows(&[
            vec![0.05, 0.10, 0.02],
            vec![0.10, 0.05, 0.08],
            vec![0.02, 0.08, 0.03],
        ])
        .unwrap();
        let fixed = nearest_positive_definite(&bad, 1e-6).unwrap();
        let mvn = crate::MultivariateNormal::new(Vector::from_slice(&[0.5, 0.6, 0.7]), fixed);
        assert!(mvn.is_ok());
    }

    #[test]
    fn asymmetric_input_is_symmetrised() {
        let m = Matrix::from_rows(&[vec![0.04, 0.02], vec![0.0, 0.09]]).unwrap();
        let fixed = nearest_positive_definite(&m, 1e-9).unwrap();
        assert_eq!(fixed, fixed.transpose());
        assert!((fixed[(0, 1)] - 0.01).abs() < 1e-15);
        // A negative variance is floored before the correlations are rebuilt.
        let neg = Matrix::from_rows(&[vec![-1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(nearest_positive_definite(&neg, 0.25).unwrap()[(0, 0)], 0.25);
    }
}
