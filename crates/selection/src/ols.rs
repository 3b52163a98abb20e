//! Ordinary least squares (multiple linear regression) for the Li et al.
//! baseline.
//!
//! The Li et al. baseline of the paper (Sec. V-B) "adopts linear regression on the
//! multiple features of workers and then selects workers based on the regressed
//! values", with the historical per-domain accuracies as features. This module
//! implements that regression: an intercept plus one coefficient per feature, fitted
//! by solving the normal equations with a Cholesky factorisation of the Gram matrix
//! (symmetric by construction) and a ridge fallback when the design matrix is
//! (near-)rank-deficient — which happens routinely when every recruited worker has a
//! similar profile.

use crate::SelectionError;
use c4u_linalg::{Cholesky, Matrix, Vector};

/// A fitted ordinary-least-squares model `y ≈ intercept + x · coefficients`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearRegression {
    intercept: f64,
    coefficients: Vec<f64>,
}

impl LinearRegression {
    /// Fits a linear model to `(features, targets)` pairs.
    ///
    /// * `features` — one row per observation, all rows the same length;
    /// * `targets` — one response per observation.
    ///
    /// A tiny ridge penalty (`1e-8` times the mean diagonal of the Gram matrix,
    /// growing tenfold for up to three tries) is added automatically if the
    /// Gram matrix is not numerically positive definite.
    pub(crate) fn fit(features: &[Vec<f64>], targets: &[f64]) -> Result<Self, SelectionError> {
        if features.len() != targets.len() {
            return Err(dimension_mismatch(
                "features and targets must have the same number of rows",
                features.len(),
                targets.len(),
            ));
        }
        let n = features.len();
        if n == 0 {
            return Err(SelectionError::NotEnoughData { needed: 1, got: 0 });
        }
        let p = features[0].len();
        if let Some(row) = features.iter().find(|row| row.len() != p) {
            return Err(dimension_mismatch(
                "all feature rows must have the same length",
                p,
                row.len(),
            ));
        }
        if n < p + 1 {
            // Not strictly required thanks to the ridge fallback, but fitting more
            // parameters than observations is a caller bug in this workspace.
            return Err(SelectionError::NotEnoughData {
                needed: p + 1,
                got: n,
            });
        }

        // Design matrix with a leading intercept column.
        let x = Matrix::from_fn(
            n,
            p + 1,
            |i, j| if j == 0 { 1.0 } else { features[i][j - 1] },
        );
        let y = Vector::from_slice(targets);
        let xt = x.transpose();
        let gram = xt.matmul(&x)?;
        let rhs = xt.matvec(&y)?;

        let beta = Cholesky::new_with_jitter(&gram, 1e-8, 3)
            .and_then(|chol| chol.solve(&rhs))
            .map_err(|_| {
                SelectionError::Numerical("design matrix is rank deficient".to_string())
            })?;

        let intercept = beta[0];
        let coefficients: Vec<f64> = (1..=p).map(|j| beta[j]).collect();

        Ok(Self {
            intercept,
            coefficients,
        })
    }

    /// Predicts the response for one feature row.
    ///
    /// Rows shorter than the fitted coefficient vector are treated as having zeros in
    /// the missing positions (this is how workers lacking some prior-domain history
    /// are scored by the Li et al. baseline); longer rows are an error.
    pub(crate) fn predict(&self, features: &[f64]) -> Result<f64, SelectionError> {
        if features.len() > self.coefficients.len() {
            return Err(dimension_mismatch(
                "feature row longer than fitted coefficients",
                features.len(),
                self.coefficients.len(),
            ));
        }
        Ok(self.intercept
            + features
                .iter()
                .zip(self.coefficients.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>())
    }
}

fn dimension_mismatch(what: &str, left: usize, right: usize) -> SelectionError {
    SelectionError::Numerical(format!("dimension mismatch: {what} ({left} vs {right})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coefficient of determination of `model` on its training data.
    fn r_squared(model: &LinearRegression, features: &[Vec<f64>], targets: &[f64]) -> f64 {
        let mean_y = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (row, &t) in features.iter().zip(targets.iter()) {
            let pred = model.predict(row).unwrap();
            ss_res += (t - pred) * (t - pred);
            ss_tot += (t - mean_y) * (t - mean_y);
        }
        if ss_tot <= 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        }
    }

    #[test]
    fn exact_linear_relationship_is_recovered() {
        // y = 2 + 3a - b
        let features = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 1.0],
            vec![3.0, 5.0],
            vec![-1.0, 2.0],
        ];
        let targets: Vec<f64> = features.iter().map(|r| 2.0 + 3.0 * r[0] - r[1]).collect();
        let model = LinearRegression::fit(&features, &targets).unwrap();
        assert!((model.intercept - 2.0).abs() < 1e-8);
        assert!((model.coefficients[0] - 3.0).abs() < 1e-8);
        assert!((model.coefficients[1] + 1.0).abs() < 1e-8);
        assert!((r_squared(&model, &features, &targets) - 1.0).abs() < 1e-9);
        assert!((model.predict(&[4.0, 4.0]).unwrap() - (2.0 + 12.0 - 4.0)).abs() < 1e-8);
    }

    #[test]
    fn noisy_fit_has_reasonable_r_squared() {
        let features: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = features
            .iter()
            .enumerate()
            .map(|(i, r)| 1.0 + 0.5 * r[0] + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let model = LinearRegression::fit(&features, &targets).unwrap();
        assert!((model.coefficients[0] - 0.5).abs() < 0.05);
        assert!(r_squared(&model, &features, &targets) > 0.95);
    }

    #[test]
    fn validation_errors() {
        assert!(LinearRegression::fit(&[], &[]).is_err());
        assert!(LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(LinearRegression::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
        // More parameters than observations.
        assert!(LinearRegression::fit(&[vec![1.0, 2.0, 3.0]], &[1.0]).is_err());
    }

    #[test]
    fn collinear_features_fall_back_to_ridge() {
        // Second column is exactly twice the first: the Gram matrix is singular.
        let features = vec![
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
        ];
        let targets = vec![1.0, 2.0, 3.0, 4.0];
        let model = LinearRegression::fit(&features, &targets).unwrap();
        // Predictions should still be accurate even though individual coefficients
        // are not identifiable.
        for (row, &t) in features.iter().zip(targets.iter()) {
            assert!((model.predict(row).unwrap() - t).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_target_yields_full_r_squared() {
        let features = vec![vec![1.0], vec![2.0], vec![3.0]];
        let targets = vec![5.0, 5.0, 5.0];
        let model = LinearRegression::fit(&features, &targets).unwrap();
        assert!((model.predict(&[10.0]).unwrap() - 5.0).abs() < 1e-6);
        assert_eq!(r_squared(&model, &features, &targets), 1.0);
    }

    #[test]
    fn short_feature_rows_are_padded_with_zeros() {
        let features = vec![
            vec![1.0, 1.0],
            vec![2.0, 0.0],
            vec![0.0, 2.0],
            vec![1.0, 3.0],
        ];
        let targets = vec![2.0, 2.0, 2.0, 4.0];
        let model = LinearRegression::fit(&features, &targets).unwrap();
        // Missing second feature treated as zero.
        let full = model.predict(&[1.0, 0.0]).unwrap();
        let short = model.predict(&[1.0]).unwrap();
        assert!((full - short).abs() < 1e-12);
        assert!(model.predict(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn intercept_only_model() {
        let features = vec![vec![], vec![], vec![]];
        let targets = vec![1.0, 2.0, 3.0];
        let model = LinearRegression::fit(&features, &targets).unwrap();
        assert!((model.intercept - 2.0).abs() < 1e-9);
        assert!((model.predict(&[]).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_matches_its_definition() {
        let features = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let targets = [1.0, 2.5, 2.0, 4.5, 4.0];
        let model = LinearRegression::fit(&features, &targets).unwrap();
        // Residuals -0.2, 0.5, -0.8, 0.9, -0.4 around the fitted line and a
        // mean of 2.8: R^2 = 1 - 1.9 / 8.3.
        assert!((r_squared(&model, &features, &targets) - (1.0 - 1.9 / 8.3)).abs() < 1e-12);
        // Slope 0.8, intercept 1.2 by the closed form.
        assert!((model.coefficients[0] - 0.8).abs() < 1e-12);
        assert!((model.intercept - 1.2).abs() < 1e-12);
    }
}
