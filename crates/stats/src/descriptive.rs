//! Descriptive statistics: moments, quantiles, Pearson correlation, and histograms.
//!
//! The dataset-consistency analysis of the paper (Table IV) reports per-domain means
//! and standard deviations, buckets worker accuracies into histograms, and computes
//! Pearson correlations between the real and synthetic accuracy distributions; the
//! functions here implement exactly those summaries.

use crate::StatsError;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

/// Unbiased (n-1) sample variance; `0.0` when fewer than two points are given.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Median of the data; `None` for an empty slice.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// Linear-interpolation quantile (type-7, the numpy default); `None` for an empty
/// slice or a `q` outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) || q.is_nan() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Minimum of the data; `None` for an empty slice.
pub fn min(data: &[f64]) -> Option<f64> {
    data.iter().copied().reduce(f64::min)
}

/// Maximum of the data; `None` for an empty slice.
pub fn max(data: &[f64]) -> Option<f64> {
    data.iter().copied().reduce(f64::max)
}

/// Pearson product-moment correlation between two equal-length samples.
///
/// Returns an error on length mismatch or fewer than two points; returns `0.0` when
/// either sample is constant (zero variance), which is the conventional choice for
/// the bucketed-histogram comparison the paper performs.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: x.len(),
        });
    }
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let dx = a - mx;
        let dy = b - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

/// Sample covariance between two equal-length samples (unbiased, n-1).
pub fn covariance(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: x.len(),
        });
    }
    let mx = mean(x);
    let my = mean(y);
    let sum: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(a, b)| (a - mx) * (b - my))
        .sum();
    Ok(sum / (x.len() - 1) as f64)
}

/// A fixed-width histogram over `[lower, upper)` used to bucket annotation accuracies
/// (the paper buckets target-domain accuracy before computing Pearson correlations
/// between RW-1 and each synthetic dataset).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lower: f64,
    upper: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram of `data` with `bins` equal-width buckets over
    /// `[lower, upper)`. Values outside the range are clamped into the first/last
    /// bucket so that no observation is silently dropped.
    pub fn new(data: &[f64], bins: usize, lower: f64, upper: f64) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                what: "histogram needs at least one bin",
                value: 0.0,
            });
        }
        if lower.is_nan() || upper.is_nan() || lower >= upper {
            return Err(StatsError::InvalidParameter {
                what: "histogram bounds must satisfy lower < upper",
                value: upper - lower,
            });
        }
        let mut counts = vec![0usize; bins];
        let width = (upper - lower) / bins as f64;
        for &x in data {
            let idx = if x <= lower {
                0
            } else if x >= upper {
                bins - 1
            } else {
                (((x - lower) / width) as usize).min(bins - 1)
            };
            counts[idx] += 1;
        }
        Ok(Self {
            lower,
            upper,
            counts,
        })
    }

    /// Raw counts per bucket.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Counts normalised to relative frequencies (they sum to 1 unless empty).
    pub fn frequencies(&self) -> Vec<f64> {
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 6] = [2.0, 4.0, 4.0, 4.0, 5.0, 7.0];

    #[test]
    fn moments() {
        assert!((mean(&DATA) - 26.0 / 6.0).abs() < 1e-12);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantiles_and_median() {
        assert_eq!(median(&[1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(min(&DATA), Some(2.0));
        assert_eq!(max(&DATA), Some(7.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0];
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&x, &y_pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_handles_edge_cases() {
        let x = [1.0, 2.0, 3.0];
        assert!(pearson_correlation(&x, &[1.0, 2.0]).is_err());
        assert!(pearson_correlation(&[1.0], &[1.0]).is_err());
        // Constant series → conventionally 0.
        assert_eq!(pearson_correlation(&x, &[5.0, 5.0, 5.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson_correlation(&x, &y).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn covariance_matches_variance_on_self() {
        let x = [1.0, 2.0, 3.0, 7.0];
        assert!((covariance(&x, &x).unwrap() - variance(&x)).abs() < 1e-12);
        assert!(covariance(&x, &[1.0]).is_err());
        assert!(covariance(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn histogram_bucketing() {
        let data = [0.05, 0.15, 0.15, 0.95, 1.2, -0.3];
        let h = Histogram::new(&data, 10, 0.0, 1.0).unwrap();
        assert_eq!(h.counts().len(), 10);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 2); // 0.05 and the clamped -0.3
        assert_eq!(h.counts()[1], 2); // both 0.15
        assert_eq!(h.counts()[9], 2); // 0.95 and the clamped 1.2
        let freq = h.frequencies();
        assert!((freq.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_validation_and_empty() {
        assert!(Histogram::new(&[1.0], 0, 0.0, 1.0).is_err());
        assert!(Histogram::new(&[1.0], 5, 1.0, 0.0).is_err());
        let h = Histogram::new(&[], 4, 0.0, 1.0).unwrap();
        assert_eq!(h.total(), 0);
        assert_eq!(h.frequencies(), vec![0.0; 4]);
    }

    #[test]
    fn covariance_known_value() {
        // Means 2 and 13/3: ((-1)(-7/3) + 0 + (1)(8/3)) / 2 = 2.5.
        let c = covariance(&[1.0, 2.0, 3.0], &[2.0, 4.0, 7.0]).unwrap();
        assert!((c - 2.5).abs() < 1e-12);
        assert_eq!(covariance(&[1.0, 2.0], &[5.0, 5.0]).unwrap(), 0.0);
    }

    #[test]
    fn quantile_sorts_its_input_and_rejects_a_nan_level() {
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
        assert_eq!(quantile(&[4.0, 0.0], 0.75), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0], f64::NAN), None);
        assert_eq!(quantile(&[1.0, 2.0], -0.1), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn histogram_interior_edges_go_to_the_upper_bin() {
        let h = Histogram::new(&[0.5, 0.25, 0.75], 4, 0.0, 1.0).unwrap();
        assert_eq!(h.counts(), &[0, 1, 1, 1]);
        assert!(Histogram::new(&[], 3, f64::NAN, 1.0).is_err());
        assert!(Histogram::new(&[], 3, 0.0, f64::NAN).is_err());
        assert!(Histogram::new(&[], 3, 1.0, 1.0).is_err());
    }

    #[test]
    fn pearson_is_invariant_under_positive_affine_maps() {
        let x = [0.1, 0.7, 0.3, 0.9, 0.5];
        let y = [0.2, 0.6, 0.1, 0.8, 0.7];
        let r = pearson_correlation(&x, &y).unwrap();
        let shifted: Vec<f64> = y.iter().map(|v| 3.0 * v - 1.0).collect();
        assert!((pearson_correlation(&x, &shifted).unwrap() - r).abs() < 1e-12);
        let flipped: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson_correlation(&x, &flipped).unwrap() + r).abs() < 1e-12);
    }
}
