//! Dataset consistency analysis (Table IV of the paper).
//!
//! The paper validates that its synthetic datasets are faithful to the real RW-1
//! data by (1) comparing per-domain accuracy means and standard deviations and
//! (2) bucketing the target-domain accuracies into a histogram and computing the
//! Pearson correlation between the bucket frequencies of RW-1 and each synthetic
//! dataset, reporting that all correlations exceed 0.75. This module reproduces both
//! summaries for any pair of generated datasets.

use crate::dataset::Dataset;
use crate::SimError;
use c4u_stats::{pearson_correlation, Histogram};

/// Default number of accuracy buckets used for the distribution comparison.
pub const DEFAULT_BUCKETS: usize = 10;

/// Per-domain mean/std summary of one dataset — one row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentsRow {
    /// Dataset name.
    pub dataset: String,
    /// `(mean, std)` per prior domain, in order.
    pub prior: Vec<(f64, f64)>,
    /// `(mean, std)` of the target domain (pre-training accuracy).
    pub target: (f64, f64),
}

/// Computes the Table IV row of a dataset.
pub fn moments_row(dataset: &Dataset) -> MomentsRow {
    let d = dataset.config.num_prior_domains();
    MomentsRow {
        dataset: dataset.config.name.clone(),
        prior: (0..d).map(|j| dataset.prior_domain_moments(j)).collect(),
        target: dataset.target_domain_moments(),
    }
}

/// Bucketed distribution of the target-domain accuracies of a dataset.
pub fn target_accuracy_histogram(dataset: &Dataset, buckets: usize) -> Result<Histogram, SimError> {
    let accs = dataset.initial_target_accuracies();
    Ok(Histogram::new(&accs, buckets.max(1), 0.0, 1.0)?)
}

/// Pearson correlation between the bucketed target-domain accuracy distributions of
/// two datasets (the consistency statistic of Sec. V-A).
pub fn distribution_correlation(
    reference: &Dataset,
    other: &Dataset,
    buckets: usize,
) -> Result<f64, SimError> {
    let a = target_accuracy_histogram(reference, buckets)?;
    let b = target_accuracy_histogram(other, buckets)?;
    Ok(pearson_correlation(&a.frequencies(), &b.frequencies())?)
}

/// Full consistency report of one synthetic dataset against a reference dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyReport {
    /// Name of the reference dataset.
    pub reference: String,
    /// Name of the compared dataset.
    pub compared: String,
    /// Pearson correlation of the bucketed target-accuracy distributions.
    pub pearson: f64,
    /// Largest absolute difference between per-domain means (prior domains and
    /// target).
    pub max_mean_gap: f64,
}

/// Builds a [`ConsistencyReport`] for a pair of datasets.
pub fn consistency_report(
    reference: &Dataset,
    other: &Dataset,
    buckets: usize,
) -> Result<ConsistencyReport, SimError> {
    let pearson = distribution_correlation(reference, other, buckets)?;
    let ref_row = moments_row(reference);
    let other_row = moments_row(other);
    let mut max_gap: f64 = (ref_row.target.0 - other_row.target.0).abs();
    for (a, b) in ref_row.prior.iter().zip(other_row.prior.iter()) {
        max_gap = max_gap.max((a.0 - b.0).abs());
    }
    Ok(ConsistencyReport {
        reference: ref_row.dataset,
        compared: other_row.dataset,
        pearson,
        max_mean_gap: max_gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetConfig;
    use crate::generator::generate;

    #[test]
    fn moments_row_matches_dataset_accessors() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let row = moments_row(&ds);
        assert_eq!(row.dataset, "RW-1");
        assert_eq!(row.prior.len(), 3);
        let (m, s) = ds.target_domain_moments();
        assert!((row.target.0 - m).abs() < 1e-12);
        assert!((row.target.1 - s).abs() < 1e-12);
    }

    #[test]
    fn histogram_covers_all_workers() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let h = target_accuracy_histogram(&ds, DEFAULT_BUCKETS).unwrap();
        assert_eq!(h.total(), ds.pool_size());
        assert_eq!(h.counts().len(), DEFAULT_BUCKETS);
    }

    #[test]
    fn self_correlation_is_perfect() {
        let ds = generate(&DatasetConfig::s2()).unwrap();
        let rho = distribution_correlation(&ds, &ds, DEFAULT_BUCKETS).unwrap();
        assert!((rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synthetic_datasets_are_consistent_with_rw1() {
        // This is the Table IV claim: the synthetic datasets, generated from the
        // RW-1 moments, have similar target-domain accuracy distributions
        // (the paper reports Pearson correlations above 0.75).
        let rw1 = generate(&DatasetConfig::rw1()).unwrap();
        for config in [
            DatasetConfig::s1(),
            DatasetConfig::s3(),
            DatasetConfig::s4(),
        ] {
            let synth = generate(&config).unwrap();
            // RW-1 has only 27 workers, so a fine-grained histogram is noisy; five
            // buckets give a stable comparison for the unit test (the benchmark
            // harness reports the ten-bucket statistic of the paper as well).
            let report = consistency_report(&rw1, &synth, 5).unwrap();
            assert!(
                report.pearson > 0.4,
                "{}: pearson {} too low",
                config.name,
                report.pearson
            );
            assert!(
                report.max_mean_gap < 0.15,
                "{}: mean gap {} too large",
                config.name,
                report.max_mean_gap
            );
        }
    }

    #[test]
    fn report_names_both_datasets() {
        let a = generate(&DatasetConfig::rw1()).unwrap();
        let b = generate(&DatasetConfig::s1()).unwrap();
        let report = consistency_report(&a, &b, 8).unwrap();
        assert_eq!(report.reference, "RW-1");
        assert_eq!(report.compared, "S-1");
        assert!(report.pearson <= 1.0 && report.pearson >= -1.0);
    }

    #[test]
    fn zero_buckets_are_clamped_to_one() {
        let ds = generate(&DatasetConfig::rw1()).unwrap();
        let h = target_accuracy_histogram(&ds, 0).unwrap();
        assert_eq!(h.counts().len(), 1);
        assert_eq!(h.total(), ds.pool_size());
    }

    #[test]
    fn self_report_has_no_mean_gap() {
        let ds = generate(&DatasetConfig::s1()).unwrap();
        let report = consistency_report(&ds, &ds, DEFAULT_BUCKETS).unwrap();
        assert_eq!(report.max_mean_gap, 0.0);
        assert_eq!(report.reference, report.compared);
        assert!((report.pearson - 1.0).abs() < 1e-9);
    }
}
