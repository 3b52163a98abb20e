//! The CPE EM fit across the paper's pools, checked update by update through
//! `CrossDomainEstimator::last_fit`.
//!
//! Every campaign runs the full method (CPE → LGE) with a stage that wraps
//! [`CpeStage`] and records, after each round's update, the fit summary, the
//! held mean vector and the fused log-likelihood of the held model. The
//! predictions the update returns (the stage's scores) must equal
//! `predict_batch` on the updated estimator bit for bit. In every update:
//!
//! * the log-likelihood of the kept model is at least the start's, and the
//!   kept model is the best iterate the fit evaluated;
//! * `Sigma_TT`, the variance of an accuracy in `[0, 1]`, is at most 0.25;
//! * every mean lies in `[0.01, 0.99]`;
//! * the fit ran at most `CpeConfig::epochs` epochs.
//!
//! The summaries must also be identical for every shard count.

use c4u_crowd_sim::{generate, Dataset, DatasetConfig, HistoricalProfile, Platform};
use c4u_selection::{
    CpeConfig, CpeFitSummary, CpeLikelihoodKernel, CpeObservation, CpeStage, CrossDomainEstimator,
    CrossDomainSelector, EstimationStage, LgeStage, RoundContext, SelectionError, SelectorConfig,
    StageInit, StagePipeline,
};
use c4u_stats::GaussLegendre;
use std::sync::{Arc, Mutex};

/// What one update left behind.
#[derive(Debug, Clone, PartialEq)]
struct Update {
    fit: CpeFitSummary,
    mean: Vec<f64>,
    /// The fused log-likelihood of the held model on the round's observations.
    held_log_likelihood: f64,
}

/// [`CpeStage`] plus a record of every update.
#[derive(Debug, Clone)]
struct RecordingCpe {
    inner: CpeStage,
    /// The stage's CPE configuration: the recorded likelihood is taken in
    /// its quadrature math, the one the fit compares its iterates in.
    config: CpeConfig,
    updates: Arc<Mutex<Vec<Update>>>,
}

impl EstimationStage for RecordingCpe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, init: &StageInit<'_>) -> Result<(), SelectionError> {
        self.inner.initialize(init)
    }

    fn estimate(
        &mut self,
        ctx: &RoundContext<'_>,
        prior: &[f64],
    ) -> Result<Vec<f64>, SelectionError> {
        let scores = self.inner.estimate(ctx, prior)?;
        let estimator = self.inner.estimator().expect("initialised");
        let observations: Vec<CpeObservation> = ctx
            .sheets
            .iter()
            .zip(ctx.profiles)
            .map(|(sheet, profile)| {
                CpeObservation::from_profile(profile, sheet.correct(), sheet.wrong())
            })
            .collect();
        // The update's predictions are those of the model it kept.
        assert_eq!(scores, estimator.predict_batch(&observations)?);
        let quadrature = GaussLegendre::new(CpeConfig::QUADRATURE_ORDER);
        let kernel = CpeLikelihoodKernel::new_with_math(
            &observations,
            estimator.num_prior_domains(),
            &quadrature,
            self.config.quadrature_math,
        );
        self.updates.lock().unwrap().push(Update {
            fit: *estimator.last_fit().expect("every round updates"),
            mean: estimator.mean().to_vec(),
            held_log_likelihood: kernel.e_step(estimator.model())?.log_likelihood,
        });
        Ok(scores)
    }

    fn target_correlations(&self) -> Option<Result<Vec<f64>, SelectionError>> {
        self.inner.target_correlations()
    }

    fn boxed_clone(&self) -> Box<dyn EstimationStage> {
        Box::new(self.clone())
    }
}

/// Runs the full method on `dataset` with `num_shards` shards and returns
/// every update it made.
fn updates(dataset: &Dataset, num_shards: usize) -> Vec<Update> {
    let config = SelectorConfig::default().with_num_shards(num_shards);
    let updates = Arc::new(Mutex::new(Vec::new()));
    let cpe = RecordingCpe {
        inner: CpeStage::new(config.cpe),
        config: config.cpe,
        updates: updates.clone(),
    };
    let pipeline = StagePipeline::new(vec![Box::new(cpe), Box::new(LgeStage::new())]).unwrap();
    let selector = CrossDomainSelector::with_pipeline(config, pipeline, "Ours");
    let mut platform = Platform::from_dataset(dataset, 11).unwrap();
    selector
        .run(&mut platform, dataset.config.select_k)
        .unwrap_or_else(|e| panic!("{}: {e}", dataset.config.name));
    let updates = updates.lock().unwrap().clone();
    assert!(!updates.is_empty());
    updates
}

fn assert_fits(name: &str, updates: &[Update]) {
    let cap = CpeConfig::default().epochs;
    for (round, update) in updates.iter().enumerate() {
        let fit = &update.fit;
        let at = format!("{name} round {}: {fit:?}", round + 1);
        assert!(fit.start_log_likelihood.is_finite(), "{at}");
        assert!(fit.best_log_likelihood >= fit.start_log_likelihood, "{at}");
        assert!(fit.best_log_likelihood >= fit.last_log_likelihood, "{at}");
        assert_eq!(update.held_log_likelihood, fit.best_log_likelihood, "{at}");
        assert!(fit.target_variance <= 0.25, "{at}");
        assert!(
            update.mean.iter().all(|m| (0.01..=0.99).contains(m)),
            "{at}: mean {:?}",
            update.mean
        );
        assert_eq!(update.mean.last(), Some(&fit.target_mean), "{at}");
        assert!((1..=cap).contains(&fit.epochs), "{at}");
        assert!(fit.falling_epochs <= fit.epochs, "{at}");
    }
}

/// The blanking of `tests/missing_domains.rs`: every third worker lacks
/// prior domain 1, every fifth lacks domains 0 and 2.
fn with_gaps(mut dataset: Dataset) -> Dataset {
    for (i, worker) in dataset.workers.iter_mut().enumerate() {
        let mut accs: Vec<Option<f64>> = (0..3).map(|d| worker.profile.accuracy(d)).collect();
        let counts: Vec<usize> = (0..3).map(|d| worker.profile.task_count(d)).collect();
        if i % 3 == 0 {
            accs[1] = None;
        }
        if i % 5 == 0 {
            accs[0] = None;
            accs[2] = None;
        }
        worker.profile = HistoricalProfile::new(accs, counts).unwrap();
    }
    dataset
}

/// The six paper presets on five dataset seeds each, plus S-4 with blanked
/// prior domains.
fn pools() -> Vec<Dataset> {
    let mut pools: Vec<Dataset> = DatasetConfig::all_paper_datasets()
        .iter()
        .flat_map(|config| {
            (0..5u64).map(move |draw| {
                generate(&config.with_seed(config.seed.wrapping_add(draw * 7919))).unwrap()
            })
        })
        .collect();
    pools.push(with_gaps(generate(&DatasetConfig::s4()).unwrap()));
    pools
}

#[test]
fn every_update_keeps_its_best_iterate_within_bounds() {
    for dataset in pools() {
        assert_fits(&dataset.config.name, &updates(&dataset, 1));
    }
}

#[test]
fn fit_summaries_are_identical_for_every_shard_count() {
    for dataset in pools().iter().step_by(5) {
        let reference = updates(dataset, 1);
        for num_shards in [3, 16] {
            assert_eq!(
                updates(dataset, num_shards),
                reference,
                "{} with {num_shards} shards",
                dataset.config.name
            );
        }
    }
}

/// S-4 at 10^4 workers: the E-step sweeps fan out over several blocks. Under
/// EM the campaign runs in about 2 s in a debug build, so it runs with the
/// rest of the suite.
#[test]
fn every_update_of_a_ten_thousand_worker_pool_keeps_its_best_iterate_within_bounds() {
    let mut config = DatasetConfig::s4();
    config.pool_size = 10_000;
    let dataset = generate(&config).unwrap();
    let updates = updates(&dataset, 2);
    assert_fits("S-4 x 10^4", &updates);
    // The late rounds sit at the mean clamp, where an epoch can fall.
    assert!(updates.iter().any(|u| u.fit.falling_epochs > 0));
}

/// An update whose first iterate falls keeps its start: its predictions then
/// come from the start's E-step, and still equal `predict_batch` bit for bit.
#[test]
fn an_update_that_keeps_its_start_returns_the_start_predictions() {
    // Four workers over four coordinates: the sample covariance is singular,
    // and projecting it lowers the likelihood. The first update's last epoch
    // falls from its best iterate, so re-fitting that iterate to the same
    // round falls in its first epoch.
    let profiles = [
        HistoricalProfile::complete(vec![0.9, 0.9, 0.8], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.5, 0.6, 0.4], vec![10, 10, 10]).unwrap(),
        HistoricalProfile::complete(vec![0.3, 0.5, 0.2], vec![10, 10, 10]).unwrap(),
    ];
    let refs: Vec<&HistoricalProfile> = profiles.iter().collect();
    let observations: Vec<CpeObservation> = profiles
        .iter()
        .zip([9, 8, 4, 2])
        .map(|(p, correct)| CpeObservation::from_profile(p, correct, 10 - correct))
        .collect();
    let mut estimator = CrossDomainEstimator::from_profiles(&refs, CpeConfig::default()).unwrap();
    let predictions = estimator.update(&observations).unwrap();
    let fit = *estimator.last_fit().unwrap();
    assert!(
        fit.best_log_likelihood > fit.start_log_likelihood,
        "{fit:?}"
    );
    assert_eq!(predictions, estimator.predict_batch(&observations).unwrap());

    let kept = estimator.clone();
    let predictions = estimator.update(&observations).unwrap();
    let fit = *estimator.last_fit().unwrap();
    assert_eq!((fit.epochs, fit.falling_epochs), (1, 1), "{fit:?}");
    assert_eq!(fit.best_log_likelihood, fit.start_log_likelihood, "{fit:?}");
    assert_eq!(estimator.mean(), kept.mean());
    assert_eq!(estimator.covariance(), kept.covariance());
    assert_eq!(predictions, kept.predict_batch(&observations).unwrap());
}
