//! Batched, mask-grouped evaluation of the CPE marginal likelihood (Eq. 5, 8).
//!
//! Every term of the CPE objective conditions the cross-domain normal on a
//! worker's *observed* prior domains. The expensive part of that conditioning —
//! the Cholesky factorisation of the observed-block covariance and the
//! conditional variance — depends only on **which** domains are observed, not
//! on the observed values. Real pools contain far fewer distinct
//! missing-domain masks than workers (often one: the fully-observed mask), so
//! the per-observation loop the estimator historically ran repeated the same
//! factorisation once per worker, per parameter perturbation, per epoch.
//!
//! [`CpeLikelihoodKernel`] restructures that hot path in three layers:
//!
//! 1. [`MaskGroups`] — built once per `update()`/`predict_batch()` entry, it
//!    partitions the observations by observed-domain mask (first-occurrence
//!    order, so everything stays deterministic) and caches the members'
//!    observed values as one flat column per observed domain;
//! 2. per model evaluation, the kernel asks the model for **one**
//!    [`Conditioner`](c4u_stats::Conditioner) per unique mask and applies it to
//!    every member of the group — an `O(g^2)` triangular solve per worker,
//!    run worker-major over the columns, instead of an `O(g^3)`
//!    factorisation per worker;
//! 3. the Eq. 5 normalisers, Eq. 8 posterior means and posterior variances
//!    of a whole group are computed by **one** batched structure-of-arrays
//!    quadrature sweep per unique mask ([`c4u_stats::BinomialNormalBatch`],
//!    node tables built once per kernel), not one scalar
//!    `binomial_normal_moments` / `binomial_normal_log_z` call per worker.
//!
//! There is one member loop, the EM fit's E-step (the [`e_step`]
//! sub-layer): [`CpeLikelihoodKernel::log_likelihood`],
//! [`CpeLikelihoodKernel::per_observation_log_likelihood`] and
//! [`CpeLikelihoodKernel::predict`] all read it. The factorisation count per
//! model evaluation is therefore one per unique non-empty mask, where the
//! historical per-observation central-difference loop paid one per worker
//! per parameter perturbation, and each evaluation runs one vectorised sweep
//! per block of ≤ 1024 members of a mask group. Groups larger than one block
//! fan their blocks out over the machine's threads; the gathering over
//! members stays serial and in member order, so the result is bit-identical
//! for every thread count. The batched-sweep count obeys the same contract
//! (`O(unique_masks)` per evaluation, pinned by
//! `tests/quadrature_batching.rs` through the `c4u_stats` sweep counters).
//! Those counters are thread-local: the sweeps of a blocked group's blocks
//! that run on the fan-out threads are counted on those threads, not on the
//! calling thread.
//! Results are **bit-for-bit identical** to the per-observation loop: the
//! cached factorisation and the batched sweep perform exactly the same
//! floating-point operations, per-observation terms are accumulated in the
//! original observation order, and `tests/kernel_equivalence.rs` pins this
//! against a literal transcription of the historical code.
//!
//! ## Usage
//!
//! ```
//! use c4u_linalg::{Matrix, Vector};
//! use c4u_selection::{CpeLikelihoodKernel, CpeObservation};
//! use c4u_stats::{GaussLegendre, MultivariateNormal};
//!
//! // Three workers over two prior domains; the middle one has a domain gap
//! // (Sec. IV-E), so the kernel groups them into two observed-domain masks.
//! let observations = vec![
//!     CpeObservation { prior_accuracies: vec![Some(0.8), Some(0.7)], correct: 8, wrong: 2 },
//!     CpeObservation { prior_accuracies: vec![Some(0.5), None],      correct: 4, wrong: 6 },
//!     CpeObservation { prior_accuracies: vec![Some(0.6), Some(0.5)], correct: 5, wrong: 5 },
//! ];
//! let quadrature = GaussLegendre::new(32);
//! let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
//! assert_eq!(kernel.groups().num_unique_masks(), 2);
//!
//! // One (D+1)-dimensional model (Eq. 1–2), evaluated against every worker.
//! let model = MultivariateNormal::new(
//!     Vector::from_slice(&[0.65, 0.6, 0.5]),
//!     Matrix::from_rows(&[
//!         vec![0.020, 0.005, 0.004],
//!         vec![0.005, 0.020, 0.004],
//!         vec![0.004, 0.004, 0.020],
//!     ]).unwrap(),
//! ).unwrap();
//! let log_likelihood = kernel.log_likelihood(&model).unwrap();   // Eq. 5
//! assert!(log_likelihood.is_finite());
//! let predictions = kernel.predict(&model).unwrap();             // Eq. 8
//! assert_eq!(predictions.len(), observations.len());
//! ```

pub mod e_step;

use super::CpeObservation;
use crate::SelectionError;
use c4u_stats::{
    BinomialNormalBatch, BinomialNormalMoments, GaussLegendre, MultivariateNormal, QuadratureMath,
    QuadratureScratch,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// The observations sharing one observed-domain mask.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskGroup {
    observed_idx: Vec<usize>,
    members: Vec<usize>,
    /// The members' observed accuracies as flat columns, one per observed
    /// domain: column `k` (`observed_idx[k]`) fills
    /// `values[k * members.len()..(k + 1) * members.len()]`, in member order.
    values: Vec<f64>,
}

impl MaskGroup {
    /// Indices of the prior domains every member has a record on (ascending).
    pub fn observed_idx(&self) -> &[usize] {
        &self.observed_idx
    }

    /// Positions of the member observations in the original slice.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Every member's accuracy on the `k`-th observed domain
    /// (`observed_idx()[k]`), aligned with [`MaskGroup::members`].
    pub fn column(&self, k: usize) -> &[f64] {
        let n = self.members.len();
        &self.values[k * n..(k + 1) * n]
    }

    /// The observed columns restricted to the members at `range`, in
    /// observed-domain order.
    fn block_columns(&self, range: Range<usize>) -> impl Iterator<Item = &[f64]> {
        (0..self.observed_idx.len()).map(move |k| &self.column(k)[range.clone()])
    }
}

/// A partition of a set of [`CpeObservation`]s by observed-domain mask.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskGroups {
    groups: Vec<MaskGroup>,
    num_observations: usize,
}

impl MaskGroups {
    /// Groups the observations by which prior domains they have a record on.
    ///
    /// Groups appear in order of first occurrence, and members keep their
    /// original relative order, so downstream iteration is deterministic.
    /// Groups are keyed by a bitmask of the observed domains, and each
    /// group's values are written straight into its columns: no allocation
    /// per observation.
    pub fn build(observations: &[CpeObservation], num_domains: usize) -> Self {
        let mut groups: Vec<MaskGroup> = Vec::new();
        let mut index_of: HashMap<Box<[u64]>, usize> = HashMap::new();
        let mut mask = vec![0u64; num_domains.div_ceil(64)];
        // The previous observation's mask: runs of one mask skip the lookup.
        let mut previous = mask.clone();
        let mut group_of: Vec<usize> = Vec::with_capacity(observations.len());
        for (position, obs) in observations.iter().enumerate() {
            mask.fill(0);
            for (d, value) in obs.prior_accuracies.iter().take(num_domains).enumerate() {
                if value.is_some() {
                    mask[d / 64] |= 1 << (d % 64);
                }
            }
            let group = match group_of.last() {
                Some(&last) if mask == previous => last,
                _ => match index_of.get(mask.as_slice()) {
                    Some(&group) => group,
                    None => {
                        index_of.insert(mask.clone().into_boxed_slice(), groups.len());
                        groups.push(MaskGroup {
                            observed_idx: (0..num_domains)
                                .filter(|&d| mask[d / 64] >> (d % 64) & 1 == 1)
                                .collect(),
                            members: Vec::new(),
                            values: Vec::new(),
                        });
                        groups.len() - 1
                    }
                },
            };
            groups[group].members.push(position);
            group_of.push(group);
            std::mem::swap(&mut mask, &mut previous);
        }
        for group in &mut groups {
            group.values = vec![0.0; group.observed_idx.len() * group.members.len()];
        }
        let mut filled = vec![0; groups.len()];
        for (obs, &group) in observations.iter().zip(&group_of) {
            let (group, j) = (&mut groups[group], &mut filled[group]);
            let n = group.members.len();
            let observed = obs.prior_accuracies.iter().take(num_domains).flatten();
            for (k, &value) in observed.enumerate() {
                group.values[k * n + *j] = value;
            }
            *j += 1;
        }
        Self {
            groups,
            num_observations: observations.len(),
        }
    }

    /// The groups, in first-occurrence order.
    pub fn groups(&self) -> &[MaskGroup] {
        &self.groups
    }

    /// Number of distinct observed-domain masks.
    pub fn num_unique_masks(&self) -> usize {
        self.groups.len()
    }

    /// Number of observations that were grouped.
    pub fn num_observations(&self) -> usize {
        self.num_observations
    }
}

/// The batched CPE likelihood kernel: a set of observations, mask-grouped once,
/// evaluable against many candidate models.
///
/// The same kernel instance serves every E-step of an EM fit (the model
/// changes per evaluation; the grouping does not), which is exactly the
/// access pattern of `CrossDomainEstimator::update`.
#[derive(Debug)]
pub struct CpeLikelihoodKernel {
    groups: MaskGroups,
    /// Index of the target-domain coordinate (`D`, the last coordinate).
    target: usize,
    /// Structure-of-arrays node/grid tables for the batched binomial×normal
    /// sweep, built once per kernel from the caller's rule (the rule itself
    /// is no longer needed afterwards — every sweep runs over these tables).
    batch: BinomialNormalBatch,
    /// Per-group `(correct, wrong)` counts as flat `f64` arrays aligned with
    /// each group's members — the model-independent half of the batched-sweep
    /// inputs, precomputed once per kernel.
    counts: Vec<GroupCounts>,
    /// One scratch per [`SWEEP_BLOCK`] of the largest group, reused by every
    /// E-step. Each block job locks only its own entry, so the locks are
    /// never contended; they exist to hand one `&mut` per block to the
    /// fan-out. Behind a `RefCell` because every evaluation entry point takes
    /// `&self`; this makes the kernel `!Sync`, which matches how it is used —
    /// each estimator call builds its own kernel. Buffers grow to the largest
    /// group once and the hot loops stay allocation-free afterwards (the
    /// `c4u-stats` `alloc_free` suite pins the sweep side of that contract).
    blocks: RefCell<Vec<Mutex<BlockScratch>>>,
}

/// Members per block of the E-step sweep. Groups larger than this are
/// split into fixed blocks that run on
/// [`run_indexed_jobs`](c4u_crowd_sim::parallel::run_indexed_jobs); the block size
/// is independent of the thread count, and only the per-member work is
/// blocked (the gathering stays serial in member order), so results never
/// depend on it.
const SWEEP_BLOCK: usize = 1024;

/// The buffers of one E-step sweep block: grown on first use, then recycled
/// by every subsequent group sweep and model evaluation.
#[derive(Debug, Default)]
struct BlockScratch {
    /// Scratch of the block's quadrature sweep.
    quad: QuadratureScratch,
    /// Per-member conditional means.
    mu: Vec<f64>,
    /// Per-member sweep output.
    out: Vec<BinomialNormalMoments>,
    /// The block's observed-block solves, one column per observed domain.
    w: Vec<f64>,
}

/// The model-independent per-member answer counts of one mask group, laid out
/// for the batched quadrature sweep.
#[derive(Debug, Clone)]
struct GroupCounts {
    correct: Vec<f64>,
    wrong: Vec<f64>,
}

impl CpeLikelihoodKernel {
    /// Builds the kernel, grouping the observations by observed-domain mask
    /// and tabulating the shared quadrature node tables. The sweeps run in
    /// the default [`QuadratureMath`] mode, `FastVector`.
    pub fn new(
        observations: &[CpeObservation],
        num_prior_domains: usize,
        quadrature: &GaussLegendre,
    ) -> Self {
        Self::new_with_math(
            observations,
            num_prior_domains,
            quadrature,
            QuadratureMath::default(),
        )
    }

    /// Builds the kernel with an explicit sweep math mode.
    ///
    /// [`QuadratureMath::FastVector`] runs the worker-major polynomial-`exp`
    /// sweep (deterministic, within ~1e-12 relative of `Exact` per cell —
    /// see the `c4u_stats::batch` math-mode contract);
    /// [`QuadratureMath::Exact`] keeps every sweep bit-identical to the scalar
    /// oracle.
    pub fn new_with_math(
        observations: &[CpeObservation],
        num_prior_domains: usize,
        quadrature: &GaussLegendre,
        math: QuadratureMath,
    ) -> Self {
        let groups = MaskGroups::build(observations, num_prior_domains);
        let counts = groups
            .groups()
            .iter()
            .map(|group| GroupCounts {
                correct: group
                    .members()
                    .iter()
                    .map(|&p| observations[p].correct as f64)
                    .collect(),
                wrong: group
                    .members()
                    .iter()
                    .map(|&p| observations[p].wrong as f64)
                    .collect(),
            })
            .collect();
        Self {
            groups,
            target: num_prior_domains,
            batch: BinomialNormalBatch::new_with_math(quadrature, math),
            counts,
            blocks: RefCell::new(Vec::new()),
        }
    }

    /// The mask partition backing this kernel.
    pub fn groups(&self) -> &MaskGroups {
        &self.groups
    }

    /// Marginal log-likelihood of every observation under `model` (one `log Z`
    /// of Eq. 5 per observation, in original observation order), read from
    /// the [`e_step`](Self::e_step).
    // c4u-lint: allow(unused-pub-fn, reason = "test oracle: pins the E-step's fused log-likelihood observation by observation")
    pub fn per_observation_log_likelihood(
        &self,
        model: &MultivariateNormal,
    ) -> Result<Vec<f64>, SelectionError> {
        Ok(self
            .e_step(model)?
            .moments
            .iter()
            .map(|m| m.log_z)
            .collect())
    }

    /// Total marginal log-likelihood under `model` (Eq. 5): the
    /// [`e_step`](Self::e_step)'s, accumulated in the original observation
    /// order so the sum is bit-identical to the per-observation loop it
    /// replaces.
    pub fn log_likelihood(&self, model: &MultivariateNormal) -> Result<f64, SelectionError> {
        Ok(self.e_step(model)?.log_likelihood)
    }

    /// Predicted target-domain accuracy of every observation (Eq. 8), in
    /// original observation order: the [`e_step`](Self::e_step)'s posterior
    /// means, which incorporate each worker's observed correct/wrong counts
    /// (see [`EStep::predictions`](e_step::EStep::predictions) for the
    /// clamp and the underflow fallback).
    pub fn predict(&self, model: &MultivariateNormal) -> Result<Vec<f64>, SelectionError> {
        self.e_step(model)?.predictions()
    }
}

/// Splits an observation into the indices and values of the domains that are
/// present (ascending domain order).
// c4u-lint: allow(unused-pub-fn, reason = "test oracle: the per-observation split the reference transcription and the mask-group column checks condition on")
pub fn observed_domains(obs: &CpeObservation, num_domains: usize) -> (Vec<usize>, Vec<f64>) {
    let mut idx = Vec::new();
    let mut values = Vec::new();
    for d in 0..num_domains {
        if let Some(Some(a)) = obs.prior_accuracies.get(d) {
            idx.push(d);
            values.push(*a);
        }
    }
    (idx, values)
}

// The binomial×normal integrand itself lives in `c4u_stats`; the kernel
// re-exports the scalar forms so existing callers keep their import paths.
// The kernel's own hot paths no longer call them per worker — whole mask
// groups go through one `BinomialNormalBatch` sweep — but the scalar forms
// remain the pinned bit-for-bit oracle for the batched results. The
// `c4u_stats` implementation also carries the near-endpoint peak-bracketing
// fix: the
// historical grid spanned `[0.0125, 0.9875]`, so integrands peaking inside the
// end gaps (large `C` with `X = 0`, or vice versa) underestimated `log_max`
// and collapsed `log Z` to `-inf`; interior-peaked integrands are bit-for-bit
// unchanged.
pub use c4u_stats::{binomial_normal_log_z, binomial_normal_moments};

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(mask: &[Option<f64>], correct: usize, wrong: usize) -> CpeObservation {
        CpeObservation {
            prior_accuracies: mask.to_vec(),
            correct,
            wrong,
        }
    }

    #[test]
    fn grouping_is_deterministic_and_complete() {
        let observations = vec![
            obs(&[Some(0.9), Some(0.8), Some(0.7)], 5, 5),
            obs(&[Some(0.5), None, Some(0.4)], 3, 7),
            obs(&[Some(0.6), Some(0.7), Some(0.5)], 8, 2),
            obs(&[None, None, None], 1, 9),
            obs(&[Some(0.2), None, Some(0.3)], 2, 8),
        ];
        let groups = MaskGroups::build(&observations, 3);
        assert_eq!(groups.num_observations(), 5);
        assert_eq!(groups.num_unique_masks(), 3);
        // First-occurrence order.
        assert_eq!(groups.groups()[0].observed_idx(), &[0, 1, 2]);
        assert_eq!(groups.groups()[1].observed_idx(), &[0, 2]);
        assert_eq!(groups.groups()[2].observed_idx(), &[] as &[usize]);
        // Members keep their original order and values.
        assert_eq!(groups.groups()[0].members(), &[0, 2]);
        assert_eq!(groups.groups()[1].members(), &[1, 4]);
        assert_eq!(groups.groups()[1].column(0), &[0.5, 0.2]);
        assert_eq!(groups.groups()[1].column(1), &[0.4, 0.3]);
        assert_eq!(groups.groups()[0].column(1), &[0.8, 0.7]);
        assert_eq!(groups.groups()[2].members(), &[3]);
        assert!(groups.groups()[2].values.is_empty());
    }

    #[test]
    fn short_profiles_group_like_missing_domains() {
        // An observation whose profile vector is shorter than the domain count
        // treats the absent tail as missing, exactly like observed_domains.
        let observations = vec![obs(&[Some(0.9)], 5, 5), obs(&[Some(0.8), None, None], 4, 6)];
        let groups = MaskGroups::build(&observations, 3);
        assert_eq!(groups.num_unique_masks(), 1);
        assert_eq!(groups.groups()[0].members(), &[0, 1]);
    }

    #[test]
    fn log_z_only_variant_matches_full_moments() {
        let quadrature = GaussLegendre::new(32);
        for (mu, sigma, c, x) in [
            (0.5, 0.15, 7.0, 3.0),
            (0.8, 0.05, 0.0, 0.0),
            (0.2, 0.3, 140.0, 2.0),
            (-0.5, 0.1, 5.0, 5.0),
        ] {
            let (log_z, _) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
            // Exact equality: the two integrals are independent computations.
            assert_eq!(binomial_normal_log_z(&quadrature, mu, sigma, c, x), log_z);
        }
    }

    #[test]
    fn empty_observation_set_produces_no_groups() {
        let groups = MaskGroups::build(&[], 3);
        assert_eq!(groups.num_unique_masks(), 0);
        assert_eq!(groups.num_observations(), 0);
    }

    #[test]
    fn log_likelihood_sums_the_per_observation_terms() {
        let observations = vec![
            obs(&[Some(0.9), Some(0.8)], 5, 5),
            obs(&[None, Some(0.4)], 3, 7),
            obs(&[Some(0.6), Some(0.7)], 8, 2),
        ];
        let quadrature = GaussLegendre::new(16);
        let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
        let rho = c4u_stats::Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.4 });
        let model =
            MultivariateNormal::from_correlations(&[0.6, 0.6, 0.5], &[0.2, 0.2, 0.15], &rho)
                .unwrap();
        let terms = kernel.per_observation_log_likelihood(&model).unwrap();
        assert_eq!(terms.len(), 3);
        assert_eq!(
            kernel.log_likelihood(&model).unwrap(),
            terms.iter().sum::<f64>()
        );
        assert_eq!(kernel.groups().num_unique_masks(), 2);
    }

    #[test]
    fn unresolvable_integrals_predict_the_conditional_mean() {
        // A target-domain sd of 1e-4 leaves every conditional far narrower
        // than the spacing of the 32 nodes, so log Z underflows for every
        // member.
        let observations = vec![
            obs(&[Some(0.9), Some(0.8)], 5, 5),
            obs(&[None, Some(0.4)], 3, 7),
            obs(&[None, None], 0, 0),
        ];
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
        let rho = c4u_stats::Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.4 });
        let model =
            MultivariateNormal::from_correlations(&[0.6, 0.6, 0.5], &[0.2, 0.2, 1e-4], &rho)
                .unwrap();
        let predictions = kernel.predict(&model).unwrap();
        for (o, &prediction) in observations.iter().zip(&predictions) {
            let (idx, values) = observed_domains(o, 2);
            let cond = model.condition_on(2, &idx, &values).unwrap();
            let (c, x) = (o.correct as f64, o.wrong as f64);
            let log_z = binomial_normal_log_z(&quadrature, cond.mean, cond.std_dev(), c, x);
            assert_eq!(log_z, f64::NEG_INFINITY);
            assert_eq!(prediction, cond.mean.clamp(0.0, 1.0));
        }
    }

    #[test]
    fn a_non_finite_conditional_mean_is_still_an_error() {
        // A NaN profile value makes the member's conditional mean NaN, which
        // leaves the prediction fallback nothing to fall back to.
        let observations = vec![
            obs(&[Some(0.9), Some(0.8)], 5, 5),
            obs(&[Some(f64::NAN), None], 3, 7),
        ];
        let quadrature = GaussLegendre::new(32);
        let kernel = CpeLikelihoodKernel::new(&observations, 2, &quadrature);
        let rho = c4u_stats::Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.4 });
        let model =
            MultivariateNormal::from_correlations(&[0.6, 0.6, 0.5], &[0.2, 0.2, 0.15], &rho)
                .unwrap();
        assert_eq!(
            kernel.predict(&model),
            Err(SelectionError::Numerical(
                "CPE prediction integral did not converge".to_string()
            ))
        );
    }

    #[test]
    fn observed_domains_skip_gaps_and_short_profiles() {
        let o = obs(&[None, Some(0.3)], 0, 0);
        assert_eq!(observed_domains(&o, 3), (vec![1], vec![0.3]));
        assert_eq!(observed_domains(&o, 1), (vec![], vec![]));
    }
}
