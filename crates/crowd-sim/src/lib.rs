//! # c4u-crowd-sim
//!
//! Crowdsourcing platform simulator for the C4U (cross-domain-aware worker selection
//! with training) workspace.
//!
//! The paper evaluates its selection algorithm on two real-world Qualtrics surveys
//! (RW-1, RW-2) and four synthetic datasets (S-1..S-4) generated from a truncated
//! multivariate normal fitted to RW-1. The real crowd workers are not available to a
//! reproduction, so this crate provides the closest synthetic equivalent of the whole
//! experimental apparatus:
//!
//! * [`DatasetConfig`] — the six dataset presets of Table II/IV plus the budget
//!   arithmetic (`n = ceil(log2(|W|/k))`, `B = n Q |W|`, batches `= 2^n - 1`);
//! * [`generate`] — the Sec. V-A worker generator (truncated MVN accuracy vectors,
//!   observed historical profiles, random cross-domain correlations);
//! * [`SimulatedWorker`] — a trainable worker whose true target-domain accuracy moves
//!   along the modified IRT curve as learning-task ground truths are revealed
//!   ([`SimulatedWorker::learn_from_batch`] counts them);
//! * [`Platform`] — batch assignment, graded answer sheets (returned in a
//!   [`RoundRecord`], never kept), ground-truth reveal, budget accounting, and
//!   working-task evaluation, the interface every selection strategy drives.
//!   Tasks are counts: a worker is right on each task with probability equal
//!   to its current accuracy, so an [`AnswerSheet`] is graded as it is drawn and
//!   no gold label exists anywhere. Answering noise comes from one
//!   deterministic RNG stream per (round, worker) event, so results never
//!   depend on processing order;
//! * [`WorkerShards`] + the sharded platform paths
//!   ([`Platform::assign_learning_batch_sharded`],
//!   [`Platform::evaluate_working_accuracy_sharded`]) — worker-range
//!   partitioning for pools of `10^4+` workers: each round validates first,
//!   answers the shards through [`WorkerShards::map`] (the one shard
//!   fan-out, on at most the machine's threads), and then applies the merged
//!   sheets in worker order, bit-for-bit identical for every layout;
//! * [`parallel`] — the workspace's scoped-thread work queue
//!   ([`parallel::run_indexed_jobs`]), shared by the shard fan-out, the
//!   selection crate's evaluation engine, and the bench harness;
//! * the [`event`](crate::RoundEvents) model — [`RoundEvents`] /
//!   [`CampaignSchedule`] describe mid-campaign worker churn as pure data;
//!   [`Platform::apply_events`] applies a round's joins and departures while
//!   preserving every survivor's answer streams, and
//!   [`ScenarioConfig`] presets (spammers, colluders,
//!   drift, churn) drive the Table-IV-style robustness sweeps;
//! * [`consistency`](crate::consistency_report) helpers — the Table IV moment and
//!   Pearson-correlation comparisons.
//!
//! ## Example
//!
//! ```
//! use c4u_crowd_sim::{generate, DatasetConfig, Platform};
//!
//! let dataset = generate(&DatasetConfig::rw1()).unwrap();
//! let mut platform = Platform::from_dataset(&dataset, 42).unwrap();
//! // Train every worker with one batch of 10 golden questions.
//! let ids = platform.worker_ids();
//! let record = platform.assign_learning_batch(&ids, 10).unwrap();
//! assert_eq!(record.sheets.len(), 27);
//! // Workers learn from the revealed answers, so the pool's accuracy rises.
//! assert!(platform.expected_working_accuracy(&ids).unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]

mod config;
mod consistency;
mod dataset;
mod domain;
mod error;
mod event;
mod generator;
pub mod parallel;
mod platform;
mod shard;
mod task;
mod worker;

pub use config::{rounds_for, DatasetConfig, DomainStats, ScenarioConfig};
pub use consistency::{
    consistency_report, distribution_correlation, moments_row, target_accuracy_histogram,
    ConsistencyReport, MomentsRow, DEFAULT_BUCKETS,
};
pub use dataset::Dataset;
pub use domain::{Domain, DomainDescriptor, FeatureKind};
pub use error::SimError;
pub use event::{AppliedRoundEvents, CampaignSchedule, RoundEvents};
pub use generator::{build_population_model, generate};
pub use platform::{Platform, RoundRecord};
pub use shard::WorkerShards;
pub use task::AnswerSheet;
pub use worker::{HistoricalProfile, SimulatedWorker, WorkerId, WorkerSpec};
