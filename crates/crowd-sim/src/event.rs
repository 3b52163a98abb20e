//! The round event model of an online selection campaign.
//!
//! A batch campaign assumes a *closed world*: the worker pool is fixed before the
//! first golden task goes out. Real crowdsourcing platforms are open — workers
//! join mid-campaign (bringing a historical profile from other domains) and leave
//! without notice. This module describes that churn as data:
//!
//! * [`RoundEvents`] — what happens between two training rounds: workers joining
//!   (each with a full [`WorkerSpec`]) and workers leaving (by id);
//! * [`CampaignSchedule`] — the full event timeline of a campaign, keyed by the
//!   1-based round number *before* which the events fire;
//! * [`AppliedRoundEvents`] — what a [`Platform`](crate::Platform) actually did
//!   with a round's events (ids allocated to joiners, departures that were not
//!   already gone).
//!
//! The schedule is pure data, so the same timeline can be replayed against any
//! shard count; `tests/churn_determinism.rs` pins that the resulting selector
//! reports are bit-for-bit identical. The **closed-world contract** is the
//! degenerate case: an empty schedule must reproduce the batch campaign
//! exactly (`tests/event_equivalence.rs`).

use std::collections::BTreeMap;

use crate::config::DatasetConfig;
use crate::generator::{build_population_model, sample_worker_spec};
use crate::worker::{WorkerId, WorkerSpec};
use crate::SimError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream constant separating the churn scheduler's RNG from the dataset
/// generator's: joiner specs are drawn from the same population model but on an
/// independent stream, so enabling churn never perturbs the initial pool.
const CHURN_STREAM: u64 = 0x4348_5552_4E21_0000;

/// Worker arrivals and departures between two training rounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundEvents {
    /// Workers joining the platform, each with the historical profile they
    /// bring along. Ids are allocated by the platform in this order.
    pub joins: Vec<WorkerSpec>,
    /// Ids of workers leaving the platform.
    pub leaves: Vec<WorkerId>,
}

impl RoundEvents {
    /// No arrivals and no departures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the event set changes nothing.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// Adds a departing worker (builder style).
    // c4u-lint: allow(unused-pub-fn, reason = "README's doctested open-world campaign example calls it")
    pub fn with_leave(mut self, id: WorkerId) -> Self {
        self.leaves.push(id);
        self
    }
}

/// What a platform actually applied from one [`RoundEvents`]: the dense ids
/// allocated to joiners and the departures that were still present.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppliedRoundEvents {
    /// Ids allocated to the joining workers, in join order.
    pub joined: Vec<WorkerId>,
    /// Ids that actually departed (already-gone workers are skipped).
    pub departed: Vec<WorkerId>,
}

impl AppliedRoundEvents {
    /// Whether nothing was applied.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.departed.is_empty()
    }
}

/// The event timeline of a campaign: per-round arrivals and departures, keyed
/// by the 1-based round number before which they fire.
///
/// Stored as a `BTreeMap` so iteration order — and therefore replay — is
/// deterministic. An empty schedule is the closed world.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSchedule {
    rounds: BTreeMap<usize, RoundEvents>,
}

impl CampaignSchedule {
    /// The closed-world schedule: no events in any round.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether no round has a non-empty event set.
    pub fn is_empty(&self) -> bool {
        self.rounds.values().all(RoundEvents::is_empty)
    }

    /// Largest round number with scheduled events (0 when empty).
    pub fn max_round(&self) -> usize {
        self.rounds
            .iter()
            .filter(|(_, e)| !e.is_empty())
            .map(|(&r, _)| r)
            .max()
            .unwrap_or(0)
    }

    /// Merges events into round `round` (1-based), appending to any events
    /// already scheduled there.
    pub fn insert(&mut self, round: usize, events: RoundEvents) {
        let slot = self.rounds.entry(round).or_default();
        slot.joins.extend(events.joins);
        slot.leaves.extend(events.leaves);
    }

    /// Builder-style [`CampaignSchedule::insert`].
    // c4u-lint: allow(unused-pub-fn, reason = "README's doctested open-world campaign example calls it")
    pub fn with_round(mut self, round: usize, events: RoundEvents) -> Self {
        self.insert(round, events);
        self
    }

    /// Events scheduled before round `round`, if any.
    pub fn events_for(&self, round: usize) -> Option<&RoundEvents> {
        self.rounds.get(&round).filter(|e| !e.is_empty())
    }

    /// Synthesises the churn timeline of a configuration's scenario: from round
    /// 2 on, `churn_joins_per_round` workers join (drawn from the same
    /// population model as the initial pool, on an independent RNG stream) and
    /// `churn_leaves_per_round` of the original workers leave.
    ///
    /// Deterministic in `config.seed`; returns the empty schedule when the
    /// scenario has no churn. Round 1 is left untouched so every campaign
    /// starts from the generated pool. Departures walk the original pool in a
    /// fixed stride pattern, so replaying the schedule is reproducible without
    /// any shared RNG state.
    pub fn churn(config: &DatasetConfig, total_rounds: usize) -> Result<Self, SimError> {
        let joins = config.scenario.churn_joins_per_round;
        let leaves = config.scenario.churn_leaves_per_round;
        if joins == 0 && leaves == 0 {
            return Ok(Self::empty());
        }
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ CHURN_STREAM);
        let mvn = build_population_model(config, &mut rng)?;
        let mut schedule = Self::empty();
        for round in 2..=total_rounds {
            let mut events = RoundEvents::none();
            for _ in 0..joins {
                events
                    .joins
                    .push(sample_worker_spec(&mvn, config, &mut rng)?);
            }
            for l in 0..leaves {
                events.leaves.push((round * 3 + l * 5) % config.pool_size);
            }
            if !events.is_empty() {
                schedule.insert(round, events);
            }
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::worker::HistoricalProfile;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            profile: HistoricalProfile::complete(vec![0.7, 0.8, 0.6], vec![20, 20, 20]).unwrap(),
            initial_target_accuracy: 0.7,
            latent_prior_accuracies: vec![0.7, 0.8, 0.6],
            learning_aptitude: 0.0,
        }
    }

    #[test]
    fn empty_schedule_is_the_closed_world() {
        let s = CampaignSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.max_round(), 0);
        assert!(s.events_for(1).is_none());
        // A round holding an empty event set still counts as closed-world.
        let s = CampaignSchedule::empty().with_round(3, RoundEvents::none());
        assert!(s.is_empty());
        assert!(s.events_for(3).is_none());
    }

    #[test]
    fn insert_merges_events_per_round() {
        let mut s = CampaignSchedule::empty();
        let join = RoundEvents {
            joins: vec![spec()],
            ..RoundEvents::none()
        };
        s.insert(2, join);
        s.insert(2, RoundEvents::none().with_leave(4));
        let events = s.events_for(2).unwrap();
        assert_eq!(events.joins.len(), 1);
        assert_eq!(events.leaves, vec![4]);
        assert_eq!(s.max_round(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn churn_schedule_is_deterministic_and_respects_the_scenario() {
        let config = DatasetConfig::rw1_churn();
        let a = CampaignSchedule::churn(&config, 5).unwrap();
        let b = CampaignSchedule::churn(&config, 5).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.events_for(1).is_none(), "round 1 starts closed-world");
        for round in 2..=5 {
            let events = a.events_for(round).unwrap();
            assert_eq!(events.joins.len(), config.scenario.churn_joins_per_round);
            assert_eq!(events.leaves.len(), config.scenario.churn_leaves_per_round);
            for &id in &events.leaves {
                assert!(id < config.pool_size);
            }
        }
    }

    #[test]
    fn closed_world_scenario_yields_an_empty_churn_schedule() {
        let config = DatasetConfig {
            scenario: ScenarioConfig::none(),
            ..DatasetConfig::rw1()
        };
        let s = CampaignSchedule::churn(&config, 8).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn churn_joins_come_from_the_population_model() {
        let config = DatasetConfig::rw1_churn();
        let s = CampaignSchedule::churn(&config, 4).unwrap();
        let events = s.events_for(2).unwrap();
        for join in &events.joins {
            assert_eq!(join.profile.num_domains(), config.num_prior_domains());
            assert_eq!(
                join.profile.observed_accuracies().len(),
                config.num_prior_domains()
            );
            assert!((0.0..=1.0).contains(&join.initial_target_accuracy));
        }
        // Independent stream: enabling churn must not perturb the initial pool.
        let plain = crate::generator::generate(&DatasetConfig::rw1()).unwrap();
        let churned = crate::generator::generate(&config).unwrap();
        assert_eq!(
            plain.initial_target_accuracies(),
            churned.initial_target_accuracies()
        );
    }

    #[test]
    fn max_round_ignores_empty_rounds() {
        let s = CampaignSchedule::empty()
            .with_round(2, RoundEvents::none().with_leave(1))
            .with_round(6, RoundEvents::none());
        assert_eq!(s.max_round(), 2);
        assert!(s.events_for(6).is_none());
        assert!(AppliedRoundEvents::default().is_empty());
        let applied = AppliedRoundEvents {
            joined: vec![27],
            departed: vec![],
        };
        assert!(!applied.is_empty());
    }

    #[test]
    fn churn_depends_on_the_seed_and_validates_the_config() {
        let config = DatasetConfig::rw1_churn();
        let a = CampaignSchedule::churn(&config, 3).unwrap();
        let b = CampaignSchedule::churn(&config.with_seed(config.seed + 1), 3).unwrap();
        assert_ne!(
            a.events_for(2).unwrap().joins,
            b.events_for(2).unwrap().joins
        );
        assert_eq!(
            a.events_for(2).unwrap().leaves,
            b.events_for(2).unwrap().leaves
        );
        let mut bad = config;
        bad.working_tasks = 0;
        assert!(CampaignSchedule::churn(&bad, 3).is_err());
        assert!(CampaignSchedule::churn(&DatasetConfig::rw1_churn(), 1)
            .unwrap()
            .is_empty());
    }
}
