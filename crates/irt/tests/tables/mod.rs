//! The Eq. 11 table families the fit's property checks draw from: tables
//! with extreme entries, tables in the ranges a campaign produces, and
//! tables shaped as LGE-only campaigns build them. Shared by
//! `proptest_calibration.rs` and the bit-for-bit checks of the pruned fold
//! in `src/calibration.rs`, whose parent module supplies the two
//! observation types.

use super::{PriorDomainObservation, TargetStageObservation};
use proptest::prelude::*;

/// One Eq. 11 table in observation form.
#[derive(Debug, Clone)]
pub struct Table {
    pub target_difficulty: f64,
    pub priors: Vec<PriorDomainObservation>,
    pub stages: Vec<TargetStageObservation>,
}

/// A task count: mostly moderate, with `K = 0` and very large counts mixed in.
fn tasks() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0..300.0f64).prop_map(|(pick, k)| match pick {
        0 => 0.0,
        1 => 1e7,
        2 => k.floor(),
        _ => k,
    })
}

/// An accuracy in `[0, 1]`, with the endpoints drawn often.
fn accuracy() -> impl Strategy<Value = f64> {
    (0u8..6, 0.0..1.0f64).prop_map(|(pick, a)| match pick {
        0 => 0.0,
        1 => 1.0,
        _ => a,
    })
}

/// A difficulty, exactly 0 (`a = 0.5`) a quarter of the time.
fn difficulty() -> impl Strategy<Value = f64> {
    (0u8..4, -3.0..3.0f64).prop_map(|(pick, beta)| if pick == 0 { 0.0 } else { beta })
}

/// Tables with extreme entries: `K = 0`, `K = 10^7`, accuracies of exactly 0
/// or 1, and possibly no observation at all.
pub fn extreme_table() -> impl Strategy<Value = Table> {
    let priors = prop::collection::vec(
        (difficulty(), tasks(), accuracy()).prop_map(|(difficulty, tasks_completed, accuracy)| {
            PriorDomainObservation {
                difficulty,
                tasks_completed,
                accuracy,
            }
        }),
        0..=4,
    );
    let stages = prop::collection::vec(
        (tasks(), accuracy()).prop_map(|(cumulative_tasks_before, estimated_accuracy)| {
            TargetStageObservation {
                cumulative_tasks_before,
                estimated_accuracy,
            }
        }),
        0..=5,
    );
    (difficulty(), priors, stages).prop_map(|(target_difficulty, priors, stages)| Table {
        target_difficulty,
        priors,
        stages,
    })
}

/// Tables in the ranges a campaign produces: 0-4 prior-domain anchors,
/// `|beta| <= 2.9`, accuracies in `[0.3, 0.95]`, `K < 300`, one to five
/// target-domain stages.
pub fn realistic_table() -> impl Strategy<Value = Table> {
    let priors = prop::collection::vec(
        (-2.9..2.9f64, 0.0..300.0f64, 0.3..0.95f64).prop_map(
            |(difficulty, tasks_completed, accuracy)| PriorDomainObservation {
                difficulty,
                tasks_completed,
                accuracy,
            },
        ),
        0..=4,
    );
    let stages = prop::collection::vec(
        (0.0..300.0f64, 0.3..0.95f64).prop_map(|(cumulative_tasks_before, estimated_accuracy)| {
            TargetStageObservation {
                cumulative_tasks_before,
                estimated_accuracy,
            }
        }),
        1..=5,
    );
    (-2.9..2.9f64, priors, stages).prop_map(|(target_difficulty, priors, stages)| Table {
        target_difficulty,
        priors,
        stages,
    })
}

/// Tables as LGE-only campaigns build them: 0-4 prior-domain anchors (at
/// least one task each), then one stage per round, the first at the fixed
/// `K_0 = 0`, each with the accuracy of a short answer sheet (1-6 tasks, so
/// often exactly 0 or 1) and the cumulative count growing between them.
pub fn lge_only_table() -> impl Strategy<Value = Table> {
    let priors = prop::collection::vec(
        (-2.9..2.9f64, 1u32..300, 0.3..0.95f64).prop_map(|(difficulty, tasks, accuracy)| {
            PriorDomainObservation {
                difficulty,
                tasks_completed: f64::from(tasks),
                accuracy,
            }
        }),
        0..=4,
    );
    let sheets = prop::collection::vec((1u32..=6, 0u32..=6, 1u32..40), 1..=5);
    (-2.9..2.9f64, priors, sheets).prop_map(|(target_difficulty, priors, sheets)| Table {
        target_difficulty,
        priors,
        stages: lge_only_stages(&sheets),
    })
}

/// One stage per `(sheet length, correct answers, tasks added)` round, from
/// `K_0 = 0` on.
pub fn lge_only_stages(sheets: &[(u32, u32, u32)]) -> Vec<TargetStageObservation> {
    let mut before = 0.0;
    sheets
        .iter()
        .map(|&(len, correct, added)| {
            let stage = TargetStageObservation {
                cumulative_tasks_before: before,
                estimated_accuracy: f64::from(correct.min(len)) / f64::from(len),
            };
            before += f64::from(added);
            stage
        })
        .collect()
}
