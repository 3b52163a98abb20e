//! Theoretical guarantees of the adapted Median Elimination (Theorems 1–2).
//!
//! Theorem 1 of the paper adapts Lemma 11 of Even-Dar et al.: if each remaining
//! worker answers `(2 / eps_c^2) * ln(3 / delta_c)` golden questions in round `c`,
//! then with probability at least `1 - delta_c` the best worker surviving the round
//! is `eps_c`-optimal with respect to the best worker entering it. Theorem 2 inverts
//! the statement under the fixed total budget `B`: the per-round error is bounded by
//! `O( sqrt( (n k / B) * ln(1 / delta_c) ) )`.
//!
//! These helpers compute both quantities and are exercised by an empirical
//! verification test that simulates the elimination on synthetic accuracy draws.

use crate::SelectionError;

/// Number of golden questions each remaining worker must answer in round `c` for the
/// `(eps, delta)` guarantee of Theorem 1: `ceil( (2 / eps^2) * ln(3 / delta) )`.
// c4u-lint: allow(unused-pub-fn, reason = "paper-facing: Theorem 1, checked by the reproduction smoke test")
pub fn tasks_for_guarantee(epsilon: f64, delta: f64) -> Result<usize, SelectionError> {
    if epsilon.is_nan() || epsilon <= 0.0 || epsilon > 1.0 {
        return Err(SelectionError::InvalidConfig {
            what: "epsilon must lie in (0, 1]",
            value: epsilon,
        });
    }
    if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
        return Err(SelectionError::InvalidConfig {
            what: "delta must lie in (0, 1)",
            value: delta,
        });
    }
    Ok(((2.0 / (epsilon * epsilon)) * (3.0 / delta).ln()).ceil() as usize)
}

/// Per-round error bound of Theorem 2: `sqrt( (n k / B) * ln(1 / delta_c) )`.
///
/// The constant hidden in the paper's O-notation is taken as 1; the bench harness
/// reports the bound alongside the empirically measured regret so the shape can be
/// compared directly.
// c4u-lint: allow(unused-pub-fn, reason = "paper-facing: Theorem 1, checked by the reproduction smoke test")
pub fn epsilon_bound(
    rounds: usize,
    select_k: usize,
    budget: usize,
    delta_c: f64,
) -> Result<f64, SelectionError> {
    if rounds == 0 || select_k == 0 || budget == 0 {
        return Err(SelectionError::InvalidConfig {
            what: "rounds, select_k and budget must all be >= 1",
            value: 0.0,
        });
    }
    if delta_c.is_nan() || delta_c <= 0.0 || delta_c >= 1.0 {
        return Err(SelectionError::InvalidConfig {
            what: "delta_c must lie in (0, 1)",
            value: delta_c,
        });
    }
    Ok(((rounds * select_k) as f64 / budget as f64 * (1.0 / delta_c).ln()).sqrt())
}

/// The failure-probability schedule of Algorithm 4 (`delta_{c+1} = delta_c / 2`),
/// returning `delta_1, ..., delta_n`.
// c4u-lint: allow(unused-pub-fn, reason = "paper-facing: Theorem 2, checked by the reproduction smoke test")
pub fn delta_schedule(delta: f64, rounds: usize) -> Vec<f64> {
    (0..rounds).map(|c| delta / 2f64.powi(c as i32)).collect()
}

/// Empirical check of the elimination guarantee: given the true accuracies of the
/// remaining workers and the set of survivors, returns the regret
/// `max_j h_j - max_{i in survivors} h_i` (Theorem 1 bounds this by `eps_c` with
/// probability `1 - delta_c`).
// c4u-lint: allow(unused-pub-fn, reason = "paper-facing: Theorem 2, checked by the reproduction smoke test")
pub fn elimination_regret(true_accuracies: &[f64], survivors: &[usize]) -> f64 {
    let best_overall = true_accuracies
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let best_survivor = survivors
        .iter()
        .filter_map(|&i| true_accuracies.get(i))
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !best_overall.is_finite() || !best_survivor.is_finite() {
        return 0.0;
    }
    (best_overall - best_survivor).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::{median_eliminate, ScoredWorker};
    use c4u_stats::Bernoulli;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_complexity_formula() {
        // (2 / 0.1^2) * ln(3 / 0.05) = 200 * 4.094 = 818.9 -> 819.
        assert_eq!(tasks_for_guarantee(0.1, 0.05).unwrap(), 819);
        // Larger epsilon needs fewer tasks; smaller delta needs more.
        assert!(tasks_for_guarantee(0.2, 0.05).unwrap() < 819);
        assert!(tasks_for_guarantee(0.1, 0.01).unwrap() > 819);
        assert!(tasks_for_guarantee(0.0, 0.05).is_err());
        assert!(tasks_for_guarantee(0.1, 0.0).is_err());
        assert!(tasks_for_guarantee(0.1, 1.0).is_err());
    }

    #[test]
    fn epsilon_bound_shrinks_with_budget() {
        let small = epsilon_bound(3, 5, 600, 0.1).unwrap();
        let large = epsilon_bound(3, 5, 6000, 0.1).unwrap();
        assert!(large < small);
        // Budget enters under a square root: 10x budget -> sqrt(10) improvement.
        assert!((small / large - 10f64.sqrt()).abs() < 1e-9);
        assert!(epsilon_bound(0, 5, 100, 0.1).is_err());
        assert!(epsilon_bound(3, 5, 100, 1.5).is_err());
    }

    #[test]
    fn delta_schedule_halves() {
        let s = delta_schedule(0.2, 4);
        assert_eq!(s.len(), 4);
        assert!((s[0] - 0.2).abs() < 1e-12);
        assert!((s[1] - 0.1).abs() < 1e-12);
        assert!((s[3] - 0.025).abs() < 1e-12);
    }

    #[test]
    fn regret_of_perfect_survival_is_zero() {
        let accs = [0.5, 0.9, 0.7];
        assert_eq!(elimination_regret(&accs, &[1, 2]), 0.0);
        assert!((elimination_regret(&accs, &[0, 2]) - 0.2).abs() < 1e-12);
        assert_eq!(elimination_regret(&[], &[]), 0.0);
    }

    #[test]
    fn empirical_elimination_respects_the_bound() {
        // Simulate one elimination round with the Theorem 1 sample size and verify
        // that the regret exceeds epsilon in at most a small fraction of trials
        // (the theorem allows failures with probability delta).
        let epsilon = 0.25;
        let delta = 0.1;
        let tasks = tasks_for_guarantee(epsilon, delta).unwrap();
        let accuracies = [0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8];
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 60;
        let mut failures = 0;
        for _ in 0..trials {
            let scored: Vec<ScoredWorker> = accuracies
                .iter()
                .enumerate()
                .map(|(i, &acc)| {
                    let correct = Bernoulli::new(acc)
                        .unwrap()
                        .count_successes(&mut rng, tasks);
                    ScoredWorker::new(i, correct as f64 / tasks as f64)
                })
                .collect();
            let survivors = median_eliminate(&scored);
            if elimination_regret(&accuracies, &survivors) > epsilon {
                failures += 1;
            }
        }
        let failure_rate = failures as f64 / trials as f64;
        assert!(
            failure_rate <= delta + 0.05,
            "failure rate {failure_rate} exceeds the allowed {delta}"
        );
    }

    #[test]
    fn epsilon_bound_matches_theorem_2() {
        // RW-1: n = 2, k = 7, B = 540.
        let eps = epsilon_bound(2, 7, 540, 0.1).unwrap();
        assert!((eps - (14.0 / 540.0 * 10f64.ln()).sqrt()).abs() < 1e-15);
        assert!(epsilon_bound(2, 0, 540, 0.1).is_err());
        assert!(epsilon_bound(2, 7, 0, 0.1).is_err());
        assert!(epsilon_bound(2, 7, 540, f64::NAN).is_err());
    }

    #[test]
    fn regret_ignores_unknown_survivors() {
        let accs = [0.6, 0.8];
        assert!((elimination_regret(&accs, &[0, 7]) - 0.2).abs() < 1e-12);
        // No known survivor: no regret can be attributed.
        assert_eq!(elimination_regret(&accs, &[7]), 0.0);
        assert!(delta_schedule(0.1, 0).is_empty());
        assert!(tasks_for_guarantee(1.5, 0.1).is_err());
        assert_eq!(tasks_for_guarantee(1.0, 0.5).unwrap(), 4);
    }
}
