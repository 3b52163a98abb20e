//! The Eq. 11 fit on the tables an LGE-only campaign feeds it, against the
//! fit as it was before its one-`exp` knot scan and Newton stop rule
//! (`crates/irt/tests/oracle`).
//!
//! One LGE-only S-4 campaign on 10^3 workers is run through the selector;
//! every fitted worker's table is rebuilt from the round diagnostics (the
//! rebuilt table must reproduce the campaign's dynamic estimate bit for
//! bit), then fitted by both. The fit must land within 1e-9 of the oracle's
//! `alpha`, its residual no higher than the oracle's beyond a relative 1e-15
//! and the rounding of one evaluation of `f`.

#[path = "../crates/irt/tests/oracle/mod.rs"]
mod oracle;

use c4u_crowd_sim::{generate, DatasetConfig, Platform};
use c4u_irt::{calibrate_terms, log_tasks, LearningGainModel, LearningTerm};
use c4u_selection::{BudgetPlan, CrossDomainSelector, EstimationMode, LgeConfig, SelectorConfig};
use c4u_stats::sigmoid;
use std::collections::HashMap;

#[test]
fn lge_only_campaign_tables_fit_as_the_oracle_does() {
    let mut config = DatasetConfig::s4();
    config.pool_size = 1_000;
    let config = config.with_seed(7);
    let ds = generate(&config).unwrap();
    let mut platform = Platform::from_dataset(&ds, 8).unwrap();
    let selector =
        CrossDomainSelector::new(SelectorConfig::default().with_mode(EstimationMode::LgeOnly));
    let report = selector.run(&mut platform, config.select_k).unwrap();

    // The LGE stage's difficulties: the pool's prior-domain means (Sec. V-C).
    let profiles = platform.profiles();
    let domains = profiles.iter().map(|p| p.num_domains()).max().unwrap_or(0);
    let means: Vec<f64> = (0..domains)
        .map(|d| {
            let values: Vec<f64> = profiles.iter().filter_map(|p| p.accuracy(d)).collect();
            if values.is_empty() {
                0.5
            } else {
                c4u_stats::mean(&values).clamp(0.05, 0.95)
            }
        })
        .collect();
    let lge = LgeConfig::new(0.5, means).unwrap();
    let beta_t = lge.target_difficulty();
    let plan = BudgetPlan::new(profiles.len(), config.select_k, platform.budget_total()).unwrap();
    let cumulative: Vec<f64> = (0..=plan.rounds)
        .map(|j| plan.cumulative_tasks_after_round(j))
        .collect();

    let mut histories: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut fitted = 0;
    for round in &report.rounds {
        for (i, &worker) in round.entered.iter().enumerate() {
            let history = histories.entry(worker).or_default();
            history.push(round.static_estimates[i]);
            if history.len() == 1 {
                // Held at its sheet accuracy until training has started.
                continue;
            }
            let profile = platform.profile(worker).unwrap();
            let summands: Vec<(f64, f64, f64)> = (0..profile.num_domains())
                .filter_map(|d| {
                    let a = profile.accuracy(d)?;
                    let tasks = profile.task_count(d).max(1) as f64;
                    Some((log_tasks(tasks), lge.prior_difficulty(d), a.clamp(0.0, 1.0)))
                })
                .chain(
                    history
                        .iter()
                        .enumerate()
                        .map(|(j, &p)| (log_tasks(cumulative[j]), beta_t, p.clamp(0.0, 1.0))),
                )
                .collect();
            let terms: Vec<LearningTerm> = summands
                .iter()
                .map(|&(l, beta, a)| LearningTerm::with_log_tasks(l, beta, a))
                .collect();
            let fit = calibrate_terms(&terms).unwrap();
            let predicted = LearningGainModel::new(fit.alpha, beta_t)
                .unwrap()
                .accuracy(cumulative[round.round])
                .clamp(0.0, 1.0);
            assert_eq!(
                predicted.to_bits(),
                round.dynamic_estimates[i].to_bits(),
                "round {} worker {worker}: the rebuilt table is not the campaign's",
                round.round
            );

            let (oracle_alpha, oracle_residual) = oracle::calibrate(&summands);
            let rounding: f64 = summands
                .iter()
                .map(|&(l, beta, a)| (sigmoid(oracle_alpha * l - beta) - a).abs())
                .sum::<f64>()
                * 8.0
                * f64::EPSILON;
            assert!(
                (fit.alpha - oracle_alpha).abs() <= 1e-9
                    && fit.residual <= oracle_residual * (1.0 + 1e-15) + rounding,
                "round {} worker {worker}: fit ({}, {}) vs oracle ({oracle_alpha}, {oracle_residual})",
                round.round,
                fit.alpha,
                fit.residual
            );
            fitted += 1;
        }
    }
    assert!(fitted > 900, "{fitted} fits");
}
