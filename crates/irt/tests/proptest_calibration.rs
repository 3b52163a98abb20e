//! Property checks of the Eq. 11 fit against its references.
//!
//! `calibrate_alpha` scans the analytic derivative `f'` at nine knots across
//! the range that holds every stationary point and runs a bracketed Newton
//! iteration where `f'` turns positive. The references here are independent
//! of that code: `learning_objective` (which recomputes `ln(K + 1)` at every
//! evaluation), a transcription of `f'`, a dense grid over `[-20, 20]`, and
//! golden-section search plus a central-difference Newton polish (the fit
//! the scan replaced, transcribed below). `oracle` keeps the fit as it was
//! before its knot scan took the one-`exp` recurrence and its Newton loop a
//! stop rule: the library fit must land within 1e-9 of it.

use c4u_irt::{
    calibrate_alpha, calibrate_terms, learning_objective, IrtError, LearningTerm,
    PriorDomainObservation, TargetStageObservation,
};
use proptest::prelude::*;

mod oracle;
mod tables;

use tables::{extreme_table, lge_only_stages, lge_only_table, realistic_table, Table};

/// Golden-section search that evaluates the final bracket endpoints afresh;
/// returns the best point of the final bracket.
fn plain_golden_section(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> f64 {
    let inv_phi: f64 = (5.0_f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    let mut evaluations = 2;
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
        evaluations += 1;
        if evaluations > 10_000 {
            break;
        }
    }
    [(a, f(a)), (b, f(b)), (c, fc), (d, fd)]
        .into_iter()
        .filter(|(_, v)| v.is_finite())
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap()
        .0
}

/// Central-difference first derivative, step `1e-5 * max(1, |x|)`.
fn derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = 1e-5 * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Three-point second derivative, step `sqrt(1e-5) * max(1, |x|)`, with the
/// centre evaluated afresh.
fn second_derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = 1e-5_f64.sqrt() * x.abs().max(1.0);
    (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
}

/// Newton polish with every stencil point evaluated afresh; returns `(x, f(x))`.
fn plain_newton_polish(
    f: impl Fn(f64) -> f64,
    mut x: f64,
    lo: f64,
    hi: f64,
    iterations: usize,
) -> (f64, f64) {
    let mut value = f(x);
    for _ in 0..iterations {
        let d1 = derivative(&f, x);
        let d2 = second_derivative(&f, x);
        if !d1.is_finite() || !d2.is_finite() || d2.abs() < 1e-18 {
            break;
        }
        let candidate = (x - d1 / d2).clamp(lo, hi);
        let candidate_value = f(candidate);
        if candidate_value.is_finite() && candidate_value < value {
            x = candidate;
            value = candidate_value;
        } else {
            break;
        }
    }
    (x, value)
}

/// Golden-section search to 1e-7 over `[-20, 20]` plus the polish from its
/// minimum: `(alpha, f(alpha))`.
fn golden_reference(f: impl Fn(f64) -> f64) -> (f64, f64) {
    let coarse = plain_golden_section(&f, -20.0, 20.0, 1e-7);
    plain_newton_polish(&f, coarse, -20.0, 20.0, 8)
}

impl Table {
    fn objective(&self, alpha: f64) -> f64 {
        learning_objective(alpha, self.target_difficulty, &self.priors, &self.stages)
    }

    /// Every summand as `(ln(K + 1), beta, a)`.
    fn summands(&self) -> Vec<(f64, f64, f64)> {
        let scale = |k: f64| (k.max(0.0) + 1.0).ln();
        self.priors
            .iter()
            .map(|p| (scale(p.tasks_completed), p.difficulty, p.accuracy))
            .chain(self.stages.iter().map(|s| {
                (
                    scale(s.cumulative_tasks_before),
                    self.target_difficulty,
                    s.estimated_accuracy,
                )
            }))
            .collect()
    }

    /// `f'(alpha) = sum 2 (s - a) s (1 - s) L`, `s = sigmoid(alpha L - beta)`.
    fn slope(&self, alpha: f64) -> f64 {
        slope_of(&self.summands(), alpha)
    }

    /// The nine scan knots: evenly spaced between the smallest and the largest
    /// own minimiser `(logit a + beta) / L` of the summands with `L != 0`,
    /// clipped to `[-20, 20]`. Empty when no summand depends on `alpha`.
    fn knots(&self) -> Vec<f64> {
        let own: Vec<f64> = self
            .summands()
            .iter()
            .filter(|(l, _, _)| *l != 0.0)
            .map(|&(l, beta, a)| ((a / (1.0 - a)).ln() + beta) / l)
            .collect();
        if own.is_empty() {
            return Vec::new();
        }
        let lo = own.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = own.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = (lo.clamp(-20.0, 20.0), hi.clamp(-20.0, 20.0));
        (0..=8)
            .map(|i| {
                if i == 8 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / 8.0
                }
            })
            .collect()
    }

    /// `f` on a 4001-point grid over `[-20, 20]`, from the summands.
    fn grid_minimum(&self) -> f64 {
        let summands = self.summands();
        grid()
            .map(|alpha| {
                summands
                    .iter()
                    .map(|&(l, beta, a)| (sigmoid(alpha * l - beta) - a).powi(2))
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether `f'` on the 4001-point grid changes sign exactly once, from
    /// negative to positive (zeros skipped).
    fn single_valley(&self) -> bool {
        let summands = self.summands();
        let signs: Vec<bool> = grid()
            .map(|alpha| slope_of(&summands, alpha))
            .filter(|d| *d != 0.0)
            .map(|d| d > 0.0)
            .collect();
        let changes = signs.windows(2).filter(|w| w[0] != w[1]).count();
        changes == 1 && !signs[0]
    }
}

/// The dense grid: 4001 points, 0.01 apart, over `[-20, 20]`.
fn grid() -> impl Iterator<Item = f64> {
    (0..=4000).map(|i| -20.0 + 0.01 * f64::from(i))
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// `f'` over `(ln(K + 1), beta, a)` summands.
fn slope_of(summands: &[(f64, f64, f64)], alpha: f64) -> f64 {
    summands
        .iter()
        .map(|&(l, beta, a)| {
            let s = sigmoid(alpha * l - beta);
            2.0 * (s - a) * s * (1.0 - s) * l
        })
        .sum()
}

/// Property 4: the fit lands within 1e-9 of the oracle's `alpha`, and its
/// residual is at most the oracle's plus a relative 1e-15 plus the rounding
/// of one evaluation of `f`. Each `s - a` carries a few ulps of rounding, so
/// evaluations of `f` at points a few ulps apart differ by up to
/// `8 eps sum |s - a|`, which can exceed a relative 1e-15 of a small `f`.
fn check_matches_oracle(table: &Table) -> Result<(), String> {
    let Some((alpha, residual)) = fit(table) else {
        return Ok(());
    };
    let (oracle_alpha, oracle_residual) = oracle::calibrate(&table.summands());
    let rounding: f64 = table
        .summands()
        .iter()
        .map(|&(l, beta, a)| (sigmoid(oracle_alpha * l - beta) - a).abs())
        .sum::<f64>()
        * 8.0
        * f64::EPSILON;
    if (alpha - oracle_alpha).abs() > 1e-9 || residual > oracle_residual * (1.0 + 1e-15) + rounding
    {
        return Err(format!(
            "fit ({alpha}, {residual}) vs oracle ({oracle_alpha}, {oracle_residual})"
        ));
    }
    Ok(())
}

/// SplitMix64: the seeded source of the aggregate check's tables.
struct SplitMix(u64);

impl SplitMix {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// One table in [`realistic_table`]'s ranges.
    fn realistic_table(&mut self) -> Table {
        let target_difficulty = self.range(-2.9, 2.9);
        let priors = (0..(self.unit() * 5.0) as usize)
            .map(|_| PriorDomainObservation {
                difficulty: self.range(-2.9, 2.9),
                tasks_completed: self.range(0.0, 300.0),
                accuracy: self.range(0.3, 0.95),
            })
            .collect();
        let stages = (0..1 + (self.unit() * 5.0) as usize)
            .map(|_| TargetStageObservation {
                cumulative_tasks_before: self.range(0.0, 300.0),
                estimated_accuracy: self.range(0.3, 0.95),
            })
            .collect();
        Table {
            target_difficulty,
            priors,
            stages,
        }
    }

    /// One table in [`lge_only_table`]'s ranges.
    fn lge_only_table(&mut self) -> Table {
        let target_difficulty = self.range(-2.9, 2.9);
        let priors = (0..(self.unit() * 5.0) as usize)
            .map(|_| PriorDomainObservation {
                difficulty: self.range(-2.9, 2.9),
                tasks_completed: self.range(1.0, 300.0).floor(),
                accuracy: self.range(0.3, 0.95),
            })
            .collect();
        let sheets: Vec<(u32, u32, u32)> = (0..1 + (self.unit() * 5.0) as usize)
            .map(|_| {
                let len = 1 + (self.unit() * 6.0) as u32;
                let correct = (self.unit() * f64::from(len + 1)) as u32;
                (len, correct, 1 + (self.unit() * 39.0) as u32)
            })
            .collect();
        Table {
            target_difficulty,
            priors,
            stages: lge_only_stages(&sheets),
        }
    }
}

/// The fit over a table, `None` for a table with no observation.
fn fit(table: &Table) -> Option<(f64, f64)> {
    let fitted = calibrate_alpha(table.target_difficulty, &table.priors, &table.stages);
    if table.priors.is_empty() && table.stages.is_empty() {
        assert!(fitted.is_err());
        return None;
    }
    let fitted = fitted.unwrap();
    Some((fitted.alpha, fitted.residual))
}

/// Property 1: the fit is no higher than any scan knot (exactly: the knots
/// are candidates) or either end of the range (up to rounding: `f` falls
/// monotonically from an end to the nearest knot only in exact arithmetic).
fn check_lowest_among_knots(table: &Table) -> Result<(), String> {
    let Some((alpha, residual)) = fit(table) else {
        return Ok(());
    };
    if residual != table.objective(alpha) {
        return Err(format!("residual {residual} is not f({alpha})"));
    }
    for knot in table.knots() {
        if residual > table.objective(knot) {
            return Err(format!("f({alpha}) = {residual} above knot {knot}"));
        }
    }
    for edge in [-20.0, 20.0] {
        let at_edge = table.objective(edge);
        if residual > at_edge + 4.0 * f64::EPSILON * at_edge {
            return Err(format!(
                "f({alpha}) = {residual} above f({edge}) = {at_edge}"
            ));
        }
    }
    Ok(())
}

/// Property 2: an interior fit is converged: `f'` vanishes to rounding there,
/// or changes sign within 1e-12 of it.
fn check_converged(table: &Table) -> Result<(), String> {
    let Some((alpha, _)) = fit(table) else {
        return Ok(());
    };
    if alpha.abs() == 20.0 {
        return Ok(());
    }
    let scale: f64 = table.summands().iter().map(|(l, _, _)| l.abs()).sum();
    let tiny = table.slope(alpha).abs() <= 1e-12 * scale.max(1.0);
    let bracketed = table.slope(alpha - 1e-12) <= 0.0 && table.slope(alpha + 1e-12) >= 0.0;
    if tiny || bracketed {
        Ok(())
    } else {
        Err(format!(
            "alpha {alpha} not converged: f' = {:e}",
            table.slope(alpha)
        ))
    }
}

/// Property 3: on a single-valley table the fit is no higher than
/// golden-section plus polish, and lands on the same `alpha` unless it is
/// lower (golden-section's first probes can step over a valley narrower than
/// their spacing, e.g. one of a `K = 10^7` term).
fn check_matches_golden_section(table: &Table) -> Result<(), String> {
    let Some((alpha, residual)) = fit(table) else {
        return Ok(());
    };
    if !table.single_valley() {
        return Ok(());
    }
    let (ref_alpha, ref_value) = golden_reference(|a| table.objective(a));
    let slack = 1e-12 * ref_value.max(1.0);
    if residual > ref_value + slack {
        return Err(format!("f {residual} vs golden-section {ref_value}"));
    }
    if residual >= ref_value - slack && (alpha - ref_alpha).abs() > 1e-6 {
        return Err(format!("alpha {alpha} vs golden-section {ref_alpha}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fit_is_no_higher_than_any_scan_knot_or_range_end(
        extreme in extreme_table(),
        realistic in realistic_table(),
    ) {
        for table in [&extreme, &realistic] {
            let checked = check_lowest_among_knots(table);
            prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, table);
        }
    }

    #[test]
    fn interior_fit_is_a_converged_stationary_point(
        extreme in extreme_table(),
        realistic in realistic_table(),
    ) {
        for table in [&extreme, &realistic] {
            let checked = check_converged(table);
            prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, table);
        }
    }

    #[test]
    fn single_valley_fit_matches_golden_section_plus_polish(
        extreme in extreme_table(),
        realistic in realistic_table(),
    ) {
        for table in [&extreme, &realistic] {
            let checked = check_matches_golden_section(table);
            prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, table);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lge_only_tables_fit_lowest_converged_and_as_golden_section(lge_only in lge_only_table()) {
        for check in [check_lowest_among_knots, check_converged, check_matches_golden_section] {
            let checked = check(&lge_only);
            prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, lge_only);
        }
    }

    #[test]
    fn fit_matches_the_oracle(
        extreme in extreme_table(),
        realistic in realistic_table(),
        lge_only in lge_only_table(),
    ) {
        for table in [&extreme, &realistic, &lge_only] {
            let checked = check_matches_oracle(table);
            prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, table);
        }
    }
}

#[test]
fn fit_matches_the_oracle_on_seeded_tables() {
    let mut rng = SplitMix(0x0c4u64 << 40 | 12);
    for _ in 0..10_000 {
        for table in [rng.realistic_table(), rng.lge_only_table()] {
            let checked =
                check_matches_oracle(&table).and_then(|()| check_lowest_among_knots(&table));
            assert!(checked.is_ok(), "{checked:?}: {table:?}");
        }
    }
}

#[test]
fn fit_misses_the_grid_minimum_no_more_often_than_golden_section() {
    let mut rng = SplitMix(0x0c4u64 << 40 | 11);
    let (mut fit_misses, mut golden_misses) = (0, 0);
    for _ in 0..10_000 {
        let table = rng.realistic_table();
        let floor = table.grid_minimum() + 1e-9;
        let (_, residual) = fit(&table).unwrap();
        let (_, golden) = golden_reference(|a| table.objective(a));
        fit_misses += usize::from(residual > floor);
        golden_misses += usize::from(golden > floor);
    }
    assert!(
        fit_misses <= golden_misses && golden_misses > 0,
        "fit missed {fit_misses}, golden-section {golden_misses} of 10^4 tables"
    );
}

#[test]
fn bimodal_table_fits_the_deeper_valley_that_golden_section_misses() {
    // Two valleys, near alpha = -0.68 and alpha = 0.42; the second is deeper.
    let table = Table {
        target_difficulty: -2.45,
        priors: vec![
            PriorDomainObservation {
                difficulty: 1.91,
                tasks_completed: 247.0,
                accuracy: 0.56,
            },
            PriorDomainObservation {
                difficulty: 2.27,
                tasks_completed: 219.0,
                accuracy: 0.58,
            },
        ],
        stages: vec![TargetStageObservation {
            cumulative_tasks_before: 95.0,
            estimated_accuracy: 0.32,
        }],
    };
    let (alpha, residual) = fit(&table).unwrap();
    let (golden_alpha, golden) = golden_reference(|a| table.objective(a));
    assert!(residual <= table.grid_minimum(), "{residual}");
    assert!(
        alpha > 0.0 && golden_alpha < 0.0,
        "{alpha} vs {golden_alpha}"
    );
    assert!(golden > residual + 0.1, "{golden} vs {residual}");
    // Golden-section's point is the floor of the shallower valley.
    assert!(table.slope(golden_alpha).abs() < 1e-6);
}

/// A table entry that may be non-finite or extreme.
fn wild() -> impl Strategy<Value = f64> {
    (0u8..10, -40.0..40.0f64).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e300,
        4 => -1e300,
        5 => 0.0,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn no_table_panics_or_fits_a_non_finite_value(
        entries in prop::collection::vec((wild(), wild(), 0.0..=1.0f64), 1..=5),
    ) {
        let terms: Vec<LearningTerm> = entries
            .iter()
            .map(|&(log_tasks, difficulty, accuracy)| {
                LearningTerm::with_log_tasks(log_tasks, difficulty, accuracy)
            })
            .collect();
        let has_nan = entries.iter().any(|(l, d, _)| l.is_nan() || d.is_nan());
        match calibrate_terms(&terms) {
            Ok(fitted) => {
                prop_assert!(!has_nan, "NaN entry fitted: {:?}", entries);
                prop_assert!(
                    fitted.alpha.is_finite() && fitted.residual.is_finite(),
                    "{:?} from {:?}",
                    fitted,
                    entries
                );
            }
            Err(e) => prop_assert!(
                !has_nan || matches!(e, IrtError::Calibration(_)),
                "{:?} from {:?}",
                e,
                entries
            ),
        }
    }
}
