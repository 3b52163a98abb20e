//! Calibration of the per-worker learning parameter `alpha_i` (Eq. 11 of the paper).
//!
//! In every elimination round the Learning Gain Estimation refits each remaining
//! worker's `alpha_i` by minimising a two-part least-squares objective:
//!
//! ```text
//! alpha_i = argmin_alpha   sum_{d=1..D} ( g(alpha, beta_d, n_{i,d}) - h_{i,d} )^2
//!                        + sum_{j=1..c} ( g(alpha, beta_T, K_{j-1}) - p_{j,i} )^2
//! ```
//!
//! The first part anchors the learning curve to the worker's historical accuracy on
//! each prior domain (evaluated at the number of tasks the worker completed there);
//! the second part tracks the CPE-estimated target-domain accuracy across the
//! training rounds observed so far, with the model evaluated one round "behind"
//! because the CPE estimate of round `j` reflects a worker who has been shown only
//! `j-1` rounds of ground-truth answers.
//!
//! Every summand has the same shape, `(sigmoid(alpha * ln(K + 1) - beta) - a)^2`,
//! so the fit runs over a table of [`LearningTerm`]s with `ln(K + 1)` taken once
//! per term rather than once per term and objective evaluation. [`calibrate_terms`]
//! is the one fit. One exact pass over the table gives the objective `f` and its
//! analytic derivatives `f'` and `f''` (one sigmoid per term). Each term alone
//! is minimised at `alpha_t = (logit a_t + beta_t) / ln(K_t + 1)` and falls
//! towards it from both sides, so every stationary point of `f` lies between
//! the smallest and the largest `alpha_t`. The fit scans `f'` at nine evenly
//! spaced knots across that range (clipped to `[-20, 20]`), runs a bracketed
//! Newton iteration (`rtsafe`, Press et al., *Numerical Recipes* §9.4) in every
//! interval where `f'` turns from negative to positive, and keeps the lowest
//! `f` among the converged points and the knots. An interval whose ends' `f`
//! and `f'` show a valley that their slopes do not bracket is halved until
//! they do, unless a lower bound rules it out (below). The objective can have
//! two valleys, which the scan keeps apart where a single descent would fall
//! into either. A table in which no term depends on `alpha` (every term at
//! `K = 0`) fits `alpha = 0`.
//!
//! The knot scan is one pass, not nine: along evenly spaced knots a term's
//! `exp(beta - alpha L)` is a geometric sequence, so it takes two `exp` calls
//! per term and a multiplication per knot (a term whose sequence would
//! overflow or underflow takes the exact sigmoid at each knot). Its values
//! differ from exact passes by a few ulps per term, and each knot carries a
//! bound on that difference. The point the search settles on is then
//! evaluated exactly, and so is every knot whose value, less its bound, comes
//! within a relative 1e-12 of it; the lowest of these is the fit. So the
//! residual is an exact pass, `objective(alpha)` bit for bit, and no higher
//! than any knot. A Newton iteration stops once `f'' > 0` and its next step
//! is at most 1e-12, as `rtsafe` does, rather than bisecting the bracket
//! around a root it has already found.
//!
//! Most intervals cannot hold the minimum, and the scan says which. Each
//! term's residual `sigmoid(alpha L - beta) - a` is monotone in `alpha`, so
//! its square over an interval is at least the smaller of its squares at the
//! two knots, or 0 where the residual changes sign. Summed, less the knots'
//! rounding bound, that gives a lower bound on `f` over the interval. The
//! fit walks the intervals left to right and skips one whose bound lies
//! above the lowest point known so far (knots at their value plus bound),
//! with a margin for rounding: whatever its search could return would not
//! win, so the fit keeps every bit it has without the pruning (branch and
//! bound, as in interval global optimisation; Hansen & Walster, *Global
//! Optimization Using Interval Analysis*, 2004). On LGE-only campaign tables
//! that skips nearly every halving and halves the exact passes per fit. The
//! scan runs its per-knot arithmetic in columns of nine lanes, one per knot,
//! with the same IEEE operations per lane as an exact pass.
//!
//! [`calibrate_alpha`] validates the observation form and builds its table;
//! [`objective`] keeps the Eq. 11 sum in that form as the reference the table sum
//! equals bit for bit.

use crate::learning::log_tasks;
use crate::IrtError;
use c4u_stats::sigmoid;

/// One prior-domain anchor point of the Eq. 11 objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorDomainObservation {
    /// Difficulty parameter `beta_d` of the prior domain.
    pub difficulty: f64,
    /// Number of tasks the worker completed on that domain (`n_{i,d}`).
    pub tasks_completed: f64,
    /// Historical accuracy `h_{i,d}` of the worker on that domain.
    pub accuracy: f64,
}

/// One target-domain tracking point of the Eq. 11 objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetStageObservation {
    /// Cumulative learning tasks the worker had been trained with *before* the CPE
    /// estimate was produced (`K_{j-1}`).
    pub cumulative_tasks_before: f64,
    /// CPE-estimated target-domain accuracy at stage `j` (`p_{j,i}`).
    pub estimated_accuracy: f64,
}

/// One summand of the Eq. 11 objective,
/// `(sigmoid(alpha * ln(K + 1) - difficulty) - accuracy)^2`, with the training
/// count already mapped to `ln(K + 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningTerm {
    log_tasks: f64,
    difficulty: f64,
    accuracy: f64,
    /// The summand when it cannot depend on `alpha`: at `K = 0` the
    /// proficiency `alpha * ln 1` is `±0` for every finite `alpha`, so the
    /// sigmoid's argument is `-difficulty` (or `±0`, which it maps alike).
    fixed: Option<f64>,
}

impl LearningTerm {
    /// A term at `cumulative_tasks` training tasks (negative counts clamp to 0):
    /// `n_{i,d}` with `beta_d` and `h_{i,d}` for a prior-domain anchor,
    /// `K_{j-1}` with `beta_T` and `p_{j,i}` for a target-domain stage.
    pub fn new(cumulative_tasks: f64, difficulty: f64, accuracy: f64) -> Self {
        Self::with_log_tasks(log_tasks(cumulative_tasks), difficulty, accuracy)
    }

    /// A term whose `ln(K + 1)` (see [`log_tasks`]) is already known, e.g.
    /// from a per-round table.
    pub fn with_log_tasks(log_tasks: f64, difficulty: f64, accuracy: f64) -> Self {
        let mut term = Self {
            log_tasks,
            difficulty,
            accuracy,
            fixed: None,
        };
        if log_tasks == 0.0 {
            term.fixed = Some((sigmoid(-difficulty) - accuracy).powi(2));
        }
        term
    }
}

/// Bounds of the search range for `alpha`. The logit of any realistic accuracy is
/// within ±7 and `ln(K+1)` is at least `ln 2` for a single task, so ±20 comfortably
/// covers every identifiable value.
const ALPHA_RANGE: (f64, f64) = (-20.0, 20.0);

/// Intervals of the `f'` scan across the stationary range (one more knot).
const SCAN_INTERVALS: usize = 8;

/// A Newton iteration stops once its next step, or its bracket, is this narrow.
const ALPHA_TOLERANCE: f64 = 1e-12;

/// A scan knot is evaluated exactly when its value, less its rounding bound,
/// lies within this relative distance of the best exact point.
const KNOT_RECHECK: f64 = 1e-12;

/// Halvings of a scan interval in which `f` and `f'` at its ends show a
/// valley their slopes do not bracket.
const MAX_SPLITS: usize = 6;

/// Cap on one bracketed Newton iteration: bisection alone narrows a
/// `40 / SCAN_INTERVALS` bracket to [`ALPHA_TOLERANCE`] in 43 steps.
const MAX_NEWTON_STEPS: usize = 64;

/// Result of one calibration: the fitted `alpha` and the residual objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedAlpha {
    /// Fitted learning parameter.
    pub alpha: f64,
    /// Residual sum of squares at the fitted value.
    pub residual: f64,
}

/// Evaluates the Eq. 11 objective for a given `alpha`.
///
/// This is the reference form over observations; the fit evaluates the same sum,
/// in the same order (priors, then stages), over a [`LearningTerm`] table.
// c4u-lint: allow(unused-pub-fn, reason = "test oracle: the Eq. 11 objective over observations that the fit is checked against")
pub fn objective(
    alpha: f64,
    target_difficulty: f64,
    priors: &[PriorDomainObservation],
    stages: &[TargetStageObservation],
) -> f64 {
    let mut total = 0.0;
    for p in priors {
        let theta = alpha * log_tasks(p.tasks_completed);
        let predicted = sigmoid(theta - p.difficulty);
        total += (predicted - p.accuracy).powi(2);
    }
    for s in stages {
        let theta = alpha * log_tasks(s.cumulative_tasks_before);
        let predicted = sigmoid(theta - target_difficulty);
        total += (predicted - s.estimated_accuracy).powi(2);
    }
    total
}

/// Fits `alpha_i` by minimising the Eq. 11 objective.
///
/// At least one observation (prior-domain anchor or target-domain stage) is required;
/// with none the parameter is unidentifiable and an error is returned.
// c4u-lint: allow(unused-pub-fn, reason = "paper-facing: Eq. 11 fitted over observations, shown in the crate docs")
pub fn calibrate_alpha(
    target_difficulty: f64,
    priors: &[PriorDomainObservation],
    stages: &[TargetStageObservation],
) -> Result<CalibratedAlpha, IrtError> {
    if priors.is_empty() && stages.is_empty() {
        return Err(unidentifiable());
    }
    if !target_difficulty.is_finite() {
        return Err(IrtError::InvalidParameter {
            what: "target difficulty must be finite",
            value: target_difficulty,
        });
    }
    for p in priors {
        if !(0.0..=1.0).contains(&p.accuracy) {
            return Err(IrtError::InvalidParameter {
                what: "prior-domain accuracy must lie in [0, 1]",
                value: p.accuracy,
            });
        }
    }
    for s in stages {
        if !(0.0..=1.0).contains(&s.estimated_accuracy) {
            return Err(IrtError::InvalidParameter {
                what: "stage accuracy must lie in [0, 1]",
                value: s.estimated_accuracy,
            });
        }
    }
    calibrate_terms(&observation_terms(target_difficulty, priors, stages))
}

/// The term table of an observation form: priors first, then stages.
fn observation_terms(
    target_difficulty: f64,
    priors: &[PriorDomainObservation],
    stages: &[TargetStageObservation],
) -> Vec<LearningTerm> {
    priors
        .iter()
        .map(|p| LearningTerm::new(p.tasks_completed, p.difficulty, p.accuracy))
        .chain(stages.iter().map(|s| {
            LearningTerm::new(
                s.cumulative_tasks_before,
                target_difficulty,
                s.estimated_accuracy,
            )
        }))
        .collect()
}

/// Fits `alpha_i` over a precomputed Eq. 11 term table.
///
/// The table must be non-empty, every accuracy must lie in `[0, 1]`, and every
/// difficulty and `ln(K + 1)` must be finite; the fit is then finite too (the
/// search stays inside `[-20, 20]`, and every summand inside `[0, 1]`). The
/// objective sums the terms in slice order, so a table built from
/// [`calibrate_alpha`]'s observations (priors first) gives its exact bits. A
/// table whose terms all sit at `K = 0` does not depend on `alpha` and fits
/// `alpha = 0`, the untrained curve.
pub fn calibrate_terms(terms: &[LearningTerm]) -> Result<CalibratedAlpha, IrtError> {
    if terms.is_empty() {
        return Err(unidentifiable());
    }
    if let Some(t) = terms.iter().find(|t| !(0.0..=1.0).contains(&t.accuracy)) {
        return Err(IrtError::InvalidParameter {
            what: "term accuracy must lie in [0, 1]",
            value: t.accuracy,
        });
    }
    if let Some(t) = terms
        .iter()
        .find(|t| !t.difficulty.is_finite() || !t.log_tasks.is_finite())
    {
        return Err(IrtError::Calibration(format!(
            "term difficulty {} and ln(K + 1) = {} must be finite",
            t.difficulty, t.log_tasks
        )));
    }
    let best = match stationary_range(terms) {
        Some((lo, hi)) => scan_and_polish(terms, lo, hi),
        // No term depends on alpha: the untrained curve.
        None => evaluate(terms, 0.0),
    };
    Ok(CalibratedAlpha {
        alpha: best.alpha,
        residual: best.value,
    })
}

/// The range that holds every stationary point, between the terms' own
/// minimisers and clipped to [`ALPHA_RANGE`]; `None` when no term depends on
/// `alpha`.
fn stationary_range(terms: &[LearningTerm]) -> Option<(f64, f64)> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for t in terms.iter().filter(|t| t.fixed.is_none()) {
        let own = ((t.accuracy / (1.0 - t.accuracy)).ln() + t.difficulty) / t.log_tasks;
        lo = lo.min(own);
        hi = hi.max(own);
    }
    (lo <= hi).then(|| {
        (
            lo.clamp(ALPHA_RANGE.0, ALPHA_RANGE.1),
            hi.clamp(ALPHA_RANGE.0, ALPHA_RANGE.1),
        )
    })
}

/// The lowest point of `f` on `[lo, hi]` among the knots of the `f'` scan
/// and what [`lowest_between`] finds between neighbouring knots.
///
/// The intervals are walked left to right, keeping `upper`, the lowest
/// `value + error` among the knots and the points found so far. The winner
/// is no higher than any knot or found point, so no higher than `upper`.
/// An interval whose [`Scan::floors`] bound lies above `upper` by more than
/// a relative [`KNOT_RECHECK`] and `8 eps` per term (against the rounding of
/// the bound's and an exact pass's sums) and an absolute `8 eps` per term
/// (see [`scan`]) holds no exact pass that low, and neither of its ends is,
/// so it is not searched: its lower end stands for it. Nothing its search
/// could have returned would have won, so the winner is the one the full
/// search finds, bit for bit.
///
/// The knots come from [`scan`], whose values may differ from an exact pass
/// by up to their `error`; every other point is an exact pass. So the
/// winner is evaluated exactly, and so is every knot that may undercut it:
/// one whose value, less its `error`, lies within a relative
/// [`KNOT_RECHECK`] of the winner's. The result is then an exact pass, no
/// higher than any knot.
fn scan_and_polish(terms: &[LearningTerm], lo: f64, hi: f64) -> Evaluation {
    if lo == hi {
        return evaluate(terms, lo);
    }
    let Scan { knots, floors } = scan(terms, lo, hi);
    let slack = 8.0 * terms.len() as f64 * f64::EPSILON;
    let mut upper = knots
        .iter()
        .map(|knot| knot.value + knot.error)
        .fold(f64::INFINITY, f64::min);
    let mut found = knots[0];
    for (pair, floor) in knots.windows(2).zip(floors) {
        let between = if floor > upper * (1.0 + KNOT_RECHECK + slack) + slack {
            lower(pair[0], pair[1])
        } else {
            let between = lowest_between(terms, pair[0], pair[1], MAX_SPLITS);
            upper = upper.min(between.value + between.error);
            between
        };
        found = lower(found, between);
    }
    polish(terms, found, &knots)
}

/// The exact pass at the search's winner `found`, or at a knot that
/// undercuts it once evaluated exactly.
fn polish(
    terms: &[LearningTerm],
    found: Evaluation,
    knots: &[Evaluation; SCAN_INTERVALS + 1],
) -> Evaluation {
    let mut best = if found.error == 0.0 {
        found
    } else {
        evaluate(terms, found.alpha)
    };
    for knot in knots.iter().copied() {
        if knot.alpha != best.alpha
            && knot.value - knot.error <= best.value + KNOT_RECHECK * best.value
        {
            best = lower(best, evaluate(terms, knot.alpha));
        }
    }
    best
}

/// One quantity at each of the `SCAN_INTERVALS + 1` scan knots.
type Lanes = [f64; SCAN_INTERVALS + 1];

/// What one [`scan`] pass gives: the knots, and below each interval between
/// neighbouring knots a bound no exact pass inside it, or at its ends, falls
/// under.
struct Scan {
    knots: [Evaluation; SCAN_INTERVALS + 1],
    floors: [f64; SCAN_INTERVALS],
}

/// `f`, `f'` and `f''` at the `SCAN_INTERVALS + 1` evenly spaced knots of
/// `[lo, hi]` (`lo < hi`) in one pass over the table, and a lower bound on
/// `f` over each interval between them.
///
/// A term's sigmoid at knot `k` is `1 / (1 + E_k)` with
/// `E_k = exp(beta - lo L) * exp(-step L)^k`: two `exp` calls per term
/// rather than one per knot. A term whose `E_0` or ratio is not finite and
/// positive takes the exact sigmoid at every knot instead. Each knot carries
/// a bound on how far its value may sit from an exact pass: the recurrence
/// moves `E_k` by a relative error of a few ulps per unit of the exponents'
/// and knots' magnitudes, which moves each sigmoid by at most a quarter of
/// that (`s (1 - s) <= 1/4`) and each residual `r` alike, by at most `delta`.
///
/// The bound rests on each term's residual `r = s - a` being monotone in
/// `alpha` (rising for `L > 0`, falling for `L < 0`). An exact pass keeps
/// that order to within an ulp or two: it rounds `alpha L - beta`
/// monotonically, and only `exp` and the sigmoid's division can step
/// against it. So between two knots where `r` keeps its sign, an exact
/// pass's `|r|` is at least `m - delta'`, with `m` the smaller `|r|` of the
/// knots and `delta' = delta + 4 eps` (`delta` spans the gap between a knot
/// and an exact pass at its `alpha`); where `r` changes sign, it is at least
/// 0. Its square is then at least
/// `(m - delta')_+^2 >= m^2 - 2 delta m - 8 eps m`. So an interval's bound
/// sums `m^2` (or 0) and the fixed terms in table order, which puts it at or
/// below both ends' values bit for bit, and subtracts `2 delta sum m`;
/// [`scan_and_polish`] allows for the `8 eps m <= 8 eps` per term and the
/// rounding of the sums.
///
/// The `E_k` recurrence runs serially per term; the sigmoids, the sums and
/// the bounds then run over one [`Lanes`] column per quantity, with the same
/// IEEE operations per knot as an exact pass's [`Sums::add`].
fn scan(terms: &[LearningTerm], lo: f64, hi: f64) -> Scan {
    let alphas: Lanes = std::array::from_fn(|i| {
        if i == SCAN_INTERVALS {
            hi
        } else {
            lo + (hi - lo) * i as f64 / SCAN_INTERVALS as f64
        }
    });
    let step = (hi - lo) / SCAN_INTERVALS as f64;
    let span = lo.abs().max(hi.abs());
    let mut value: Lanes = [0.0; SCAN_INTERVALS + 1];
    let mut slope: Lanes = [0.0; SCAN_INTERVALS + 1];
    let mut curvature: Lanes = [0.0; SCAN_INTERVALS + 1];
    let mut abs_residuals: Lanes = [0.0; SCAN_INTERVALS + 1];
    // Per interval: the fixed terms and each other term's `m^2`, and `sum m`.
    let mut squares = [0.0; SCAN_INTERVALS];
    let mut nearest = [0.0; SCAN_INTERVALS];
    // The largest relative error of a recurrence `E_k`, in units of epsilon.
    let mut worst_ulps: f64 = 0.0;
    for t in terms {
        if let Some(fixed) = t.fixed {
            for v in &mut value {
                *v += fixed;
            }
            for q in &mut squares {
                *q += fixed;
            }
            continue;
        }
        let exponent = t.difficulty - lo * t.log_tasks;
        let decay = step * t.log_tasks;
        let (mut e, ratio) = (exponent.exp(), (-decay).exp());
        let mut s: Lanes = [0.0; SCAN_INTERVALS + 1];
        if e.is_finite() && e > 0.0 && ratio.is_finite() && ratio > 0.0 {
            worst_ulps = worst_ulps.max(
                4.0 * exponent.abs()
                    + 4.0 * SCAN_INTERVALS as f64 * decay.abs()
                    + 8.0 * span * t.log_tasks.abs()
                    + 2.0 * SCAN_INTERVALS as f64,
            );
            for power in &mut s {
                *power = e;
                e *= ratio;
            }
            for s in &mut s {
                *s = 1.0 / (1.0 + *s);
            }
        } else {
            for (s, alpha) in s.iter_mut().zip(alphas) {
                *s = sigmoid(alpha * t.log_tasks - t.difficulty);
            }
        }
        let (l, a) = (t.log_tasks, t.accuracy);
        let mut r: Lanes = [0.0; SCAN_INTERVALS + 1];
        for (r, s) in r.iter_mut().zip(s) {
            *r = s - a;
        }
        for k in 0..SCAN_INTERVALS + 1 {
            let w = s[k] * (1.0 - s[k]) * l;
            value[k] += r[k] * r[k];
            slope[k] += 2.0 * r[k] * w;
            curvature[k] += 2.0 * (w * w + r[k] * w * (1.0 - 2.0 * s[k]) * l);
            abs_residuals[k] += r[k].abs();
        }
        for k in 0..SCAN_INTERVALS {
            let (left, right) = (r[k].abs(), r[k + 1].abs());
            let smaller = if left < right { left } else { right };
            let m = if r[k] * r[k + 1] > 0.0 { smaller } else { 0.0 };
            squares[k] += m * m;
            nearest[k] += m;
        }
    }
    // A bound on each sigmoid's distance from the exact pass's, rounding of
    // both included; the squares and the sums add their own rounding.
    let delta = f64::EPSILON * (0.25 * worst_ulps + 4.0);
    let n = terms.len() as f64;
    Scan {
        knots: std::array::from_fn(|k| Evaluation {
            alpha: alphas[k],
            value: value[k],
            slope: slope[k],
            curvature: curvature[k],
            error: delta * (2.0 * abs_residuals[k] + n * delta)
                + 2.0 * (n + 1.0) * f64::EPSILON * value[k],
        }),
        floors: std::array::from_fn(|k| squares[k] - 2.0 * delta * nearest[k]),
    }
}

/// The lowest of two ends `a < b` of an interval and the points found inside.
/// Where `f'` turns from `<= 0` to `>= 0` that is the Newton root; a root
/// above an end that `f` falls away from is not the lowest point, so that
/// side is searched [`halves`] deep. Without the turn, the interval is
/// searched where [`hermite_minimum`] shows a valley between its ends.
fn lowest_between(
    terms: &[LearningTerm],
    a: Evaluation,
    b: Evaluation,
    splits: usize,
) -> Evaluation {
    if a.slope_sign() <= 0.0 && b.slope_sign() >= 0.0 {
        let root = bracketed_newton(terms, a, b);
        let left = if a.slope_sign() < 0.0 && root.value > a.value {
            halves(terms, a, root, splits)
        } else {
            a
        };
        let right = if b.slope_sign() > 0.0 && root.value > b.value {
            halves(terms, root, b, splits)
        } else {
            b
        };
        lower(root, lower(left, right))
    } else if hermite_minimum(&a, &b).is_some() {
        halves(terms, a, b, splits)
    } else {
        lower(a, b)
    }
}

/// The lowest point of both halves of `[a, b]`, or its lower end once
/// `splits` halvings are spent.
fn halves(terms: &[LearningTerm], a: Evaluation, b: Evaluation, splits: usize) -> Evaluation {
    if splits == 0 {
        return lower(a, b);
    }
    #[cfg(test)]
    HALVINGS.with(|halvings| halvings.set(halvings.get() + 1));
    let mid = evaluate(terms, 0.5 * (a.alpha + b.alpha));
    lower(
        lowest_between(terms, a, mid, splits - 1),
        lowest_between(terms, mid, b, splits - 1),
    )
}

/// The interior local minimum of the cubic Hermite interpolant of `f` on
/// `[a, b]`, if it has one. With `t` in `[0, 1]` its slope is
/// `d0 + c1 t + c2 t^2`, whose rising root is
/// `-2 d0 / (c1 + sqrt(c1^2 - 4 c2 d0))`. It has one where `f` turns from
/// falling to rising, where `f` falls from one end and yet ends higher at the
/// other, and where the ends' slopes are steep against the rise between them.
fn hermite_minimum(a: &Evaluation, b: &Evaluation) -> Option<f64> {
    let width = b.alpha - a.alpha;
    let (d0, d1, rise) = (width * a.slope, width * b.slope, b.value - a.value);
    let c1 = 2.0 * (3.0 * rise - 2.0 * d0 - d1);
    let c2 = 3.0 * (d0 + d1 - 2.0 * rise);
    let discriminant = c1 * c1 - 4.0 * c2 * d0;
    let t = -2.0 * d0 / (c1 + discriminant.sqrt());
    (discriminant > 0.0 && t > 0.0 && t < 1.0).then_some(a.alpha + t * width)
}

/// The lower of two evaluations, the first on a tie.
fn lower(a: Evaluation, b: Evaluation) -> Evaluation {
    if b.value < a.value {
        b
    } else {
        a
    }
}

/// The Eq. 11 objective `f` and its derivatives at one `alpha`.
#[derive(Debug, Clone, Copy)]
struct Evaluation {
    alpha: f64,
    value: f64,
    slope: f64,
    curvature: f64,
    /// A bound on `|value - f(alpha)|` against an exact pass: 0 for an exact
    /// pass, positive for a [`scan`] knot.
    error: f64,
}

impl Evaluation {
    /// The sign the scan reads off `f'`. Where every term has saturated,
    /// `1 - sigmoid` rounds to 0 and `f' = f'' = 0`: that plateau is not a
    /// minimum, and `f` rises towards it on the side of the sign of `alpha`.
    fn slope_sign(&self) -> f64 {
        if self.slope == 0.0 && self.curvature <= 0.0 {
            self.alpha
        } else {
            self.slope
        }
    }
}

/// Running sums of `f`, `f'` and `f''` over a table.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    value: f64,
    slope: f64,
    curvature: f64,
}

impl Sums {
    /// Adds an `alpha`-dependent term at sigmoid value `s` and returns its
    /// residual `s - a`. With `w = s (1 - s) L`, the term adds `(s - a)^2`,
    /// `2 (s - a) w` and `2 [w^2 + (s - a) w (1 - 2 s) L]`.
    fn add(&mut self, t: &LearningTerm, s: f64) -> f64 {
        let r = s - t.accuracy;
        let w = s * (1.0 - s) * t.log_tasks;
        self.value += r * r;
        self.slope += 2.0 * r * w;
        self.curvature += 2.0 * (w * w + r * w * (1.0 - 2.0 * s) * t.log_tasks);
        r
    }
}

#[cfg(test)]
thread_local! {
    /// Exact passes over a table made on this thread (test-only count).
    static EXACT_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Interval midpoints [`halves`] evaluated on this thread (test-only count).
    static HALVINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One exact pass over the table: `f`, `f'` and `f''` with one sigmoid per
/// `alpha`-dependent term.
fn evaluate(terms: &[LearningTerm], alpha: f64) -> Evaluation {
    #[cfg(test)]
    EXACT_PASSES.with(|passes| passes.set(passes.get() + 1));
    let mut sums = Sums::default();
    for t in terms {
        match t.fixed {
            Some(fixed) => sums.value += fixed,
            None => {
                sums.add(t, sigmoid(alpha * t.log_tasks - t.difficulty));
            }
        }
    }
    Evaluation {
        alpha,
        value: sums.value,
        slope: sums.slope,
        curvature: sums.curvature,
        error: 0.0,
    }
}

/// Safeguarded Newton iteration on `f'` between two knots whose slopes turn
/// from `<= 0` (`lo`) to `>= 0` (`hi`): a step that leaves the bracket, or a
/// point with `f'' <= 0`, bisects instead. It stops once `f'' > 0` and the
/// Newton step is at most [`ALPHA_TOLERANCE`] (`f' = 0` included), before
/// the step is tested against the bracket, as `rtsafe` does, or once the
/// bracket is that narrow. Starts at the minimum of the
/// knots' cubic Hermite interpolant (their midpoint if it has none) and
/// returns the evaluated point with the smallest `|f'|`.
fn bracketed_newton(terms: &[LearningTerm], mut lo: Evaluation, mut hi: Evaluation) -> Evaluation {
    let start = hermite_minimum(&lo, &hi)
        .filter(|&alpha| alpha > lo.alpha && alpha < hi.alpha)
        .unwrap_or(0.5 * (lo.alpha + hi.alpha));
    let mut current = evaluate(terms, start);
    for _ in 0..MAX_NEWTON_STEPS {
        if current.slope_sign() < 0.0 {
            lo = current;
        } else {
            hi = current;
        }
        let newton = current.alpha - current.slope / current.curvature;
        // Converged: a step this short would land on `current` or a bracket
        // end to rounding, and bisecting instead would only shrink the
        // bracket around a root already found.
        if current.curvature > 0.0 && (newton - current.alpha).abs() <= ALPHA_TOLERANCE {
            break;
        }
        let next = if current.curvature > 0.0 && newton > lo.alpha && newton < hi.alpha {
            newton
        } else {
            0.5 * (lo.alpha + hi.alpha)
        };
        if (next - current.alpha).abs() <= ALPHA_TOLERANCE || hi.alpha - lo.alpha <= ALPHA_TOLERANCE
        {
            break;
        }
        current = evaluate(terms, next);
    }
    // Bisection can stop short of a bracket end that is the root to rounding.
    for end in [lo, hi] {
        if end.curvature > 0.0 && end.slope.abs() < current.slope.abs() {
            current = end;
        }
    }
    current
}

fn unidentifiable() -> IrtError {
    IrtError::Calibration("alpha is unidentifiable without any observations".to_string())
}

/// The property checks' table families, shared with
/// `tests/proptest_calibration.rs`.
#[cfg(test)]
#[path = "../tests/tables/mod.rs"]
mod tables;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::LearningGainModel;
    use proptest::prelude::*;

    /// The knot scan before it ran in lanes: one [`Sums`] per knot, filled
    /// term by term.
    fn reference_scan(
        terms: &[LearningTerm],
        lo: f64,
        hi: f64,
    ) -> [Evaluation; SCAN_INTERVALS + 1] {
        let alphas: Lanes = std::array::from_fn(|i| {
            if i == SCAN_INTERVALS {
                hi
            } else {
                lo + (hi - lo) * i as f64 / SCAN_INTERVALS as f64
            }
        });
        let step = (hi - lo) / SCAN_INTERVALS as f64;
        let span = lo.abs().max(hi.abs());
        let mut sums = [Sums::default(); SCAN_INTERVALS + 1];
        let mut abs_residuals: Lanes = [0.0; SCAN_INTERVALS + 1];
        let mut worst_ulps: f64 = 0.0;
        for t in terms {
            if let Some(fixed) = t.fixed {
                for sum in &mut sums {
                    sum.value += fixed;
                }
                continue;
            }
            let exponent = t.difficulty - lo * t.log_tasks;
            let decay = step * t.log_tasks;
            let (mut e, ratio) = (exponent.exp(), (-decay).exp());
            if e.is_finite() && e > 0.0 && ratio.is_finite() && ratio > 0.0 {
                worst_ulps = worst_ulps.max(
                    4.0 * exponent.abs()
                        + 4.0 * SCAN_INTERVALS as f64 * decay.abs()
                        + 8.0 * span * t.log_tasks.abs()
                        + 2.0 * SCAN_INTERVALS as f64,
                );
                for (sum, abs_r) in sums.iter_mut().zip(&mut abs_residuals) {
                    *abs_r += sum.add(t, 1.0 / (1.0 + e)).abs();
                    e *= ratio;
                }
            } else {
                for ((sum, abs_r), alpha) in sums.iter_mut().zip(&mut abs_residuals).zip(alphas) {
                    *abs_r += sum
                        .add(t, sigmoid(alpha * t.log_tasks - t.difficulty))
                        .abs();
                }
            }
        }
        let delta = f64::EPSILON * (0.25 * worst_ulps + 4.0);
        let n = terms.len() as f64;
        std::array::from_fn(|k| Evaluation {
            alpha: alphas[k],
            value: sums[k].value,
            slope: sums[k].slope,
            curvature: sums[k].curvature,
            error: delta * (2.0 * abs_residuals[k] + n * delta)
                + 2.0 * (n + 1.0) * f64::EPSILON * sums[k].value,
        })
    }

    /// [`calibrate_terms`] before the pruning and the lanes: the scalar
    /// scan, then [`lowest_between`] in every interval.
    fn unpruned(terms: &[LearningTerm]) -> CalibratedAlpha {
        let best = match stationary_range(terms) {
            None => evaluate(terms, 0.0),
            Some((lo, hi)) if lo == hi => evaluate(terms, lo),
            Some((lo, hi)) => {
                let knots = reference_scan(terms, lo, hi);
                let found = knots
                    .windows(2)
                    .map(|pair| lowest_between(terms, pair[0], pair[1], MAX_SPLITS))
                    .fold(knots[0], lower);
                polish(terms, found, &knots)
            }
        };
        CalibratedAlpha {
            alpha: best.alpha,
            residual: best.value,
        }
    }

    /// The pruned fit returns the unpruned one's bits, and the lane scan the
    /// scalar scan's knots.
    fn check_same_bits(terms: &[LearningTerm]) -> Result<(), String> {
        if terms.is_empty() {
            return Ok(());
        }
        let pruned = calibrate_terms(terms).map_err(|e| e.to_string())?;
        let reference = unpruned(terms);
        if pruned.alpha.to_bits() != reference.alpha.to_bits()
            || pruned.residual.to_bits() != reference.residual.to_bits()
        {
            return Err(format!("{pruned:?} vs unpruned {reference:?}"));
        }
        if let Some((lo, hi)) = stationary_range(terms).filter(|(lo, hi)| lo < hi) {
            let lanes = scan(terms, lo, hi).knots;
            for (lane, scalar) in lanes.iter().zip(reference_scan(terms, lo, hi)) {
                let bits = |e: &Evaluation| {
                    [e.alpha, e.value, e.slope, e.curvature, e.error].map(f64::to_bits)
                };
                if bits(lane) != bits(&scalar) {
                    return Err(format!("lane knot {lane:?} vs scalar {scalar:?}"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn pruned_fit_has_the_unpruned_fits_bits(
            extreme in tables::extreme_table(),
            realistic in tables::realistic_table(),
            lge_only in tables::lge_only_table(),
        ) {
            for table in [&extreme, &realistic, &lge_only] {
                let checked = check_same_bits(&observation_terms(
                    table.target_difficulty,
                    &table.priors,
                    &table.stages,
                ));
                prop_assert!(checked.is_ok(), "{:?}: {:?}", checked, table);
            }
        }
    }

    /// A `ln(K + 1)` of either sign, often 0, with large values mixed in.
    fn any_log_tasks() -> impl Strategy<Value = f64> {
        (0u8..8, -4.0..6.0f64).prop_map(|(pick, l)| match pick {
            0 => 0.0,
            1 => 16.1,
            2 => -l.abs() * 0.1,
            _ => l,
        })
    }

    /// An accuracy in `[0, 1]`, with the endpoints drawn often.
    fn any_accuracy() -> impl Strategy<Value = f64> {
        (0u8..6, 0.0..1.0f64).prop_map(|(pick, a)| match pick {
            0 => 0.0,
            1 => 1.0,
            _ => a,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn interval_floors_never_exceed_an_exact_pass_inside(
            entries in prop::collection::vec((any_log_tasks(), -3.0..3.0f64, any_accuracy()), 1..=8),
        ) {
            let terms: Vec<LearningTerm> = entries
                .iter()
                .map(|&(l, beta, a)| LearningTerm::with_log_tasks(l, beta, a))
                .collect();
            if let Some((lo, hi)) = stationary_range(&terms).filter(|(lo, hi)| lo < hi) {
                let Scan { knots, floors } = scan(&terms, lo, hi);
                for (k, (pair, floor)) in knots.windows(2).zip(floors).enumerate() {
                    prop_assert!(
                        floor <= pair[0].value && floor <= pair[1].value,
                        "interval {}: floor {} above a knot: {:?}", k, floor, pair
                    );
                    for j in 0..=16 {
                        let alpha = if j == 16 {
                            pair[1].alpha
                        } else {
                            pair[0].alpha + (pair[1].alpha - pair[0].alpha) * f64::from(j) / 16.0
                        };
                        let exact = evaluate(&terms, alpha).value;
                        prop_assert!(
                            floor <= exact,
                            "interval {}: floor {} above f({}) = {} for {:?}", k, floor, alpha, exact, entries
                        );
                    }
                }
            }
        }
    }

    fn prior(difficulty: f64, tasks: f64, accuracy: f64) -> PriorDomainObservation {
        PriorDomainObservation {
            difficulty,
            tasks_completed: tasks,
            accuracy,
        }
    }

    fn stage(k: f64, acc: f64) -> TargetStageObservation {
        TargetStageObservation {
            cumulative_tasks_before: k,
            estimated_accuracy: acc,
        }
    }

    #[test]
    fn recovers_alpha_from_noiseless_observations() {
        // Generate observations from a known model and check they are recovered.
        let true_alpha = 0.65;
        let beta_t = 0.0;
        let model = LearningGainModel::new(true_alpha, beta_t).unwrap();
        let priors: Vec<_> = [(0.8, 20.0), (-0.2, 10.0), (0.3, 15.0)]
            .iter()
            .map(|&(beta_d, n)| {
                let m = LearningGainModel::new(true_alpha, beta_d).unwrap();
                prior(beta_d, n, m.accuracy(n))
            })
            .collect();
        let stages: Vec<_> = [0.0, 10.0, 30.0]
            .iter()
            .map(|&k| stage(k, model.accuracy(k)))
            .collect();
        let fitted = calibrate_alpha(beta_t, &priors, &stages).unwrap();
        assert!(
            (fitted.alpha - true_alpha).abs() < 1e-3,
            "fitted {} true {}",
            fitted.alpha,
            true_alpha
        );
        assert!(fitted.residual < 1e-8);
    }

    #[test]
    fn fast_learner_gets_larger_alpha_than_slow_learner() {
        let beta_t = 0.0;
        // Fast learner: accuracy grows quickly across stages.
        let fast = calibrate_alpha(
            beta_t,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.8), stage(30.0, 0.9)],
        )
        .unwrap();
        // Slow learner: accuracy stays flat.
        let slow = calibrate_alpha(
            beta_t,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.55), stage(30.0, 0.6)],
        )
        .unwrap();
        assert!(fast.alpha > slow.alpha);
    }

    #[test]
    fn declining_worker_gets_negative_alpha() {
        let fitted = calibrate_alpha(
            0.0,
            &[],
            &[stage(5.0, 0.4), stage(15.0, 0.35), stage(40.0, 0.3)],
        )
        .unwrap();
        assert!(fitted.alpha < 0.0);
    }

    #[test]
    fn prior_domains_alone_are_sufficient() {
        // Round 1 of the pipeline calls the calibration with only the prior-domain
        // anchors (no CPE stages yet).
        let fitted = calibrate_alpha(
            0.0,
            &[
                prior(0.8, 20.0, 0.7),
                prior(-0.1, 10.0, 0.88),
                prior(0.3, 10.0, 0.58),
            ],
            &[],
        )
        .unwrap();
        assert!(fitted.alpha.is_finite());
        // Workers with strong priors should have positive alpha under this anchor.
        assert!(fitted.alpha > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(calibrate_alpha(0.0, &[], &[]).is_err());
        assert!(calibrate_alpha(f64::NAN, &[prior(0.0, 5.0, 0.5)], &[]).is_err());
        assert!(calibrate_alpha(0.0, &[prior(0.0, 5.0, 1.5)], &[]).is_err());
        assert!(calibrate_alpha(0.0, &[], &[stage(5.0, -0.1)]).is_err());
    }

    #[test]
    fn calibrated_alpha_gives_usable_predictor() {
        let fitted = calibrate_alpha(
            0.0,
            &[],
            &[stage(0.0, 0.5), stage(10.0, 0.75), stage(30.0, 0.85)],
        )
        .unwrap();
        let model = LearningGainModel::new(fitted.alpha, 0.0).unwrap();
        // Predicting further training should extrapolate above the last observation
        // for an improving worker.
        assert!(model.accuracy(60.0) > 0.8);
        assert!(model.accuracy(60.0) <= 1.0);
    }

    #[test]
    fn objective_is_zero_at_perfect_fit() {
        let alpha = 0.4;
        let m = LearningGainModel::new(alpha, 0.2).unwrap();
        let obs = [stage(8.0, m.accuracy(8.0))];
        assert!(objective(alpha, 0.2, &[], &obs) < 1e-15);
        assert!(objective(alpha + 0.5, 0.2, &[], &obs) > 1e-4);
    }

    #[test]
    fn zero_task_terms_add_a_constant_and_leave_alpha_alone() {
        let informative = [
            LearningTerm::new(10.0, 0.0, 0.7),
            LearningTerm::new(30.0, 0.0, 0.8),
        ];
        let base = calibrate_terms(&informative).unwrap();
        let mut with_zero = informative.to_vec();
        with_zero.push(LearningTerm::new(0.0, 0.0, 0.9));
        let padded = calibrate_terms(&with_zero).unwrap();
        assert!((padded.alpha - base.alpha).abs() < 1e-6);
        // sigmoid(0) = 0.5, so the K = 0 term contributes (0.5 - 0.9)^2.
        assert!((padded.residual - base.residual - 0.16).abs() < 1e-9);
    }

    #[test]
    fn calibrate_alpha_is_calibrate_terms_over_its_table() {
        let priors = [prior(0.3, 20.0, 0.75), prior(-0.5, 5.0, 0.9)];
        let stages = [stage(0.0, 0.5), stage(10.0, 0.66)];
        let via_alpha = calibrate_alpha(0.1, &priors, &stages).unwrap();
        let terms = [
            LearningTerm::new(20.0, 0.3, 0.75),
            LearningTerm::new(5.0, -0.5, 0.9),
            LearningTerm::with_log_tasks(0.0, 0.1, 0.5),
            LearningTerm::with_log_tasks(11.0f64.ln(), 0.1, 0.66),
        ];
        assert_eq!(calibrate_terms(&terms).unwrap(), via_alpha);
        assert!(calibrate_terms(&[]).is_err());
        assert!(calibrate_terms(&[LearningTerm::new(3.0, 0.0, 1.5)]).is_err());
    }

    #[test]
    fn a_table_without_alpha_dependent_terms_fits_alpha_zero() {
        // Every term at K = 0: the objective is the constant (0.5 - 0.7)^2.
        let fitted = calibrate_terms(&[LearningTerm::new(0.0, 0.0, 0.7)]).unwrap();
        assert_eq!(fitted.alpha, 0.0);
        assert!((fitted.residual - 0.04).abs() < 1e-15);
        let two = calibrate_terms(&[
            LearningTerm::new(0.0, 0.4, 0.2),
            LearningTerm::with_log_tasks(0.0, -1.0, 0.9),
        ])
        .unwrap();
        assert_eq!(two.alpha, 0.0);
    }

    #[test]
    fn a_single_term_fits_its_own_minimiser() {
        // (logit 0.8 + 0.5) / ln 21, where the term's residual vanishes.
        let fitted = calibrate_terms(&[LearningTerm::new(20.0, 0.5, 0.8)]).unwrap();
        let own = (4.0f64.ln() + 0.5) / 21.0f64.ln();
        assert!((fitted.alpha - own).abs() < 1e-15, "{}", fitted.alpha);
        assert!(fitted.residual < 1e-30);
        // An accuracy of 1 pulls alpha to the end of the range.
        let edge = calibrate_terms(&[LearningTerm::new(20.0, 0.5, 1.0)]).unwrap();
        assert_eq!(edge.alpha, 20.0);
    }

    #[test]
    fn a_converged_newton_run_stops_instead_of_bisecting() {
        // An LGE-only campaign table: a short sheet of accuracy 1 and the
        // fixed K_0 = 0 stage. Without the stop rule its Newton run found
        // the root and then bisected a 1e-12 bracket around it: 55 exact
        // passes, 37 of them in that run. The stop rule left 16, half of
        // them valley halvings that the interval floors now prune.
        let table = [
            LearningTerm::new(20.0, -0.49114021054167606, 0.8),
            LearningTerm::new(20.0, -1.6097019356695872, 1.0),
            LearningTerm::new(20.0, 0.04356688979025166, 1.0),
            LearningTerm::new(0.0, 0.0, 0.9),
            LearningTerm::new(20.0, 0.0, 0.95),
        ];
        EXACT_PASSES.with(|passes| passes.set(0));
        let fitted = calibrate_terms(&table).unwrap();
        let passes = EXACT_PASSES.with(std::cell::Cell::get);
        assert!(
            (fitted.alpha - 0.8458393721778145).abs() < 1e-12,
            "{}",
            fitted.alpha
        );
        assert!(passes <= 7, "{passes} exact passes");
    }

    #[test]
    fn an_lge_only_valley_interval_is_pruned_not_halved() {
        // An LGE-only table: one prior-domain anchor, the fixed K_0 = 0
        // stage and a short sheet of accuracy 1 at K = 12. Unpruned, the
        // scan intervals towards alpha = 20 show a Hermite valley that
        // their slopes do not bracket and are halved; their floors lie
        // above the knots' best, so the pruned fold skips them.
        let table = [
            LearningTerm::new(20.0, -1.5, 0.6),
            LearningTerm::new(0.0, 0.0, 0.5),
            LearningTerm::new(12.0, 0.0, 1.0),
        ];
        let count = |run: &dyn Fn() -> CalibratedAlpha| {
            HALVINGS.with(|halvings| halvings.set(0));
            EXACT_PASSES.with(|passes| passes.set(0));
            let fitted = run();
            (
                fitted,
                HALVINGS.with(std::cell::Cell::get),
                EXACT_PASSES.with(std::cell::Cell::get),
            )
        };
        let (reference, reference_halvings, _) = count(&|| unpruned(&table));
        let (fitted, halvings, passes) = count(&|| calibrate_terms(&table).unwrap());
        assert_eq!(fitted, reference);
        assert!(reference_halvings > 0, "{reference_halvings}");
        assert_eq!(halvings, 0);
        assert!(passes <= 4, "{passes} exact passes");
    }

    #[test]
    fn non_finite_terms_are_rejected_or_fit_finitely() {
        let informative = LearningTerm::new(10.0, 0.0, 0.7);
        for bad in [
            LearningTerm::new(5.0, f64::NAN, 0.5),
            LearningTerm::with_log_tasks(f64::NAN, 0.0, 0.5),
            LearningTerm::new(f64::NAN, 0.0, 0.5),
        ] {
            let fitted = calibrate_terms(&[informative, bad]);
            assert!(
                matches!(fitted, Err(IrtError::Calibration(_))),
                "{bad:?}: {fitted:?}"
            );
        }
        // A NaN task count, on a prior domain or a target stage, is not an
        // untrained term.
        let prior = |tasks_completed| PriorDomainObservation {
            difficulty: 0.0,
            tasks_completed,
            accuracy: 0.7,
        };
        let stage = |cumulative_tasks_before| TargetStageObservation {
            cumulative_tasks_before,
            estimated_accuracy: 0.5,
        };
        for (priors, stages) in [
            (vec![prior(f64::NAN)], vec![stage(10.0)]),
            (vec![prior(10.0)], vec![stage(f64::NAN)]),
        ] {
            let fitted = calibrate_alpha(0.0, &priors, &stages);
            assert!(
                matches!(fitted, Err(IrtError::Calibration(_))),
                "{priors:?} {stages:?}: {fitted:?}"
            );
        }
        for wild in [
            LearningTerm::new(5.0, f64::INFINITY, 0.5),
            LearningTerm::new(5.0, f64::NEG_INFINITY, 0.5),
            LearningTerm::with_log_tasks(f64::INFINITY, 0.0, 0.5),
            LearningTerm::with_log_tasks(f64::NEG_INFINITY, 0.0, 0.5),
            LearningTerm::new(f64::INFINITY, 0.0, 0.5),
            LearningTerm::with_log_tasks(1e300, 0.0, 0.5),
        ] {
            match calibrate_terms(&[informative, wild]) {
                Ok(fitted) => assert!(
                    fitted.alpha.is_finite() && fitted.residual.is_finite(),
                    "{wild:?}: {fitted:?}"
                ),
                Err(e) => assert!(matches!(e, IrtError::Calibration(_)), "{e:?}"),
            }
        }
    }
}
