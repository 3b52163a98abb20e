//! The Eq. 11 fit as `calibrate_terms` ran it before its knot scan took the
//! one-`exp` recurrence and its Newton loop took a stop rule: every knot is an
//! exact pass over the table, and Newton stops only on a vanishing `f'`, a
//! step of at most `1e-12` that stays inside the bracket, or a `1e-12`
//! bracket. It is the reference the library fit is held to (`alpha` within
//! 1e-9, residual no more than a relative 1e-15 above this one).
//!
//! Terms are `(ln(K + 1), beta, a)` triples, summed in slice order; a term
//! with `ln(K + 1) = 0` is the constant `(sigmoid(-beta) - a)^2`, as in
//! `LearningTerm`.

#![allow(dead_code)]

use c4u_stats::sigmoid;

const ALPHA_RANGE: (f64, f64) = (-20.0, 20.0);
const SCAN_INTERVALS: usize = 8;
const ALPHA_TOLERANCE: f64 = 1e-12;
const MAX_SPLITS: usize = 6;
const MAX_NEWTON_STEPS: usize = 64;

/// One summand: `ln(K + 1)`, difficulty, accuracy and the constant value of
/// a `K = 0` term.
#[derive(Debug, Clone, Copy)]
struct Term {
    log_tasks: f64,
    difficulty: f64,
    accuracy: f64,
    fixed: Option<f64>,
}

impl Term {
    fn new((log_tasks, difficulty, accuracy): (f64, f64, f64)) -> Self {
        let fixed = (log_tasks == 0.0).then(|| (sigmoid(-difficulty) - accuracy).powi(2));
        Self {
            log_tasks,
            difficulty,
            accuracy,
            fixed,
        }
    }
}

/// The oracle's `(alpha, residual)` over a table of `(ln(K + 1), beta, a)`
/// summands with accuracies in `[0, 1]` and finite entries (the inputs
/// `calibrate_terms` accepts).
pub fn calibrate(summands: &[(f64, f64, f64)]) -> (f64, f64) {
    let terms: Vec<Term> = summands.iter().copied().map(Term::new).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for t in terms.iter().filter(|t| t.fixed.is_none()) {
        let own = ((t.accuracy / (1.0 - t.accuracy)).ln() + t.difficulty) / t.log_tasks;
        lo = lo.min(own);
        hi = hi.max(own);
    }
    let best = if lo > hi {
        evaluate(&terms, 0.0)
    } else {
        scan_and_polish(
            &terms,
            lo.clamp(ALPHA_RANGE.0, ALPHA_RANGE.1),
            hi.clamp(ALPHA_RANGE.0, ALPHA_RANGE.1),
        )
    };
    (best.alpha, best.value)
}

fn scan_and_polish(terms: &[Term], lo: f64, hi: f64) -> Evaluation {
    if lo == hi {
        return evaluate(terms, lo);
    }
    let knots: [Evaluation; SCAN_INTERVALS + 1] = std::array::from_fn(|i| {
        let alpha = if i == SCAN_INTERVALS {
            hi
        } else {
            lo + (hi - lo) * i as f64 / SCAN_INTERVALS as f64
        };
        evaluate(terms, alpha)
    });
    knots
        .windows(2)
        .map(|pair| lowest_between(terms, pair[0], pair[1], MAX_SPLITS))
        .fold(knots[0], lower)
}

fn lowest_between(terms: &[Term], a: Evaluation, b: Evaluation, splits: usize) -> Evaluation {
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

fn halves(terms: &[Term], a: Evaluation, b: Evaluation, splits: usize) -> Evaluation {
    if splits == 0 {
        return lower(a, b);
    }
    let mid = evaluate(terms, 0.5 * (a.alpha + b.alpha));
    lower(
        lowest_between(terms, a, mid, splits - 1),
        lowest_between(terms, mid, b, splits - 1),
    )
}

fn hermite_minimum(a: &Evaluation, b: &Evaluation) -> Option<f64> {
    let width = b.alpha - a.alpha;
    let (d0, d1, rise) = (width * a.slope, width * b.slope, b.value - a.value);
    let c1 = 2.0 * (3.0 * rise - 2.0 * d0 - d1);
    let c2 = 3.0 * (d0 + d1 - 2.0 * rise);
    let discriminant = c1 * c1 - 4.0 * c2 * d0;
    let t = -2.0 * d0 / (c1 + discriminant.sqrt());
    (discriminant > 0.0 && t > 0.0 && t < 1.0).then_some(a.alpha + t * width)
}

fn lower(a: Evaluation, b: Evaluation) -> Evaluation {
    if b.value < a.value {
        b
    } else {
        a
    }
}

#[derive(Debug, Clone, Copy)]
struct Evaluation {
    alpha: f64,
    value: f64,
    slope: f64,
    curvature: f64,
}

impl Evaluation {
    fn slope_sign(&self) -> f64 {
        if self.slope == 0.0 && self.curvature <= 0.0 {
            self.alpha
        } else {
            self.slope
        }
    }
}

fn evaluate(terms: &[Term], alpha: f64) -> Evaluation {
    let (mut value, mut slope, mut curvature) = (0.0, 0.0, 0.0);
    for t in terms {
        if let Some(fixed) = t.fixed {
            value += fixed;
            continue;
        }
        let s = sigmoid(alpha * t.log_tasks - t.difficulty);
        let r = s - t.accuracy;
        let w = s * (1.0 - s) * t.log_tasks;
        value += r * r;
        slope += 2.0 * r * w;
        curvature += 2.0 * (w * w + r * w * (1.0 - 2.0 * s) * t.log_tasks);
    }
    Evaluation {
        alpha,
        value,
        slope,
        curvature,
    }
}

fn bracketed_newton(terms: &[Term], mut lo: Evaluation, mut hi: Evaluation) -> Evaluation {
    let start = hermite_minimum(&lo, &hi)
        .filter(|&alpha| alpha > lo.alpha && alpha < hi.alpha)
        .unwrap_or(0.5 * (lo.alpha + hi.alpha));
    let mut current = evaluate(terms, start);
    for _ in 0..MAX_NEWTON_STEPS {
        if current.slope == 0.0 && current.curvature > 0.0 {
            break;
        }
        if current.slope_sign() < 0.0 {
            lo = current;
        } else {
            hi = current;
        }
        let newton = current.alpha - current.slope / current.curvature;
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
    for end in [lo, hi] {
        if end.curvature > 0.0 && end.slope.abs() < current.slope.abs() {
            current = end;
        }
    }
    current
}
