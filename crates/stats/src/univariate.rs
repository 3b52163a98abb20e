//! Univariate distributions: Bernoulli and uniform, plus the standard-normal
//! draw behind multivariate-normal sampling.
//!
//! The paper models each individual answer as a Bernoulli draw with the worker's
//! current accuracy as the success probability; these types provide exactly that
//! machinery, including seeded sampling so that every experiment in the
//! benchmark harness is reproducible.

use crate::StatsError;
use rand::Rng;

/// Draws one standard-normal variate via the Box–Muller transform.
pub(crate) fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 so the log stays finite.
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A Bernoulli distribution with success probability `p`.
///
/// This is the "answering rule" of the paper: a worker with accuracy `h` answers a
/// task correctly with probability `h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution; `p` must lie in `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(StatsError::InvalidParameter {
                what: "bernoulli p must be in [0, 1]",
                value: p,
            });
        }
        Ok(Self { p })
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample: `true` with probability `p`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }

    /// Draws `n` samples and returns the number of successes.
    pub fn count_successes<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> usize {
        (0..n).filter(|_| self.sample(rng)).count()
    }
}

/// A continuous uniform distribution on `[lower, upper)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lower: f64,
    upper: f64,
}

impl Uniform {
    /// Creates a uniform distribution; requires `lower < upper`.
    pub fn new(lower: f64, upper: f64) -> Result<Self, StatsError> {
        if lower >= upper || !lower.is_finite() || !upper.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "uniform bounds must be finite with lower < upper",
                value: upper - lower,
            });
        }
        Ok(Self { lower, upper })
    }

    /// Lower bound.
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper bound.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lower + rng.gen::<f64>() * (self.upper - self.lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_sampling_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_standard_normal(&mut r))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_validation_and_sampling() {
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.1).is_err());
        assert!(Bernoulli::new(f64::NAN).is_err());
        let b = Bernoulli::new(0.8).unwrap();
        let mut r = rng();
        let successes = b.count_successes(&mut r, 10_000);
        let rate = successes as f64 / 10_000.0;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");
        assert_eq!(Bernoulli::new(0.0).unwrap().count_successes(&mut r, 100), 0);
        assert_eq!(
            Bernoulli::new(1.0).unwrap().count_successes(&mut r, 100),
            100
        );
    }

    #[test]
    fn uniform_validation_and_range() {
        assert!(Uniform::new(1.0, 0.0).is_err());
        let u = Uniform::new(0.2, 0.9).unwrap();
        let mut r = rng();
        for _ in 0..1_000 {
            let x = u.sample(&mut r);
            assert!((0.2..0.9).contains(&x));
        }
        assert_eq!(u.lower(), 0.2);
        assert_eq!(u.upper(), 0.9);
    }

    #[test]
    fn sampling_is_deterministic_with_seed() {
        let draw = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..5)
                .map(|_| sample_standard_normal(&mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
    }

    #[test]
    fn uniform_rejects_non_finite_bounds_and_reports_p() {
        assert!(Uniform::new(f64::NEG_INFINITY, 0.0).is_err());
        assert!(Uniform::new(0.0, f64::NAN).is_err());
        assert!(Uniform::new(0.5, 0.5).is_err());
        assert_eq!(Bernoulli::new(0.3).unwrap().p(), 0.3);
    }
}
