//! Error type for the crowdsourcing simulator.

use std::fmt;

/// Errors produced by the simulator: invalid configurations, budget violations,
/// unknown workers, or malformed dataset files.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A dataset or platform configuration value was invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        what: &'static str,
        /// The offending value, as a float for uniform reporting.
        value: f64,
    },
    /// An operation referenced a worker that is not in the pool.
    UnknownWorker {
        /// The offending worker id.
        id: usize,
    },
    /// The requested assignment would exceed the remaining task budget.
    BudgetExceeded {
        /// Tasks requested by the assignment.
        requested: usize,
        /// Tasks remaining in the budget.
        remaining: usize,
    },
    /// Propagated numerical/statistical failure.
    Numerical(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what, value } => {
                write!(f, "invalid simulator configuration: {what} (got {value})")
            }
            SimError::UnknownWorker { id } => write!(f, "unknown worker id {id}"),
            SimError::BudgetExceeded {
                requested,
                remaining,
            } => write!(
                f,
                "assignment of {requested} tasks exceeds the remaining budget of {remaining}"
            ),
            SimError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<c4u_stats::StatsError> for SimError {
    fn from(e: c4u_stats::StatsError) -> Self {
        SimError::Numerical(e.to_string())
    }
}

impl From<c4u_irt::IrtError> for SimError {
    fn from(e: c4u_irt::IrtError) -> Self {
        SimError::Numerical(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::InvalidConfig {
            what: "k",
            value: 0.0
        }
        .to_string()
        .contains("k"));
        assert!(SimError::UnknownWorker { id: 7 }.to_string().contains('7'));
        assert!(SimError::BudgetExceeded {
            requested: 10,
            remaining: 3
        }
        .to_string()
        .contains("10"));
        assert!(SimError::Numerical("x".into()).to_string().contains('x'));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let s: SimError = c4u_stats::StatsError::NotEnoughData { needed: 2, got: 0 }.into();
        assert!(matches!(s, SimError::Numerical(_)));
        let s: SimError = c4u_irt::IrtError::Calibration("no data".into()).into();
        assert!(matches!(s, SimError::Numerical(_)));
    }
}
