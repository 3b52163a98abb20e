//! Error type for the IRT crate.

use std::fmt;

/// Errors produced by IRT model construction and calibration.
#[derive(Debug, Clone, PartialEq)]
pub enum IrtError {
    /// A model parameter was outside its valid range.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Calibration failed (no observations, or the optimiser reported an error).
    Calibration(String),
}

impl fmt::Display for IrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrtError::InvalidParameter { what, value } => {
                write!(f, "invalid IRT parameter: {what} (got {value})")
            }
            IrtError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
        }
    }
}

impl std::error::Error for IrtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(IrtError::InvalidParameter {
            what: "beta",
            value: f64::NAN
        }
        .to_string()
        .contains("beta"));
        assert!(IrtError::Calibration("empty".into())
            .to_string()
            .contains("empty"));
    }
}
