//! Error type for model construction and parameter validation.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or driving a BTI model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BtiError {
    /// A duty cycle outside `[0, 1]` was supplied.
    InvalidDutyCycle(f64),
    /// A model parameter was outside its physical range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The supplied value.
        value: f64,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// A polarity's CET grid was configured with no bins.
    EmptyCetGrid,
    /// A negative time span was supplied to an aging update.
    NegativeDuration(f64),
}

impl fmt::Display for BtiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDutyCycle(v) => {
                write!(f, "duty cycle {v} is outside the range [0, 1]")
            }
            Self::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(
                f,
                "parameter {name} = {value} violates constraint: {constraint}"
            ),
            Self::EmptyCetGrid => f.write_str("CET grid must contain at least one bin"),
            Self::NegativeDuration(v) => {
                write!(f, "aging duration must be non-negative, got {v} hours")
            }
        }
    }
}

impl Error for BtiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        let msg = BtiError::InvalidDutyCycle(2.0).to_string();
        assert!(msg.starts_with("duty cycle"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<BtiError>();
    }
}
