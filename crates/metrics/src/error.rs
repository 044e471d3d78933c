//! Error types for metric construction and parsing.

use std::fmt;

/// Errors produced while constructing or parsing metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricError {
    /// A label name did not match `[a-zA-Z_][a-zA-Z0-9_]*` or used a reserved prefix.
    InvalidLabelName(String),
    /// The text exposition parser encountered a malformed line.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human readable description of the problem.
        message: String,
    },
    /// An inbound exposition document exceeded a parse limit.  Raised
    /// instead of silently truncating: the document may come from an
    /// untrusted network peer and a partial parse would mis-report the
    /// target as healthy.
    LimitExceeded {
        /// Which limit tripped: `line bytes`, `samples` or `families`.
        what: &'static str,
        /// The configured limit.
        limit: usize,
        /// The observed size that exceeded it.
        actual: usize,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::InvalidLabelName(name) => {
                write!(f, "invalid label name: {name:?}")
            }
            MetricError::Parse { line, message } => {
                write!(f, "exposition parse error at line {line}: {message}")
            }
            MetricError::LimitExceeded { what, limit, actual } => {
                write!(f, "exposition document over the {what} limit: {actual} > {limit}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MetricError::InvalidLabelName("0bad".into());
        assert!(e.to_string().contains("0bad"));
        let e = MetricError::Parse { line: 7, message: "boom".into() };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&MetricError::InvalidLabelName("__x".into()));
    }
}
