//! Error type shared across the workspace.

use std::fmt;

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, RdoError>;

/// Errors raised by the storage, execution and planning layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdoError {
    /// A schema lookup failed (unknown field or dataset).
    UnknownField(String),
    /// A dataset was not found in the catalog.
    UnknownDataset(String),
    /// A value had an unexpected type for the requested operation.
    TypeMismatch { expected: String, found: String },
    /// The query specification is malformed (e.g. disconnected join graph).
    InvalidQuery(String),
    /// The planner could not produce a plan.
    Planning(String),
    /// The executor hit an unrecoverable condition.
    Execution(String),
    /// Statistics were requested for a field that has none.
    MissingStatistics(String),
    /// A disk I/O operation of the spill subsystem failed. Carries the
    /// rendered `std::io::Error` so the error type stays `Clone + PartialEq`.
    Io(String),
}

impl fmt::Display for RdoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdoError::UnknownField(name) => write!(f, "unknown field: {name}"),
            RdoError::UnknownDataset(name) => write!(f, "unknown dataset: {name}"),
            RdoError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RdoError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            RdoError::Planning(msg) => write!(f, "planning error: {msg}"),
            RdoError::Execution(msg) => write!(f, "execution error: {msg}"),
            RdoError::MissingStatistics(msg) => write!(f, "missing statistics: {msg}"),
            RdoError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for RdoError {}

impl From<std::io::Error> for RdoError {
    fn from(e: std::io::Error) -> Self {
        RdoError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_field() {
        let e = RdoError::UnknownField("l_orderkey".into());
        assert_eq!(e.to_string(), "unknown field: l_orderkey");
    }

    #[test]
    fn display_type_mismatch() {
        let e = RdoError::TypeMismatch {
            expected: "Int64".into(),
            found: "Utf8".into(),
        };
        assert!(e.to_string().contains("expected Int64"));
        assert!(e.to_string().contains("found Utf8"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&RdoError::Planning("x".into()));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            RdoError::UnknownDataset("a".into()),
            RdoError::UnknownDataset("a".into())
        );
        assert_ne!(
            RdoError::UnknownDataset("a".into()),
            RdoError::UnknownDataset("b".into())
        );
    }

    #[test]
    fn io_errors_convert_and_keep_their_message() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "spill page gone");
        let e: RdoError = io.into();
        assert_eq!(e, RdoError::Io("spill page gone".into()));
        assert_eq!(e.to_string(), "io error: spill page gone");
    }

    #[test]
    fn display_prefixes_name_the_failing_layer() {
        let cases = [
            (RdoError::UnknownDataset("t".into()), "unknown dataset: t"),
            (RdoError::InvalidQuery("q".into()), "invalid query: q"),
            (RdoError::Planning("p".into()), "planning error: p"),
            (RdoError::Execution("x".into()), "execution error: x"),
            (
                RdoError::MissingStatistics("s".into()),
                "missing statistics: s",
            ),
        ];
        for (error, rendered) in cases {
            assert_eq!(error.to_string(), rendered);
        }
    }
}
