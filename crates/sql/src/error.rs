//! Error type for the SQL frontend.

use rdo_common::RdoError;
use std::fmt;

/// An error raised while lexing, parsing or binding a SQL query. Carries the
/// byte offset of the offending token when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input where the error was detected, if known.
    pub offset: Option<usize>,
}

impl SqlError {
    /// An error with a known position.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// An error without a position (binder-level errors).
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} (at byte {offset})", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlError> for RdoError {
    fn from(err: SqlError) -> Self {
        RdoError::InvalidQuery(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_when_known() {
        assert_eq!(SqlError::at(7, "boom").to_string(), "boom (at byte 7)");
        assert_eq!(SqlError::new("boom").to_string(), "boom");
    }

    #[test]
    fn converts_into_rdo_error() {
        let e: RdoError = SqlError::new("bad query").into();
        assert!(matches!(e, RdoError::InvalidQuery(msg) if msg.contains("bad query")));
    }

    #[test]
    fn converted_errors_keep_the_offset_in_their_message() {
        let e: RdoError = SqlError::at(12, "unexpected token").into();
        assert_eq!(
            e,
            RdoError::InvalidQuery("unexpected token (at byte 12)".into())
        );
    }
}
