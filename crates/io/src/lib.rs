//! # snap-io
//!
//! Graph serialization for the SNAP reproduction: whitespace edge lists,
//! DIMACS shortest-path format, and METIS adjacency format, plus the
//! embedded reference datasets used by the paper's Table 2 (Zachary's
//! karate club, the one redistributable network). Every reader and writer
//! goes through the one tokenizer and printer in `scan.rs`; README.md
//! ("What the readers accept") states the grammar.

pub mod datasets;
pub mod dimacs;
pub mod edgelist;
pub mod metis;
mod scan;

pub use datasets::karate_club;

use std::fmt;

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content at a 1-based line number.
    Parse { line: usize, message: String },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

#[cfg(test)]
/// The 1-based line and the message of the parse error `result` must be.
pub(crate) fn parse_error<T>(result: Result<T, IoError>) -> (usize, String) {
    match result {
        Err(IoError::Parse { line, message }) => (line, message),
        Err(other) => panic!("unexpected: {other}"),
        Ok(_) => panic!("expected a parse error"),
    }
}
