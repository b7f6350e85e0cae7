//! The analyzer's typed error: every failure names the JSONL line it
//! occurred on, so a corrupt trace is diagnosable without a debugger.

use std::fmt;

/// Why trace analysis failed. The parser is strict by design: a trace
/// that does not round-trip byte-for-byte is evidence of corruption or
/// encoder drift, and silently skipping lines would hide exactly the
/// kind of regression this crate exists to catch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsError {
    /// A line is not well-formed JSON.
    Json {
        /// 1-based JSONL line number (1 for standalone documents).
        line: usize,
        /// Byte offset of the failure within the line.
        offset: usize,
        /// What went wrong.
        msg: String,
    },
    /// A line parses as JSON but violates the trace-record shape
    /// (`t`/`ev`/`name` header, scalar field values).
    Record {
        /// 1-based JSONL line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The record stream violates span structure: mismatched or
    /// unclosed spans, or a non-monotone clock.
    Structure {
        /// 1-based JSONL line number of the offending record (one
        /// record per line), or the last line for end-of-stream errors.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Json { line, offset, msg } => {
                write!(f, "line {line}, byte {offset}: invalid JSON: {msg}")
            }
            ObsError::Record { line, msg } => {
                write!(f, "line {line}: invalid trace record: {msg}")
            }
            ObsError::Structure { line, msg } => {
                write!(f, "line {line}: invalid span structure: {msg}")
            }
        }
    }
}

impl std::error::Error for ObsError {}
