//! # fedwcm-obs — trace analysis and profiling
//!
//! The consumer side of the workspace's observability story. The
//! `fedwcm-trace` crate *produces* deterministic JSONL traces (logical
//! clock, fixed key order, shortest-roundtrip floats); this crate
//! *consumes* them:
//!
//! 1. [`record::parse_trace`] — a strict parser that round-trips sink
//!    output byte-for-byte into typed records (property-tested against
//!    the real encoder). Anything the sink could not have written is a
//!    typed [`ObsError`] naming the line.
//! 2. [`tree::build_forest`] — span-tree reconstruction keyed on
//!    logical-clock ticks, rejecting mismatched, unclosed, or
//!    time-travelling spans.
//! 3. [`profile::analyze`] — phase attribution (self vs child time per
//!    span name, with exact nearest-rank percentiles), a four-way
//!    compute / fault / wire / overhead split, and per-round critical
//!    paths with compute- / straggler- / wire-bound labels.
//! 4. [`flame::folded_stacks`] — collapsed flame-graph output.
//!
//! Because traces are bitwise identical across thread counts, every
//! artifact here — profile document, table, flame file — is too. The
//! one dependency is `fedwcm-trace`, whose JSON writers this crate's
//! encoder shares, so no third-party code enters the determinism
//! argument.
//!
//! ```
//! let trace = "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}\n\
//!              {\"t\":2,\"ev\":\"start\",\"name\":\"client_update\"}\n\
//!              {\"t\":5,\"ev\":\"end\",\"name\":\"client_update\"}\n\
//!              {\"t\":6,\"ev\":\"end\",\"name\":\"round\"}\n";
//! let records = fedwcm_obs::parse_trace(trace).unwrap();
//! let forest = fedwcm_obs::build_forest(&records).unwrap();
//! let profile = fedwcm_obs::analyze(&forest);
//! assert_eq!(profile, fedwcm_obs::analyze_text(trace).unwrap().0);
//! assert_eq!(profile.total_ticks, 5);
//! assert_eq!(profile.rounds[0].critical_path, "round;client_update");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists outside test
// code and no panicking shortcut anywhere; an exemption is an
// `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// This crate writes bytes other processes read back: a lossy `as` is a
// compile error here, and an exemption states the bound that makes it
// exact.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::allow_attributes_without_reason
)]

pub mod error;
pub mod flame;
pub mod json;
pub mod profile;
pub mod record;
pub mod tree;

pub use error::ObsError;
pub use flame::folded_stacks;
pub use json::Json;
pub use profile::{analyze, Attribution, PhaseStat, PointStat, Profile, RoundLabel, RoundProfile};
pub use record::{parse_trace, TraceRecord, TraceValue};
pub use tree::{build_forest, PointNode, SpanForest, SpanNode};

/// Parse trace text and run the whole pipeline: records → forest →
/// profile. The forest is returned too, so callers can render flame
/// output without re-parsing.
pub fn analyze_text(text: &str) -> Result<(Profile, SpanForest), ObsError> {
    let forest = build_forest(&parse_trace(text)?)?;
    Ok((analyze(&forest), forest))
}
