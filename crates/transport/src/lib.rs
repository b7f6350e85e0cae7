//! Fault-tolerant wire transport for federated simulations.
//!
//! Today the engine delivers every client upload by in-process function
//! call — a channel that cannot lose, damage, duplicate, reorder, or
//! delay anything. Real federations run over networks that do all five.
//! This crate builds the robust delivery layer *first*, against a
//! deterministic in-memory link, so a later process/socket substrate
//! drops in beneath an already chaos-tested protocol:
//!
//! * [`frame`] — a length-prefixed frame codec (magic, version, the one
//!   upload message, CRC32 over header + payload) with a byte-exact
//!   encode/decode round-trip contract: any single flipped bit is
//!   rejected, never mis-parsed.
//! * [`plan`] — a seeded [`NetPlan`] injecting drop, bit-corruption,
//!   duplication, reorder, and whole-round delay at the frame level;
//!   `net_fault_for(round, client, attempt)` is a pure function on its
//!   own RNG stream, the same discipline as `fedwcm-faults`.
//! * [`link`] — the deterministic in-memory [`InMemoryLink`], applying
//!   the fault it is handed with each frame and releasing frames in
//!   logical-clock order.
//! * [`retry`] — per-attempt deadlines and capped exponential backoff
//!   with deterministically seeded jitter, as constants.
//! * [`courier`] — the delivery state machine tying it together: one
//!   fault draw per attempt, intact frames Acked and damaged frames
//!   Nacked (verdicts, not frames) and retried, exhausted budgets
//!   degraded into the engine's existing dropout/straggler machinery
//!   instead of erroring.
//!
//! Everything is bitwise deterministic across thread counts: all
//! randomness is pure in `(seed, round, client, attempt)` and all
//! waiting is measured on a logical clock.

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists and no unused
// dependency outside test code, no panicking shortcut anywhere; an
// exemption is an `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
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

pub mod courier;
pub mod frame;
pub mod link;
pub mod plan;
pub mod retry;

pub use courier::{AttemptOutcome, Courier, Delivery, NackReason, NetCounters, Verdict};
pub use frame::{FrameError, Message, Verified};
pub use link::InMemoryLink;
pub use plan::{NetConfig, NetFault, NetPlan};
pub use retry::RetryPolicy;
