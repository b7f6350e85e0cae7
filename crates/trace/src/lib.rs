//! Structured observability for the FedWCM stack: scoped spans, a
//! metrics registry (counters, gauges, and count-and-sum timers), and
//! deterministic clocks — with zero external dependencies.
//!
//! # Why a clock trait
//!
//! The workspace's headline guarantee is bitwise determinism across
//! thread counts and runs, and clippy (`disallowed-types` in the root
//! `clippy.toml`) bans `Instant` / `SystemTime` in library code. Time
//! therefore flows through the [`Clock`] trait:
//!
//! * [`LogicalClock`] — a monotone tick counter. Two identical seeded
//!   runs produce **byte-identical** trace streams, which CI diffs at
//!   `FEDWCM_THREADS={1,4}` (`examples/trace_probe.rs`).
//! * [`WallClock`] — real elapsed nanoseconds, exempted by one
//!   `#![expect]` in exactly one file ([`clock`]); binaries and benches
//!   attach it to get real per-phase timing breakdowns.
//!
//! # Parallel sections
//!
//! A [`Tracer`]'s clock must only be ticked from one thread (the
//! engine's serialized round loop). Work running on helper threads records
//! into a per-task [`SpanBuffer`] via the [`local`] thread-local API,
//! each buffer with its own forked clock starting at 0; the engine then
//! [replays](Tracer::replay) the buffers in sampled-index order. The
//! result: traces are byte-identical at any thread count under
//! [`LogicalClock`].
//!
//! # Span taxonomy
//!
//! `round`, `client_update`, `local_epoch`, `aggregate`,
//! `buffer_flush`, `async_apply`, `evaluate`, `checkpoint`,
//! `fault_inject`, `send_frame` — see DESIGN.md §11 for the field
//! contract of each (`buffer_flush` and `async_apply` are the buffered-K
//! and async cadences' aggregation spans, DESIGN.md §12; `send_frame` is
//! one upload crossing the lossy wire, DESIGN.md §13). Every span,
//! point, and metric name is declared once as a constant in [`names`];
//! producers pass a [`names::Name`], so a string literal in name
//! position does not compile, and `fedwcm-lint`'s `metrics-registry`
//! rule flags a table entry nothing uses.

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

pub mod clock;
pub mod event;
pub mod metrics;
pub mod names;
pub mod prof;
pub mod sink;
mod sync;
pub mod tracer;

pub use clock::{Clock, LogicalClock, WallClock};
pub use event::{Event, EventKind, Value};
pub use metrics::{HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use names::{Key, Name};
pub use sink::{ConsoleSink, JsonlSink, NullSink, RingSink, SharedBuf, Sink};
pub use tracer::{local, SpanBuffer, SpanGuard, Tracer};
