//! Canonical span, point, and metric names.
//!
//! Every `tracer.span(…)`, `tracer.point(…)`, and `MetricsRegistry`
//! key used anywhere in the workspace is declared here, once, in the
//! `names!` table below. Each entry expands to two constants:
//!
//! * `names::X: &str` — what **readers** compare parsed traces and
//!   snapshots against (`snap.get(names::FL_ACC_TAIL)`,
//!   `span.name == names::ROUND`);
//! * `Name::X` — what **producers** must pass. [`Name`]'s field is
//!   private to this module, so the table is the only source of one: a
//!   string literal in name position is a type error and a misspelt
//!   constant an unresolved one, in every build, in every crate
//!   ([`crate::Tracer::span`], [`crate::MetricsRegistry::counter_add`]
//!   and [`crate::MetricsRegistry::observe`] pin both as `compile_fail`
//!   doctests).
//!
//! That makes this module the single authoritative taxonomy of the
//! telemetry surface: rename an entry here and the compiler — not a
//! lint — walks you to every producer, while dashboards and trace
//! consumers get one place to read. The one thing no type carries is an
//! entry nobody uses; `fedwcm-lint`'s `real_workspace_is_clean` test
//! fails on an identifier of this table that no other file mentions.
//!
//! Grouping mirrors the instrument kinds in [`crate::metrics`] and
//! [`crate::tracer`]: spans and points first, then counters, gauges,
//! and timers (all metric keys are dot-separated, `fl.`-prefixed).

use std::borrow::Cow;

/// A registered span, point, or metric name: one of the associated
/// constants the table below declares. `Copy`, pointer-sized, and
/// impossible to build from a string outside this module.
#[derive(Clone, Copy, Debug)]
pub struct Name(&'static str);

impl Name {
    /// The registered string — the bytes that reach sinks and snapshots.
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// The per-class gauge key under this prefix entry: the prefix plus
    /// the zero-padded class id (`fl.acc.class.07`). The only way to a
    /// key that is not itself a table entry.
    pub fn class(self, class: usize) -> Key {
        Key(Cow::Owned(format!("{}{class:02}", self.0)))
    }
}

/// A gauge key: a [`Name`], or a prefix entry's [`Name::class`] key.
#[derive(Debug)]
pub struct Key(Cow<'static, str>);

impl Key {
    /// The key's string.
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<Name> for Key {
    fn from(name: Name) -> Self {
        Key(Cow::Borrowed(name.0))
    }
}

/// Declare every entry once — doc, identifier, string — and emit both
/// the reader's `pub const X: &str` and the producer's `Name::X`.
macro_rules! names {
    ($($(#[$doc:meta])* $id:ident = $s:literal;)*) => {
        $(
            $(#[$doc])*
            /// (The string, for readers; producers pass the [`Name`] of
            /// the same identifier.)
            pub const $id: &str = $s;
        )*

        /// The registered names, as producers pass them.
        impl Name {
            $(
                $(#[$doc])*
                /// (The [`Name`], for producers.)
                pub const $id: Name = Name($s);
            )*
        }
    };
}

names! {
    // ---- spans -------------------------------------------------------------

    /// Span: one federated round end to end.
    ROUND = "round";
    /// Span: one client's local training for a round.
    CLIENT_UPDATE = "client_update";
    /// Span: one local epoch inside a client update (thread-local buffer).
    LOCAL_EPOCH = "local_epoch";
    /// Span: the synchronous cadence's aggregation step.
    AGGREGATE = "aggregate";
    /// Span: one buffered-K cadence flush.
    BUFFER_FLUSH = "buffer_flush";
    /// Span: one asynchronous cadence apply.
    ASYNC_APPLY = "async_apply";
    /// Span: evaluation of the global model.
    EVALUATE = "evaluate";
    /// Span: writing a checkpoint.
    CHECKPOINT = "checkpoint";
    /// Span: the fault pipeline for one round.
    FAULT_INJECT = "fault_inject";
    /// Span: one transport delivery (send + retries) of a client upload.
    SEND_FRAME = "send_frame";

    // ---- points ------------------------------------------------------------

    /// Point: one injected fault event (kind in the fields).
    FAULT = "fault";
    /// Point: one failed transport attempt (reason in the fields).
    RETRY = "retry";
    /// Point: a transport delivery acknowledged (or merged after delay).
    ACK = "ack";

    // ---- counters ----------------------------------------------------------

    /// Counter: client→server payload bytes.
    FL_BYTES_UP = "fl.bytes.up";
    /// Counter: server→client payload bytes.
    FL_BYTES_DOWN = "fl.bytes.down";
    /// Counter: uploads received before fault filtering.
    FL_UPDATES_RECEIVED = "fl.updates.received";

    // ---- gauges ------------------------------------------------------------

    /// Gauge: uploads currently waiting in the aggregation buffer.
    FL_CADENCE_BUFFERED = "fl.cadence.buffered";
    /// Gauge: mean test accuracy over the last third of the class ids
    /// (`classes / 3`, rounded down).
    FL_ACC_TAIL = "fl.acc.tail";
    /// Gauge name prefix: per-class accuracy, suffixed with the
    /// zero-padded class id (`fl.acc.class.07`).
    FL_ACC_CLASS_PREFIX = "fl.acc.class.";

    // ---- timers ------------------------------------------------------------

    /// Timer: ticks spent in local training per round.
    FL_PHASE_LOCAL_TRAIN = "fl.phase.local_train";
    /// Timer: ticks spent aggregating per round.
    FL_PHASE_AGGREGATE = "fl.phase.aggregate";
    /// Timer: ticks spent evaluating per evaluation.
    FL_PHASE_EVALUATE = "fl.phase.evaluate";
    /// Timer: total ticks per round.
    FL_ROUND_TICKS = "fl.round_ticks";
}
