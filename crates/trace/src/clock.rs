//! Time sources: the deterministic [`LogicalClock`] and the
//! [`WallClock`].
//!
//! This file is the **only** place in the workspace's library crates
//! allowed to name `std::time::Instant` (a `clippy::disallowed_types`
//! entry in the root `clippy.toml`, denied crate by crate; the
//! `#![expect]` below is the exemption); everything else reads time
//! through the [`Clock`] trait so a run can be made bitwise
//! reproducible by swapping in a [`LogicalClock`].

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned wall-time source: the Clock trait's wall-clock \
              implementation must name std::time to wrap it; consumers are \
              binaries/benches and timing never feeds back into simulation state"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone time source measured in *ticks*.
///
/// For [`LogicalClock`] a tick is "one read" — purely a sequence
/// number; for [`WallClock`] it is nanoseconds since the clock's base.
/// Implementations must be monotone non-decreasing per instance.
pub trait Clock: Send + Sync {
    /// The current tick. [`LogicalClock`] advances by one per call;
    /// [`WallClock`] reports elapsed nanoseconds.
    fn tick(&self) -> u64;

    /// A fresh clock of the same kind starting at zero, for use by a
    /// parallel task whose events are later replayed (see
    /// [`crate::SpanBuffer`]). Forked clocks share no state with their
    /// parent, so per-task tick sequences are deterministic regardless
    /// of scheduling.
    fn fork(&self) -> Box<dyn Clock>;
}

/// Deterministic clock: every [`Clock::tick`] returns the previous
/// count and advances by one. Traces stamped by a `LogicalClock` are a
/// pure function of the *sequence of reads*, so two identical seeded
/// runs produce byte-identical trace streams at any thread count.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    /// A logical clock starting at tick 0.
    pub fn new() -> Self {
        LogicalClock(AtomicU64::new(0))
    }

    /// A logical clock resuming at `tick` — used when restoring
    /// clock-bearing state (e.g. the transport courier) from a
    /// checkpoint so the tick sequence continues exactly where the
    /// interrupted run left off.
    pub fn starting_at(tick: u64) -> Self {
        LogicalClock(AtomicU64::new(tick))
    }

    /// The current tick *without* advancing the clock. [`Clock::tick`]
    /// reads-and-advances; this is a pure observation for capturing the
    /// clock's position (e.g. into a checkpoint).
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clock for LogicalClock {
    fn tick(&self) -> u64 {
        // Relaxed is enough: each clock instance is read from one
        // logical owner (the engine thread, or one forked task).
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    fn fork(&self) -> Box<dyn Clock> {
        Box::new(LogicalClock::new())
    }
}

/// Wall clock: ticks are nanoseconds elapsed since construction. The
/// single sanctioned wall-time source — attach it only from binaries
/// and benches; library code must stay on [`LogicalClock`] (or no
/// tracer at all) so simulation behaviour never depends on time.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    base: Instant,
}

impl WallClock {
    /// A wall clock whose tick 0 is "now".
    pub fn new() -> Self {
        WallClock {
            base: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn tick(&self) -> u64 {
        let d = self.base.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }

    fn fork(&self) -> Box<dyn Clock> {
        Box::new(WallClock::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_counts_reads() {
        let c = LogicalClock::new();
        assert_eq!(c.tick(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
    }

    #[test]
    fn logical_fork_starts_at_zero() {
        let c = LogicalClock::new();
        c.tick();
        c.tick();
        let f = c.fork();
        assert_eq!(f.tick(), 0);
        // Forking never perturbs the parent sequence.
        assert_eq!(c.tick(), 2);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b >= a);
    }
}
