//! Retry policy: per-attempt deadlines and capped exponential backoff
//! with deterministically seeded jitter.
//!
//! The policy is four constants — the [`Courier`](crate::Courier)
//! state machine interprets them. Deadlines and backoff pauses are
//! measured in *logical* ticks on the courier's `LogicalClock`, so two
//! runs with the same seeds wait exactly the same number of ticks and
//! stay bitwise identical across thread counts. Jitter is drawn from the
//! dedicated `stream::NET_JITTER` stream keyed by
//! `(round, client, attempt)` — a pure function, like every other
//! stochastic decision in the workspace.

use crate::link::{LINK_LATENCY, REORDER_EXTRA};
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// When and how often a delivery is retried: the associated constants.
/// Its one value, `RetryPolicy::default()`, carries nothing;
/// [`Courier::new`](crate::Courier::new) still takes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy(());

impl RetryPolicy {
    /// Transmission attempts per delivery. When the budget is exhausted
    /// the delivery degrades to a dropout.
    pub const MAX_ATTEMPTS: u32 = 4;
    /// Logical ticks each attempt waits for an intact frame before
    /// timing out.
    pub const DEADLINE_TICKS: u64 = 8;
    /// Base backoff in ticks; attempt `n`'s pause is
    /// `min(BACKOFF_BASE << n, BACKOFF_CAP)` plus jitter in
    /// `[0, BACKOFF_BASE)`.
    pub const BACKOFF_BASE: u64 = 2;
    /// Upper bound on the exponential term.
    pub const BACKOFF_CAP: u64 = 16;

    /// Ticks to pause before re-sending after failed attempt `attempt`
    /// (zero-based): capped exponential plus seeded jitter.
    ///
    /// Pure in `(seed, round, client, attempt)`, so the pause — and with
    /// it the whole retry timeline — is identical across runs and thread
    /// counts.
    pub fn backoff_ticks(seed: u64, round: u64, client: u64, attempt: u32) -> u64 {
        let exp = (Self::BACKOFF_BASE << attempt.min(16)).min(Self::BACKOFF_CAP);
        let mut rng = Xoshiro256pp::stream(
            seed,
            &[stream::NET_JITTER, round, client, u64::from(attempt)],
        );
        exp + rng.next_below(Self::BACKOFF_BASE)
    }
}

// A healthy frame, even a reordered one, lands inside an attempt's
// deadline.
const _: () = assert!(RetryPolicy::DEADLINE_TICKS > LINK_LATENCY + REORDER_EXTRA);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic() {
        for attempt in 0..4 {
            assert_eq!(
                RetryPolicy::backoff_ticks(7, 3, 5, attempt),
                RetryPolicy::backoff_ticks(7, 3, 5, attempt)
            );
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        for attempt in (0..40).chain([u32::MAX]) {
            let ticks = RetryPolicy::backoff_ticks(1, 0, 0, attempt);
            let exp = 2u64 << attempt.min(3);
            assert!(ticks >= exp, "pause below the exponential floor");
            assert!(ticks < exp + 2, "jitter must stay below the base");
        }
    }
}
