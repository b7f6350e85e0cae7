//! Retry policy: per-attempt deadlines and capped exponential backoff
//! with deterministically seeded jitter.
//!
//! The policy is pure configuration — the [`Courier`](crate::Courier)
//! state machine interprets it. Deadlines and backoff pauses are
//! measured in *logical* ticks on the courier's `LogicalClock`, so two
//! runs with the same seeds wait exactly the same number of ticks and
//! stay bitwise identical across thread counts. Jitter is drawn from the
//! dedicated `stream::NET_JITTER` stream keyed by
//! `(round, client, attempt)` — a pure function, like every other
//! stochastic decision in the workspace.

use crate::link::{LINK_LATENCY, REORDER_EXTRA};
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// When and how often a delivery is retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transmission attempts per delivery (≥ 1). When the budget
    /// is exhausted the delivery degrades to a dropout.
    pub max_attempts: u32,
    /// Logical ticks each attempt waits for an intact frame before
    /// timing out. Must be at least `LINK_LATENCY + REORDER_EXTRA + 1`
    /// so a healthy (even reordered) frame can land inside the window.
    pub deadline_ticks: u64,
    /// Base backoff in ticks; attempt `n`'s pause is
    /// `min(base << n, cap)` plus jitter in `[0, base)`.
    pub backoff_base: u64,
    /// Upper bound on the exponential term.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            deadline_ticks: 8,
            backoff_base: 2,
            backoff_cap: 16,
        }
    }
}

impl RetryPolicy {
    /// Validate the policy; panics with context on misconfiguration.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "max_attempts must be ≥ 1");
        assert!(
            self.deadline_ticks > LINK_LATENCY + REORDER_EXTRA,
            "deadline_ticks must exceed the link latency plus reorder slack \
             ({} ticks), got {}",
            LINK_LATENCY + REORDER_EXTRA,
            self.deadline_ticks
        );
    }

    /// Ticks to pause before re-sending after failed attempt `attempt`
    /// (zero-based): capped exponential plus seeded jitter.
    ///
    /// Pure in `(seed, round, client, attempt)`, so the pause — and with
    /// it the whole retry timeline — is identical across runs and thread
    /// counts.
    pub fn backoff_ticks(&self, seed: u64, round: u64, client: u64, attempt: u32) -> u64 {
        let exp = self
            .backoff_base
            .checked_shl(attempt.min(16))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap);
        let jitter = if self.backoff_base > 0 {
            let mut rng = Xoshiro256pp::stream(
                seed,
                &[stream::NET_JITTER, round, client, u64::from(attempt)],
            );
            rng.next_below(self.backoff_base)
        } else {
            0
        };
        exp.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        RetryPolicy::default().validate();
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..4 {
            assert_eq!(
                p.backoff_ticks(7, 3, 5, attempt),
                p.backoff_ticks(7, 3, 5, attempt)
            );
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            backoff_base: 2,
            backoff_cap: 16,
            ..RetryPolicy::default()
        };
        for attempt in 0..40 {
            let ticks = p.backoff_ticks(1, 0, 0, attempt);
            let exp = 2u64
                .checked_shl(attempt.min(16))
                .unwrap_or(u64::MAX)
                .min(16);
            assert!(ticks >= exp, "pause below the exponential floor");
            assert!(ticks < exp + 2, "jitter must stay below the base");
        }
        // Attempt 4 onward the exponential term is pinned at the cap.
        assert!(p.backoff_ticks(1, 0, 0, 10) <= 16 + 1);
    }

    #[test]
    fn zero_base_means_no_jitter_and_no_pause() {
        let p = RetryPolicy {
            backoff_base: 0,
            backoff_cap: 16,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ticks(1, 0, 0, 0), 0);
    }

    #[test]
    fn huge_attempt_indices_saturate() {
        let p = RetryPolicy {
            backoff_base: u64::MAX,
            backoff_cap: u64::MAX,
            ..RetryPolicy::default()
        };
        // Shift saturates, min caps, add saturates: no overflow panic.
        let _ = p.backoff_ticks(1, 0, 0, u32::MAX);
    }

    #[test]
    #[should_panic]
    fn zero_attempts_rejected() {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn too_short_deadline_rejected() {
        RetryPolicy {
            deadline_ticks: 1,
            ..RetryPolicy::default()
        }
        .validate();
    }
}
