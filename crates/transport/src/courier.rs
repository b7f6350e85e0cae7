//! The delivery state machine: drives one upload across a lossy
//! [`InMemoryLink`] under a [`RetryPolicy`] until it is acknowledged, delayed,
//! or out of budget.
//!
//! One [`Courier`] serves one round of deliveries in a fixed order. Its
//! logical clock ticks once per waiting step, so the entire retry
//! timeline — deadlines, backoff pauses, which reordered frame lands in
//! which window — is a deterministic function of the plan seed and the
//! delivery order, independent of thread count. Each attempt draws its
//! fault from the plan once: a [`NetFault::Delay`] ends the delivery
//! there, any other fault is handed to the link with the frame. The
//! receiver's Ack or Nack is its verdict on a frame, returned in
//! process: the reverse channel is lossless, so it carries no frame.
//! Real deployments achieve the same effect by making acks idempotent
//! and retrying them on the data channel's cadence; modelling that
//! asymmetry keeps the state machine focused on the lossy data path.

use crate::frame::{self, FrameError, Verified};
use crate::link::InMemoryLink;
use crate::plan::{NetFault, NetPlan};
use crate::retry::RetryPolicy;
use fedwcm_trace::{Clock, LogicalClock};

/// Runtime transport counters, merged into round records and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Data frames transmitted (first sends and retries).
    pub frames_sent: u64,
    /// Re-transmissions after a Nack or deadline expiry.
    pub retries: u64,
    /// Frames the receiver rejected (checksum mismatch or malformed).
    pub rejected_frames: u64,
    /// Redundant intact arrivals discarded after a delivery completed.
    pub duplicates: u64,
    /// Deliveries deferred whole rounds by a [`NetFault::Delay`].
    pub delayed: u64,
    /// Deliveries that exhausted their retry budget and degraded into
    /// the engine's dropout machinery.
    pub degraded: u64,
    /// Bytes re-transmitted (the wire cost of retries).
    pub retransmitted_bytes: u64,
    /// Bytes arriving in rejected frames.
    pub rejected_bytes: u64,
}

// Byte and frame counters saturate; a bare `+` here is a compile error.
#[deny(clippy::arithmetic_side_effects)]
impl NetCounters {
    /// Accumulate `other` into `self` (saturating).
    pub fn merge(&mut self, other: &NetCounters) {
        self.frames_sent = self.frames_sent.saturating_add(other.frames_sent);
        self.retries = self.retries.saturating_add(other.retries);
        self.rejected_frames = self.rejected_frames.saturating_add(other.rejected_frames);
        self.duplicates = self.duplicates.saturating_add(other.duplicates);
        self.delayed = self.delayed.saturating_add(other.delayed);
        self.degraded = self.degraded.saturating_add(other.degraded);
        self.retransmitted_bytes = self
            .retransmitted_bytes
            .saturating_add(other.retransmitted_bytes);
        self.rejected_bytes = self.rejected_bytes.saturating_add(other.rejected_bytes);
    }

    /// True when no transport activity was recorded at all.
    pub fn is_zero(&self) -> bool {
        *self == NetCounters::default()
    }
}

/// Why a receiver refused a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// The frame's CRC32 did not match: damaged in transit.
    Checksum,
    /// The frame parsed structurally wrong (bad magic, bad length, …).
    Malformed,
}

/// How one transmission attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The receiver acknowledged an intact frame.
    Acked,
    /// The receiver rejected the frame for the given reason.
    Nacked(NackReason),
    /// No reply inside the attempt's deadline.
    TimedOut,
    /// The plan deferred the whole delivery by `rounds` rounds.
    Delayed {
        /// Rounds of deferral.
        rounds: usize,
    },
}

impl AttemptOutcome {
    /// Short static label for trace points.
    pub fn label(&self) -> &'static str {
        match self {
            AttemptOutcome::Acked => "acked",
            AttemptOutcome::Nacked(NackReason::Checksum) => "nack_checksum",
            AttemptOutcome::Nacked(NackReason::Malformed) => "nack_malformed",
            AttemptOutcome::TimedOut => "timeout",
            AttemptOutcome::Delayed { .. } => "delayed",
        }
    }
}

/// The final fate of one delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The upload arrived intact and was acknowledged.
    Delivered {
        /// The frame that carried it, whole, in its own allocation; its
        /// payload is [`Verified::payload`].
        frame: Verified,
    },
    /// The upload will arrive `rounds` rounds late, intact — the
    /// engine's straggler machinery takes over.
    Delayed {
        /// Rounds of lateness.
        rounds: usize,
    },
    /// The retry budget ran out — the engine's dropout machinery takes
    /// over.
    Exhausted,
}

/// One delivery's result: verdict, transmission count, attempt log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Final fate of the upload.
    pub verdict: Verdict,
    /// Data frames actually transmitted for this delivery.
    pub attempts: u32,
    /// Per-attempt outcomes in order (the trace of the state machine).
    pub log: Vec<AttemptOutcome>,
}

/// Drives deliveries for one round over a fresh in-memory link each.
pub struct Courier<'p> {
    plan: &'p NetPlan,
    clock: LogicalClock,
    counters: NetCounters,
}

// The courier bumps the counters above: same rule.
#[deny(clippy::arithmetic_side_effects)]
impl<'p> Courier<'p> {
    /// A courier over `plan` under the [`RetryPolicy`] constants, its
    /// clock resuming at `start_tick` (0 for a fresh run; the
    /// checkpointed tick when resuming).
    pub fn new(plan: &'p NetPlan, _policy: RetryPolicy, start_tick: u64) -> Self {
        Courier {
            plan,
            clock: LogicalClock::starting_at(start_tick),
            counters: NetCounters::default(),
        }
    }

    /// The courier clock's current tick (checkpointed as `net_ticks`).
    pub fn ticks(&self) -> u64 {
        self.clock.current()
    }

    /// Counters accumulated across this courier's deliveries so far.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Deliver `payload` as client `client`'s upload for `round` under
    /// sequence number `seq`, retrying per the policy.
    pub fn deliver(&mut self, round: u64, client: u64, seq: u64, payload: &[u8]) -> Delivery {
        self.deliver_with(round, client, seq, payload.len(), |out| {
            out.extend_from_slice(payload);
        })
    }

    /// [`Courier::deliver`] of the payload `write_payload` appends to the
    /// buffer it is handed (`payload_hint` bytes, if the hint is exact).
    ///
    /// The delivery owns that one buffer: the payload is written
    /// straight into its frame ([`frame::encode_delta_up`]), the frame is
    /// encoded once and the same bytes are lent to the link on every
    /// retransmission (same `seq`, same payload: they were identical
    /// when each attempt built its own), and a [`Verdict::Delivered`]
    /// hands the buffer back whole, its payload read where it lies. A
    /// delivery the plan defers before its first transmission never
    /// calls `write_payload`.
    pub fn deliver_with(
        &mut self,
        round: u64,
        client: u64,
        seq: u64,
        payload_hint: usize,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Delivery {
        let mut log: Vec<AttemptOutcome> = Vec::new();
        let fault = self.plan.net_fault_for(round, client, 0);
        if let Some(rounds) = self.deferred(fault, &mut log) {
            return Delivery {
                verdict: Verdict::Delayed { rounds },
                attempts: 0,
                log,
            };
        }
        let Ok(frame) = frame::encode_delta_up(seq, payload_hint, write_payload) else {
            // Payload over the frame cap: unrecoverable by retrying.
            self.counters.degraded = self.counters.degraded.saturating_add(1);
            log.push(AttemptOutcome::TimedOut);
            return Delivery {
                verdict: Verdict::Exhausted,
                attempts: 0,
                log,
            };
        };
        let (arrived, attempts) = self.transmit(round, client, seq, &frame, fault, &mut log);
        let verdict = match arrived {
            Ok(()) => Verdict::Delivered {
                frame: Verified::accepted(frame),
            },
            Err(other) => other,
        };
        Delivery {
            verdict,
            attempts,
            log,
        }
    }

    /// A Delay drawn for an attempt defers the whole delivery intact: no
    /// frame is transmitted, the engine buffers the update as a late
    /// arrival. Counts and logs it; `Some(rounds)` when it struck.
    fn deferred(
        &mut self,
        fault: Option<NetFault>,
        log: &mut Vec<AttemptOutcome>,
    ) -> Option<usize> {
        let Some(NetFault::Delay { rounds }) = fault else {
            return None;
        };
        self.counters.delayed = self.counters.delayed.saturating_add(1);
        log.push(AttemptOutcome::Delayed { rounds });
        Some(rounds)
    }

    /// Send `frame`, attempt 0 under `fault`, until it arrives (`Ok`),
    /// or the plan defers it or the budget runs out (`Err` of that
    /// verdict); also returns the transmissions made.
    fn transmit(
        &mut self,
        round: u64,
        client: u64,
        seq: u64,
        frame: &[u8],
        mut fault: Option<NetFault>,
        log: &mut Vec<AttemptOutcome>,
    ) -> (Result<(), Verdict>, u32) {
        let mut link = InMemoryLink::default();
        let mut attempt: u32 = 0;
        loop {
            self.counters.frames_sent = self.counters.frames_sent.saturating_add(1);
            if attempt > 0 {
                self.counters.retries = self.counters.retries.saturating_add(1);
                self.counters.retransmitted_bytes = self
                    .counters
                    .retransmitted_bytes
                    .saturating_add(frame.len() as u64);
            }
            link.send(frame, fault);
            // Wait out the attempt deadline, draining the link each tick.
            let deadline = self
                .clock
                .current()
                .saturating_add(RetryPolicy::DEADLINE_TICKS);
            let mut reply: Option<Result<(), NackReason>> = None;
            while self.clock.current() < deadline && reply.is_none() {
                self.clock.tick();
                link.tick();
                reply = self.drain(&mut link, seq);
            }
            // Transmissions so far, this one included.
            let sent = attempt.saturating_add(1);
            match reply {
                Some(Ok(())) => {
                    log.push(AttemptOutcome::Acked);
                    return (Ok(()), sent);
                }
                Some(Err(reason)) => log.push(AttemptOutcome::Nacked(reason)),
                None => log.push(AttemptOutcome::TimedOut),
            }
            if sent >= RetryPolicy::MAX_ATTEMPTS {
                self.counters.degraded = self.counters.degraded.saturating_add(1);
                return (Err(Verdict::Exhausted), sent);
            }
            // Back off before re-sending, still draining: a reordered
            // frame can land during the pause and complete the delivery
            // without another transmission.
            let pause = RetryPolicy::backoff_ticks(self.plan.config().seed, round, client, attempt);
            attempt = sent;
            for _ in 0..pause {
                self.clock.tick();
                link.tick();
                if let Some(Ok(())) = self.drain(&mut link, seq) {
                    log.push(AttemptOutcome::Acked);
                    return (Ok(()), attempt);
                }
            }
            fault = self.plan.net_fault_for(round, client, attempt);
            if let Some(rounds) = self.deferred(fault, log) {
                return (Err(Verdict::Delayed { rounds }), attempt);
            }
        }
    }

    /// Receive everything due on the link, verifying each frame where it
    /// lies: the receiver's verdict is an Ack (`Ok`) for the first intact
    /// matching frame or a Nack (`Err`) for the first damaged one;
    /// damaged frames are counted, and redundant intact frames are
    /// counted as duplicates.
    fn drain(&mut self, link: &mut InMemoryLink<'_>, seq: u64) -> Option<Result<(), NackReason>> {
        let mut outcome: Option<Result<(), NackReason>> = None;
        for raw in link.poll() {
            match frame::decode_ref(&raw) {
                Ok((got, _)) if got == seq && outcome.is_none() => outcome = Some(Ok(())),
                Ok(_) => {
                    self.counters.duplicates = self.counters.duplicates.saturating_add(1);
                }
                Err(e) => {
                    self.counters.rejected_frames = self.counters.rejected_frames.saturating_add(1);
                    self.counters.rejected_bytes = self
                        .counters
                        .rejected_bytes
                        .saturating_add(raw.len() as u64);
                    let reason = if e == FrameError::ChecksumMismatch {
                        NackReason::Checksum
                    } else {
                        NackReason::Malformed
                    };
                    if outcome.is_none() {
                        outcome = Some(Err(reason));
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetConfig;

    /// The delivered payload, if the upload arrived.
    fn delivered(d: &Delivery) -> Option<&[u8]> {
        match &d.verdict {
            Verdict::Delivered { frame } => Some(frame.payload()),
            _ => None,
        }
    }

    fn deliver_one(plan: &NetPlan, round: u64, client: u64) -> (Delivery, NetCounters) {
        let mut courier = Courier::new(plan, RetryPolicy::default(), 0);
        let d = courier.deliver(round, client, 77, &[1, 2, 3, 4]);
        (d, courier.counters())
    }

    #[test]
    fn clean_link_delivers_first_try() {
        let plan = NetPlan::zero(1);
        let (d, c) = deliver_one(&plan, 0, 0);
        assert_eq!(delivered(&d), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(d.attempts, 1);
        assert_eq!(d.log, vec![AttemptOutcome::Acked]);
        assert_eq!(c.frames_sent, 1);
        assert_eq!(c.retries, 0);
        assert!(c.retransmitted_bytes == 0 && c.rejected_bytes == 0);
    }

    #[test]
    fn dropped_frame_is_retried_to_delivery() {
        let plan = NetPlan::new(NetConfig {
            drop: 0.5,
            ..NetConfig::zero(5)
        });
        // Find a client whose attempt 0 drops but attempt 1 succeeds.
        let client = (0..256u64)
            .find(|&c| {
                plan.net_fault_for(0, c, 0) == Some(NetFault::Drop)
                    && plan.net_fault_for(0, c, 1).is_none()
            })
            .expect("such a client exists");
        let (d, c) = deliver_one(&plan, 0, client);
        assert_eq!(delivered(&d), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(d.attempts, 2);
        assert_eq!(d.log, vec![AttemptOutcome::TimedOut, AttemptOutcome::Acked]);
        assert_eq!(c.retries, 1);
        assert!(c.retransmitted_bytes > 0);
    }

    #[test]
    fn corrupted_frame_is_nacked_and_retried() {
        let plan = NetPlan::new(NetConfig {
            corrupt: 0.5,
            ..NetConfig::zero(6)
        });
        let client = (0..256u64)
            .find(|&c| {
                matches!(plan.net_fault_for(0, c, 0), Some(NetFault::Corrupt { .. }))
                    && plan.net_fault_for(0, c, 1).is_none()
            })
            .expect("such a client exists");
        let (d, c) = deliver_one(&plan, 0, client);
        assert_eq!(delivered(&d), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(d.log.len(), 2);
        assert!(matches!(d.log[0], AttemptOutcome::Nacked(_)));
        assert_eq!(c.rejected_frames, 1);
        assert!(c.rejected_bytes > 0);
    }

    #[test]
    fn total_loss_exhausts_the_budget() {
        let plan = NetPlan::new(NetConfig {
            drop: 1.0,
            ..NetConfig::zero(7)
        });
        let (d, c) = deliver_one(&plan, 3, 9);
        assert_eq!(d.verdict, Verdict::Exhausted);
        assert_eq!(d.attempts, RetryPolicy::MAX_ATTEMPTS);
        assert!(d.log.iter().all(|o| *o == AttemptOutcome::TimedOut));
        assert_eq!(c.degraded, 1);
        assert_eq!(c.frames_sent, u64::from(RetryPolicy::MAX_ATTEMPTS));
    }

    #[test]
    fn delay_defers_the_whole_delivery() {
        let plan = NetPlan::new(NetConfig {
            delay: 1.0,
            max_delay_rounds: 2,
            ..NetConfig::zero(8)
        });
        let (d, c) = deliver_one(&plan, 0, 0);
        match d.verdict {
            Verdict::Delayed { rounds } => assert!((1..=2).contains(&rounds)),
            other => panic!("expected a delay, got {other:?}"),
        }
        assert_eq!(d.attempts, 0, "nothing was transmitted");
        assert_eq!(c.frames_sent, 0);
        assert_eq!(c.delayed, 1);
    }

    #[test]
    fn duplicates_are_counted_not_double_delivered() {
        let plan = NetPlan::new(NetConfig {
            duplicate: 1.0,
            ..NetConfig::zero(9)
        });
        let (d, c) = deliver_one(&plan, 0, 0);
        assert!(matches!(d.verdict, Verdict::Delivered { .. }));
        assert_eq!(c.duplicates, 1);
    }

    #[test]
    fn deliveries_are_bitwise_reproducible() {
        let plan = NetPlan::new(NetConfig {
            drop: 0.2,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            delay: 0.1,
            max_delay_rounds: 2,
            ..NetConfig::zero(10)
        });
        let run = || {
            let mut courier = Courier::new(&plan, RetryPolicy::default(), 0);
            let deliveries: Vec<Delivery> = (0..40u64)
                .map(|c| courier.deliver(0, c, c, &[9, 9, 9]))
                .collect();
            (deliveries, courier.counters(), courier.ticks())
        };
        assert_eq!(run(), run());
    }

    /// Writing the payload in place is `deliver` of the same bytes —
    /// verdicts, logs, counters and clock — and a delivery deferred
    /// before its first transmission never asks for the payload.
    #[test]
    fn deliver_with_is_deliver_of_the_bytes_it_writes() {
        let plan = NetPlan::new(NetConfig {
            drop: 0.2,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            delay: 0.1,
            max_delay_rounds: 2,
            ..NetConfig::zero(10)
        });
        let payload: Vec<u8> = (0..=200).collect();
        let mut by_slice = Courier::new(&plan, RetryPolicy::default(), 0);
        let mut in_place = Courier::new(&plan, RetryPolicy::default(), 0);
        for c in 0..40u64 {
            let want = by_slice.deliver(1, c, c, &payload);
            let mut written = false;
            let got = in_place.deliver_with(1, c, c, payload.len(), |out| {
                written = true;
                out.extend_from_slice(&payload);
            });
            assert_eq!(got, want, "client {c}");
            assert_eq!(written, got.attempts > 0, "client {c}");
            if let Verdict::Delivered { frame: arrived } = &got.verdict {
                assert_eq!(arrived.payload(), payload, "client {c}");
                // One buffer: the frame it was written into, nothing
                // grown or copied on the way back.
                assert_eq!(
                    arrived.capacity(),
                    frame::HEADER_LEN + payload.len() + frame::TRAILER_LEN
                );
            }
        }
        assert_eq!(in_place.counters(), by_slice.counters());
        assert_eq!(in_place.ticks(), by_slice.ticks());
    }

    #[test]
    fn counters_merge_saturating() {
        let mut a = NetCounters {
            retransmitted_bytes: u64::MAX,
            ..NetCounters::default()
        };
        let b = NetCounters {
            retransmitted_bytes: 5,
            frames_sent: 2,
            ..NetCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.retransmitted_bytes, u64::MAX);
        assert_eq!(a.frames_sent, 2);
        assert!(!a.is_zero());
        assert!(NetCounters::default().is_zero());
    }
}
