//! The delivery substrate: a deterministic in-memory link.
//!
//! A link moves opaque frame bytes from sender to receiver under a
//! logical clock. [`InMemoryLink`] consults a [`NetPlan`] at send time —
//! the fault drawn for `(round, client, attempt)` decides whether the
//! frame is discarded, damaged, duplicated, held back, or queued
//! normally — and releases queued frames in deterministic `(due, send
//! order)` order as the clock advances. Because both the plan and the
//! queue are pure functions of their inputs, a run over this link is
//! bitwise reproducible across thread counts.
//!
//! A link **lends** frames, it does not own them: `send` borrows the
//! sender's buffer for the link's lifetime and `poll` hands the receiver
//! a [`Cow`] — the sender's own bytes for every frame that arrives
//! intact (a duplicate is the same borrow twice), an owned copy only for
//! one the link damaged. A link that really moves bytes returns
//! `Cow::Owned` throughout.

use std::borrow::Cow;

use crate::plan::{NetFault, NetPlan};

/// Logical ticks a frame spends in flight on a healthy link.
pub const LINK_LATENCY: u64 = 1;

/// Extra in-flight ticks added by a [`NetFault::Reorder`], enough to land
/// the frame behind traffic sent one tick later.
pub const REORDER_EXTRA: u64 = 1;

/// Logical ticks per simulated round: a [`NetFault::Delay`] of `r` rounds
/// parks the frame `r * ROUND_TICKS` ticks out, far past any per-attempt
/// deadline, so delayed traffic can never satisfy an in-round retry.
pub const ROUND_TICKS: u64 = 1024;

/// Sender-side context identifying one frame transmission attempt; the
/// coordinates of the [`NetPlan`] fault draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameCtx {
    /// Simulation round of the delivery.
    pub round: u64,
    /// Client whose upload is being carried.
    pub client: u64,
    /// Zero-based transmission attempt.
    pub attempt: u32,
}

struct QueuedFrame<'f> {
    due: u64,
    bytes: Cow<'f, [u8]>,
}

/// A one-way frame channel under a logical clock, carrying frames that
/// live for `'f`: deterministic, in memory, driven by a [`NetPlan`].
pub struct InMemoryLink<'f> {
    plan: &'f NetPlan,
    now: u64,
    /// In flight, ordered by `(due, send order)`: [`InMemoryLink::enqueue`]
    /// inserts behind everything due no later, so the frames that have
    /// arrived are always a prefix.
    queue: Vec<QueuedFrame<'f>>,
}

fn flip_bit(frame: &mut [u8], raw_bit: u64) {
    if frame.is_empty() {
        return;
    }
    let bits = (frame.len() as u64).saturating_mul(8);
    let bit = raw_bit % bits;
    let byte = usize::try_from(bit / 8).unwrap_or(0);
    frame[byte] ^= 1u8 << (bit % 8);
}

impl<'f> InMemoryLink<'f> {
    /// A fresh link at tick 0 under `plan`.
    pub fn new(plan: &'f NetPlan) -> Self {
        InMemoryLink {
            plan,
            now: 0,
            queue: Vec::new(),
        }
    }

    fn enqueue(&mut self, due: u64, bytes: Cow<'f, [u8]>) {
        let at = self.queue.partition_point(|q| q.due <= due);
        self.queue.insert(at, QueuedFrame { due, bytes });
    }

    /// Transmit `frame` under `ctx`. The link may lose, damage,
    /// duplicate, or hold back the frame per its fault model.
    pub fn send(&mut self, ctx: FrameCtx, frame: &'f [u8]) {
        let due = self.now + LINK_LATENCY;
        let intact = Cow::Borrowed(frame);
        match self.plan.net_fault_for(ctx.round, ctx.client, ctx.attempt) {
            Some(NetFault::Drop) => {}
            Some(NetFault::Corrupt { bit }) => {
                let mut damaged = frame.to_vec();
                flip_bit(&mut damaged, bit);
                self.enqueue(due, Cow::Owned(damaged));
            }
            Some(NetFault::Duplicate) => {
                self.enqueue(due, intact.clone());
                self.enqueue(due, intact);
            }
            Some(NetFault::Reorder) => {
                self.enqueue(due + REORDER_EXTRA, intact);
            }
            Some(NetFault::Delay { rounds }) => {
                self.enqueue(due + ROUND_TICKS * rounds as u64, intact);
            }
            None => self.enqueue(due, intact),
        }
    }

    /// Advance the link's logical clock by one tick.
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// The link's current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Drain every frame whose delivery time has arrived, in
    /// deterministic arrival order.
    pub fn poll(&mut self) -> Vec<Cow<'f, [u8]>> {
        let arrived = self.queue.partition_point(|q| q.due <= self.now);
        self.queue.drain(..arrived).map(|q| q.bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetConfig;

    fn ctx(client: u64, attempt: u32) -> FrameCtx {
        FrameCtx {
            round: 0,
            client,
            attempt,
        }
    }

    fn drain_after<'f>(link: &mut InMemoryLink<'f>, ticks: u64) -> Vec<Cow<'f, [u8]>> {
        let mut out = Vec::new();
        for _ in 0..ticks {
            link.tick();
            out.extend(link.poll());
        }
        out
    }

    #[test]
    fn healthy_frame_arrives_after_link_latency() {
        let plan = NetPlan::zero(1);
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(0, 0), &[1, 2, 3]);
        assert!(link.poll().is_empty(), "nothing arrives at send time");
        link.tick();
        assert_eq!(link.poll(), vec![vec![1, 2, 3]]);
        assert!(link.poll().is_empty(), "poll drains");
    }

    #[test]
    fn dropped_frames_never_arrive() {
        let plan = NetPlan::new(NetConfig {
            drop: 1.0,
            ..NetConfig::zero(2)
        });
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(0, 0), &[9; 8]);
        assert!(drain_after(&mut link, 10_000).is_empty());
    }

    #[test]
    fn duplicated_frames_arrive_twice() {
        let plan = NetPlan::new(NetConfig {
            duplicate: 1.0,
            ..NetConfig::zero(3)
        });
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(0, 0), &[7]);
        link.tick();
        assert_eq!(link.poll(), vec![vec![7], vec![7]]);
    }

    #[test]
    fn corrupted_frames_differ_by_exactly_one_bit() {
        let plan = NetPlan::new(NetConfig {
            corrupt: 1.0,
            ..NetConfig::zero(4)
        });
        let sent = vec![0u8; 16];
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(0, 0), &sent);
        link.tick();
        let got = link.poll();
        assert_eq!(got.len(), 1);
        let flipped: u32 = got[0]
            .iter()
            .zip(sent.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn reordered_frame_lands_behind_later_traffic() {
        let plan = NetPlan::new(NetConfig {
            reorder: 1.0,
            ..NetConfig::zero(5)
        });
        let mut link = InMemoryLink::new(&plan);
        // First frame reordered (+1 tick); plan is all-reorder, so hold
        // the second frame out of the fault path with a zero-plan link…
        // instead, send both through the same link but note both reorder:
        // ids break the tie deterministically.
        link.send(ctx(0, 0), &[1]);
        link.tick();
        link.send(ctx(1, 0), &[2]);
        let mut got = Vec::new();
        for _ in 0..4 {
            link.tick();
            got.extend(link.poll());
        }
        // Frame 1 due at 0+1+1 = 2; frame 2 due at 1+1+1 = 3.
        assert_eq!(got, vec![vec![1], vec![2]]);
        // And a reordered frame does land behind a healthy later send:
        let plan = NetPlan::new(NetConfig {
            reorder: 0.5,
            ..NetConfig::zero(17)
        });
        // Find a (client, attempt) pair where attempt 0 reorders and
        // attempt 1 does not.
        let pair = (0..64u64).find(|&c| {
            plan.net_fault_for(0, c, 0) == Some(NetFault::Reorder)
                && plan.net_fault_for(0, c, 1).is_none()
        });
        let c = pair.expect("some client reorders on attempt 0 only");
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(c, 0), &[10]);
        link.send(ctx(c, 1), &[11]);
        link.tick();
        assert_eq!(link.poll(), vec![vec![11]], "healthy frame overtakes");
        link.tick();
        assert_eq!(link.poll(), vec![vec![10]]);
    }

    /// The queue is kept in `(due, send order)`, so a poll is a prefix:
    /// a waiting tick with nothing due builds nothing, and what is due
    /// comes out in that order however the sends interleaved.
    #[test]
    fn poll_drains_the_due_prefix_in_due_then_send_order() {
        let plan = NetPlan::new(NetConfig {
            reorder: 0.5,
            ..NetConfig::zero(17)
        });
        let late: Vec<u64> = (0..64)
            .filter(|&c| plan.net_fault_for(0, c, 0) == Some(NetFault::Reorder))
            .collect();
        let prompt: Vec<u64> = (0..64)
            .filter(|&c| plan.net_fault_for(0, c, 0).is_none())
            .collect();
        assert!(late.len() >= 2 && prompt.len() >= 2);
        let frames: Vec<[u8; 1]> = (0..4).map(|i| [i]).collect();
        let mut link = InMemoryLink::new(&plan);
        // Sent late, prompt, late, prompt: due 2, 1, 2, 1.
        for (i, client) in [late[0], prompt[0], late[1], prompt[1]]
            .into_iter()
            .enumerate()
        {
            link.send(ctx(client, 0), &frames[i]);
        }
        assert_eq!(link.poll().capacity(), 0, "nothing due: nothing built");
        link.tick();
        assert_eq!(link.poll(), vec![vec![1u8], vec![3]]);
        link.tick();
        assert_eq!(link.poll(), vec![vec![0u8], vec![2]]);
        assert!(link.poll().is_empty());
    }

    #[test]
    fn delayed_frames_park_for_whole_rounds() {
        let plan = NetPlan::new(NetConfig {
            delay: 1.0,
            max_delay_rounds: 1,
            ..NetConfig::zero(6)
        });
        let mut link = InMemoryLink::new(&plan);
        link.send(ctx(0, 0), &[4]);
        assert!(drain_after(&mut link, ROUND_TICKS).is_empty());
        link.tick();
        assert_eq!(link.poll(), vec![vec![4]]);
    }

    #[test]
    fn flip_bit_handles_edge_cases() {
        let mut empty: Vec<u8> = Vec::new();
        flip_bit(&mut empty, 12345);
        assert!(empty.is_empty());
        let mut one = vec![0u8];
        flip_bit(&mut one, 8); // wraps to bit 0
        assert_eq!(one, vec![1]);
    }
}
