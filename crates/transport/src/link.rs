//! The delivery substrate: a deterministic in-memory link.
//!
//! A link moves opaque frame bytes from sender to receiver under a
//! logical clock. The sender hands [`InMemoryLink::send`] the fault its
//! plan drew for the attempt — the link discards, damages, duplicates,
//! holds back, or queues the frame normally accordingly — and the link
//! releases queued frames in deterministic `(due, send order)` order as
//! the clock advances. The queue is a pure function of what was sent, so
//! a run over this link is bitwise reproducible across thread counts.
//!
//! A link **lends** frames, it does not own them: `send` borrows the
//! sender's buffer for the link's lifetime and `poll` hands the receiver
//! a [`Cow`] — the sender's own bytes for every frame that arrives
//! intact (a duplicate is the same borrow twice), an owned copy only for
//! one the link damaged. A link that really moves bytes returns
//! `Cow::Owned` throughout.

use std::borrow::Cow;

use crate::plan::NetFault;

/// Logical ticks a frame spends in flight on a healthy link.
pub const LINK_LATENCY: u64 = 1;

/// Extra in-flight ticks added by a [`NetFault::Reorder`], enough to land
/// the frame behind traffic sent one tick later.
pub const REORDER_EXTRA: u64 = 1;

struct QueuedFrame<'f> {
    due: u64,
    bytes: Cow<'f, [u8]>,
}

/// A one-way frame channel under a logical clock, carrying frames that
/// live for `'f`: deterministic, in memory, starting at tick 0.
#[derive(Default)]
pub struct InMemoryLink<'f> {
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
    fn enqueue(&mut self, due: u64, bytes: Cow<'f, [u8]>) {
        let at = self.queue.partition_point(|q| q.due <= due);
        self.queue.insert(at, QueuedFrame { due, bytes });
    }

    /// Transmit `frame` under `fault`: lost, damaged, duplicated, held
    /// back, or queued to arrive after [`LINK_LATENCY`]. A
    /// [`NetFault::Delay`] is the sender's to act on, before it sends; the
    /// link queues such a frame as if unfaulted.
    pub fn send(&mut self, frame: &'f [u8], fault: Option<NetFault>) {
        let due = self.now + LINK_LATENCY;
        let intact = Cow::Borrowed(frame);
        match fault {
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
            _ => self.enqueue(due, intact),
        }
    }

    /// Advance the link's logical clock by one tick.
    pub fn tick(&mut self) {
        self.now += 1;
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
        let mut link = InMemoryLink::default();
        link.send(&[1, 2, 3], None);
        assert!(link.poll().is_empty(), "nothing arrives at send time");
        link.tick();
        assert_eq!(link.poll(), vec![vec![1, 2, 3]]);
        assert!(link.poll().is_empty(), "poll drains");
    }

    #[test]
    fn dropped_frames_never_arrive() {
        let mut link = InMemoryLink::default();
        link.send(&[9; 8], Some(NetFault::Drop));
        assert!(drain_after(&mut link, 10_000).is_empty());
    }

    #[test]
    fn duplicated_frames_arrive_twice() {
        let mut link = InMemoryLink::default();
        link.send(&[7], Some(NetFault::Duplicate));
        link.tick();
        assert_eq!(link.poll(), vec![vec![7], vec![7]]);
    }

    #[test]
    fn corrupted_frames_differ_by_exactly_one_bit() {
        let sent = vec![0u8; 16];
        let mut link = InMemoryLink::default();
        link.send(&sent, Some(NetFault::Corrupt { bit: 0x1234_5678 }));
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
        // Two reordered frames a tick apart keep their order: due 2, then 3.
        let mut link = InMemoryLink::default();
        link.send(&[1], Some(NetFault::Reorder));
        link.tick();
        link.send(&[2], Some(NetFault::Reorder));
        assert_eq!(drain_after(&mut link, 4), vec![vec![1], vec![2]]);
        // A healthy frame sent after a reordered one overtakes it.
        let mut link = InMemoryLink::default();
        link.send(&[10], Some(NetFault::Reorder));
        link.send(&[11], None);
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
        let frames: Vec<[u8; 1]> = (0..4).map(|i| [i]).collect();
        let mut link = InMemoryLink::default();
        // Sent late, prompt, late, prompt: due 2, 1, 2, 1.
        for (i, fault) in [Some(NetFault::Reorder), None]
            .into_iter()
            .cycle()
            .take(4)
            .enumerate()
        {
            link.send(&frames[i], fault);
        }
        assert_eq!(link.poll().capacity(), 0, "nothing due: nothing built");
        link.tick();
        assert_eq!(link.poll(), vec![vec![1u8], vec![3]]);
        link.tick();
        assert_eq!(link.poll(), vec![vec![0u8], vec![2]]);
        assert!(link.poll().is_empty());
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
