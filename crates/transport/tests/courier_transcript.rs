//! A pinned courier transcript (`courier_transcript/*` in
//! `results/golden.tsv`): what a fixed all-faults plan does to 120
//! deliveries, byte for byte. `deliveries_are_bitwise_reproducible` in
//! `courier.rs` compares a run with itself; this compares it with the
//! run recorded when the file was written, so a change to the delivery
//! path that moves a verdict, an attempt count, a log entry, a delivered
//! byte, a counter or a clock tick fails here.

use fedwcm_stats::rng::{Rng, Xoshiro256pp};
use fedwcm_transport::{
    AttemptOutcome, Courier, NetConfig, NetCounters, NetFault, NetPlan, RetryPolicy, Verdict,
};

#[path = "support/reference.rs"]
mod reference;
use reference::crc32_bytewise;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::Golden;

const ROUNDS: u64 = 3;
const CLIENTS: u64 = 40;

fn all_faults_plan() -> NetPlan {
    NetPlan::new(NetConfig {
        drop: 0.2,
        corrupt: 0.1,
        duplicate: 0.1,
        reorder: 0.1,
        delay: 0.1,
        max_delay_rounds: 2,
        ..NetConfig::zero(0x7A5C)
    })
}

/// The upload of `(round, client)`: seeded bytes, lengths 0..=199 so
/// the empty payload and every 16-byte remainder occur.
fn payload(round: u64, client: u64) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from(round * 1000 + client);
    let len = rng.index(200);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn put_counters(out: &mut Vec<u8>, c: &NetCounters) {
    for v in [
        c.frames_sent,
        c.retries,
        c.rejected_frames,
        c.duplicates,
        c.delayed,
        c.degraded,
        c.retransmitted_bytes,
        c.rejected_bytes,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Every delivery as `(verdict kind, attempts, log, delivered payload)`,
/// then each round's `counters()` and `ticks()`, one courier a round
/// with the clock carried over as the engine carries it.
fn transcript() -> (Vec<u8>, NetCounters, u64) {
    let plan = all_faults_plan();
    let mut out = Vec::new();
    let mut totals = NetCounters::default();
    let mut ticks = 0u64;
    for round in 0..ROUNDS {
        let mut courier = Courier::new(&plan, RetryPolicy::default(), ticks);
        for client in 0..CLIENTS {
            let seq = (round << 32) | client;
            let sent = payload(round, client);
            let d = courier.deliver(round, client, seq, &sent);
            match &d.verdict {
                Verdict::Delivered { frame } => {
                    let payload = frame.payload();
                    assert_eq!(payload, sent, "round {round} client {client}");
                    out.push(0);
                    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                    out.extend_from_slice(payload);
                }
                Verdict::Delayed { rounds } => {
                    out.push(1);
                    out.extend_from_slice(&(*rounds as u64).to_le_bytes());
                }
                Verdict::Exhausted => out.push(2),
            }
            out.extend_from_slice(&d.attempts.to_le_bytes());
            out.extend_from_slice(&(d.log.len() as u64).to_le_bytes());
            for outcome in &d.log {
                out.extend_from_slice(outcome.label().as_bytes());
                out.push(b';');
                if let AttemptOutcome::Delayed { rounds } = outcome {
                    out.extend_from_slice(&(*rounds as u64).to_le_bytes());
                }
            }
        }
        put_counters(&mut out, &courier.counters());
        totals.merge(&courier.counters());
        ticks = courier.ticks();
        out.extend_from_slice(&ticks.to_le_bytes());
    }
    (out, totals, ticks)
}

#[test]
fn the_all_faults_transcript_is_the_recorded_one() {
    let (bytes, totals, ticks) = transcript();
    // The counters and the clock in the clear, so a failure says which
    // one moved beside the CRC that says something did.
    let mut golden = Golden::new("courier_transcript");
    golden.check("totals", format!("{totals:?}"));
    golden.check("ticks", ticks);
    golden.check("len", bytes.len());
    golden.check("crc", format!("{:#010X}", crc32_bytewise(&bytes)));
    golden.finish();
    // Every fault kind and both failure verdicts took part.
    assert!(totals.retries > 0 && totals.rejected_frames > 0 && totals.duplicates > 0);
    assert!(totals.delayed > 0 && totals.degraded > 0);
}

/// A retry whose own draw is a delay: attempt 0 is lost, and the draw
/// for attempt 1 defers the delivery whole, so it ends `Delayed` after
/// one transmission, having waited one deadline and one backoff pause.
#[test]
fn a_delay_drawn_for_a_retry_ends_the_delivery_after_one_transmission() {
    let plan = NetPlan::new(NetConfig {
        drop: 0.5,
        delay: 0.5,
        max_delay_rounds: 3,
        ..NetConfig::zero(0xD1A7)
    });
    let client = (0..64u64)
        .find(|&c| {
            plan.net_fault_for(2, c, 0) == Some(NetFault::Drop)
                && matches!(plan.net_fault_for(2, c, 1), Some(NetFault::Delay { .. }))
        })
        .expect("a client lost once, then delayed");
    assert_eq!(client, 0);
    let mut courier = Courier::new(&plan, RetryPolicy::default(), 100);
    let d = courier.deliver(2, client, 9, &[1, 2, 3, 4, 5]);
    assert_eq!(d.verdict, Verdict::Delayed { rounds: 1 });
    assert_eq!(d.attempts, 1);
    let labels: Vec<&str> = d.log.iter().map(AttemptOutcome::label).collect();
    assert_eq!(labels, ["timeout", "delayed"]);
    assert_eq!(
        courier.counters(),
        NetCounters {
            frames_sent: 1,
            delayed: 1,
            ..NetCounters::default()
        }
    );
    // 100 + the deadline (8) + attempt 0's pause (base 2, jitter 1).
    assert_eq!(courier.ticks(), 111);
}
