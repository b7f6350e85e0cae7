//! Stage 3 — the wire: route this round's fresh uploads through the
//! fault-tolerant transport. Without an effective network plan this is
//! the identity. What the wire did is booked in the round's
//! [`NetCounters`] (`RoundRecord::net`); no metric is touched.

use super::{PendingUpdate, ReceivedUpdate, RoundCtx, RunState};
use crate::codec::Wire;
use fedwcm_trace::{Name, Value};
use fedwcm_transport::{AttemptOutcome, Courier, NetCounters, NetPlan, RetryPolicy, Verdict};

/// Deliver `received` under `plan` and return what arrived.
///
/// Each fresh upload is serialized, framed, and delivered by a
/// [`Courier`] over the deterministic in-memory link in client-id
/// order (the order `received` already has). Outcomes map onto the
/// existing failure machinery: a delivered upload is received as it was
/// sent; transport delays park the upload in the straggler buffer
/// (merged with a staleness discount when due); exhausted retry budgets
/// drop the upload, exactly like a dropout fault — the quorum rule
/// decides what the round does about it. Late arrivals (staleness > 0)
/// already crossed the wire when they were fresh and pass through
/// untouched.
pub(super) fn deliver(
    plan: Option<&NetPlan>,
    ctx: &RoundCtx<'_>,
    received: Vec<ReceivedUpdate>,
    state: &mut RunState,
    net: &mut NetCounters,
) -> Vec<ReceivedUpdate> {
    let Some(plan) = plan else {
        return received;
    };
    let (round, tracer) = (ctx.round, ctx.tracer);
    let mut courier = Courier::new(plan, RetryPolicy::default(), state.net_ticks);
    let mut out: Vec<ReceivedUpdate> = Vec::with_capacity(received.len());
    for r in received {
        if r.staleness > 0 {
            out.push(r);
            continue;
        }
        let client = r.update.client();
        // One sequence number per (round, client) delivery; retries
        // of the same upload share it, so duplicates are detected.
        let seq = ((round as u64) << 32) | client as u64;
        let send_span = tracer.span(Name::SEND_FRAME, ctx.at(client));
        // Serialized straight into the frame the courier sends.
        let upload = &r.update;
        let delivery =
            courier.deliver_with(round as u64, client as u64, seq, upload.wire_len(), |out| {
                upload.put(out);
            });
        if tracer.enabled() {
            for outcome in &delivery.log {
                let (name, detail) = match outcome {
                    AttemptOutcome::Acked => {
                        let attempts = Value::U64(u64::from(delivery.attempts));
                        (Name::ACK, ("attempts", attempts))
                    }
                    // The `ack` point is emitted when the deferred
                    // delivery is merged, rounds later.
                    AttemptOutcome::Delayed { .. } => continue,
                    failed => {
                        let reason = Value::Str(failed.label().to_string());
                        (Name::RETRY, ("reason", reason))
                    }
                };
                let mut fields = ctx.at(client);
                fields.push(detail);
                tracer.point(name, fields);
            }
        }
        drop(send_span);
        match delivery.verdict {
            // The courier hands back the sender's own frame, written from
            // this upload, once a copy of it arrived intact: the upload
            // that arrived is this one, bit for bit.
            Verdict::Delivered { frame } => {
                debug_assert!(
                    frame.payload() == r.update.encode(),
                    "the delivered frame carries the upload it was written from"
                );
                out.push(ReceivedUpdate {
                    staleness: 0,
                    via_net: true,
                    update: r.update,
                });
            }
            Verdict::Delayed { rounds } => state.pending.push(PendingUpdate {
                arrival_round: round + rounds,
                staleness: rounds,
                via_net: true,
                update: r.update,
            }),
            // Degrades into the dropout machinery: the round has one
            // fewer fresh upload and quorum decides the rest.
            Verdict::Exhausted => {}
        }
    }
    net.merge(&courier.counters());
    state.net_ticks = courier.ticks();
    out
}
