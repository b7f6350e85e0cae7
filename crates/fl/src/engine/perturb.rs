//! Stage 2 — client-level faults: apply the plan's schedule to the
//! round's uploads, park stragglers, and merge the late arrivals that
//! are due. One path: without a plan nothing is scheduled, and merging
//! an empty straggler buffer and sorting already-sorted ids are no-ops.

use super::{sampled_clients_for, RoundCtx, RunState};
use crate::client::ClientUpdate;
use crate::config::FlConfig;
use crate::metrics::RoundFaults;
use crate::undiscounted::Undiscounted;
use fedwcm_faults::{corrupt_delta, FaultKind, FaultPlan};
use fedwcm_trace::{Name, Value};

/// A late upload waiting in the server's straggler buffer.
#[derive(Clone, Debug)]
pub(crate) struct PendingUpdate {
    /// Round at which the buffered upload is merged.
    pub(crate) arrival_round: usize,
    /// Rounds of lateness (the staleness discount is `1/(1+staleness)`).
    pub(crate) staleness: usize,
    /// True when the lateness came from a transport-level delay (the
    /// network plan) rather than a client-level straggler fault. Carried
    /// through checkpoints so a resumed run replays the same trace.
    pub(crate) via_net: bool,
    /// The buffered client update.
    pub(crate) update: Undiscounted,
}

/// An upload the server received this round: the [`Undiscounted`]
/// client delta plus how many rounds late it arrived. The staleness
/// discount is paid at *application* time ([`Undiscounted::apply`]) —
/// never at receive time — so a re-queued or still-buffered upload
/// keeps its original signal.
#[derive(Clone, Debug)]
pub(crate) struct ReceivedUpdate {
    /// Rounds since the global model this delta was trained against
    /// (0 for a fresh upload from this round's cohort).
    pub(crate) staleness: usize,
    /// True once the upload has crossed the wire transport (delivered
    /// or delayed by the network plan). An upload transits the network
    /// exactly once; re-queued entries keep the flag.
    pub(crate) via_net: bool,
    /// The upload.
    pub(crate) update: Undiscounted,
}

/// A fresh upload from this round's cohort, as received.
fn fresh(update: ClientUpdate) -> ReceivedUpdate {
    ReceivedUpdate {
        staleness: 0,
        via_net: false,
        update: Undiscounted::new(update),
    }
}

/// Turn the trained `updates` into the set the server receives this
/// round — surviving fresh uploads plus late arrivals, in client-id
/// order — and tally what happened in `faults`. Deltas stay
/// **undiscounted**: each carries its staleness and the discount is
/// paid at application time, so a skipped round can re-queue a late
/// arrival without signal loss. `last_replay` is the run's
/// [`last_replays`] table. The `fault_inject` span is opened only when a
/// plan is attached.
pub(super) fn perturb(
    plan: Option<&FaultPlan>,
    last_replay: &[Option<usize>],
    ctx: &RoundCtx<'_>,
    updates: Vec<ClientUpdate>,
    state: &mut RunState,
    faults: &mut RoundFaults,
) -> Vec<ReceivedUpdate> {
    let round = ctx.round;
    let _span = plan.map(|_| {
        ctx.tracer.span(
            Name::FAULT_INJECT,
            vec![("round", Value::U64(round as u64))],
        )
    });
    let mut received: Vec<ReceivedUpdate> = Vec::with_capacity(updates.len());
    for mut u in updates {
        match plan.and_then(|p| p.fault_for(round, u.client)) {
            Some(FaultKind::Dropout) => {
                faults.dropouts += 1;
                ctx.fault_point("dropout", u.client, None);
            }
            Some(FaultKind::Straggler { delay }) => {
                faults.stragglers += 1;
                ctx.fault_point("straggler", u.client, Some(("delay", delay)));
                state.pending.push(PendingUpdate {
                    arrival_round: round + delay,
                    staleness: delay,
                    via_net: false,
                    update: Undiscounted::new(u),
                });
            }
            Some(FaultKind::Corrupt(kind)) => {
                faults.corruptions += 1;
                ctx.fault_point("corrupt", u.client, None);
                corrupt_delta(&mut u.delta, kind);
                received.push(fresh(u));
            }
            Some(FaultKind::Replay) => {
                // A stale duplicate of the client's previous upload
                // arrives instead of the fresh delta. A client with no
                // prior upload has nothing to replay; the fresh delta
                // goes through (the fault is still accounted).
                faults.replays += 1;
                ctx.fault_point("replay", u.client, None);
                if let Some(prev) = state.replay_cache.get(u.client).and_then(|p| p.as_deref()) {
                    prev.clone_into(&mut u.delta);
                }
                received.push(fresh(u));
            }
            None => received.push(fresh(u)),
        }
    }

    merge_due_pending(ctx, &mut received, state, faults);

    // Aggregation sees uploads in client-id order regardless of which
    // path (fresh, corrupted, replayed, late) produced them; the sort
    // is stable, so same-client duplicates keep a deterministic order.
    received.sort_by_key(|r| r.update.client());

    // The replay cache holds what the server most recently received
    // from a client, and only while a later round replays that client
    // (`last_replay`, empty unless replays are possible): no other
    // round reads the slot. A late arrival is cached at its original
    // strength: replaying it later must not compound the one staleness
    // discount it pays at application.
    for r in &received {
        let client = r.update.client();
        let Some(slot) = state.replay_cache.get_mut(client) else {
            continue;
        };
        let read_later = last_replay.get(client).copied().flatten() > Some(round);
        if read_later {
            // Overwritten in the slot's own buffer once it has one.
            r.update.delta().clone_into(slot.get_or_insert_default());
        } else {
            *slot = None;
        }
    }
    received
}

/// Each client's last round of the run in which it is sampled with a
/// [`FaultKind::Replay`] — the last round that reads its replay-cache
/// slot — or `None` if it never is. Empty unless `plan` replays. The
/// cohort and the fault are pure functions of `cfg` and `plan`, and the
/// checkpoint fingerprint pins `cfg.rounds`, so a run and its resume
/// build the same table.
pub(super) fn last_replays(cfg: &FlConfig, plan: Option<&FaultPlan>) -> Vec<Option<usize>> {
    let Some(plan) = plan.filter(|p| p.has_replay()) else {
        return Vec::new();
    };
    let mut last = vec![None; cfg.clients];
    for round in 0..cfg.rounds {
        for client in sampled_clients_for(cfg, round) {
            if plan.fault_for(round, client) == Some(FaultKind::Replay) {
                last[client] = Some(round);
            }
        }
    }
    last
}

/// Merge buffered uploads due this round, each tagged with its
/// staleness: a delta computed against an s-round-old global is still
/// signal, but weaker — it is discounted by `staleness_discount(s)`
/// when it is applied. Both client-level stragglers and transport-level
/// delays flow through here, so the quorum/re-queue machinery treats
/// them uniformly; a deferred transport delivery additionally emits an
/// `ack` point on arrival.
fn merge_due_pending(
    ctx: &RoundCtx<'_>,
    received: &mut Vec<ReceivedUpdate>,
    state: &mut RunState,
    faults: &mut RoundFaults,
) {
    let mut still_pending = Vec::with_capacity(state.pending.len());
    for p in state.pending.drain(..) {
        if p.arrival_round > ctx.round {
            still_pending.push(p);
            continue;
        }
        faults.late_merged += 1;
        let client = p.update.client();
        ctx.fault_point("late_merge", client, Some(("staleness", p.staleness)));
        if p.via_net && ctx.tracer.enabled() {
            let mut fields = ctx.at(client);
            fields.push(("deferred", Value::U64(1)));
            ctx.tracer.point(Name::ACK, fields);
        }
        received.push(ReceivedUpdate {
            staleness: p.staleness,
            via_net: p.via_net,
            update: p.update,
        });
    }
    state.pending = still_pending;
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bare_ctx, bits, build_sim, pending_update, TestFedAvg};
    use super::*;
    use crate::config::FlConfig;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::synth::DatasetPreset;

    /// The replay fixture: 5 clients, 2 sampled a round, a plan that
    /// replays 30 % of uploads over 8 rounds.
    fn replay_fixture() -> (FlConfig, FaultPlan) {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.4;
        cfg.rounds = 8;
        let plan = FaultPlan::new(fedwcm_faults::FaultConfig {
            replay: 0.3,
            ..fedwcm_faults::FaultConfig::zero(11)
        });
        (cfg, plan)
    }

    /// Receive one late upload of `client` at round 0 through the replay
    /// fixture's plan, its cache slot holding `stale` beforehand.
    fn receive_late(client: usize, delta: &[f32], stale: Option<Vec<f32>>) -> RunState {
        let spec = DatasetPreset::FashionMnist.spec();
        let ds = spec.generate_train(&longtail_counts(10, 40, 1.0), 32);
        let test = spec.generate_test(32);
        let (cfg, plan) = replay_fixture();
        let sim = build_sim(&ds, &test, cfg).with_fault_plan(plan.clone());
        let mut state = sim.fresh_state(&TestFedAvg);
        assert_eq!(state.replay_cache.len(), 5, "replay plan maintains a cache");
        state.replay_cache[client] = stale;
        state
            .pending
            .push(pending_update(client, 2, delta.to_vec()));

        let mut faults = RoundFaults::default();
        let last_replay = last_replays(&sim.cfg, Some(&plan));
        let received = perturb(
            Some(&plan),
            &last_replay,
            &bare_ctx(0, 2),
            Vec::new(),
            &mut state,
            &mut faults,
        );
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].staleness, 2);
        assert_eq!(faults.late_merged, 1);
        assert_eq!(
            bits(received[0].update.delta()),
            bits(delta),
            "received delta is undiscounted until application"
        );
        state
    }

    /// Regression for the replay-cache bug: the cache used to store the
    /// *discounted* delta of a late merge, so a later replay compounded
    /// the staleness penalty. The cache must hold the upload at its
    /// original strength — here for client 3, whom a later round
    /// replays, so the slot is kept.
    #[test]
    fn replay_cache_holds_undiscounted_late_delta() {
        let (cfg, plan) = replay_fixture();
        let last = last_replays(&cfg, Some(&plan));
        assert!(
            last[3] > Some(0),
            "client 3 is replayed after round 0: {last:?}"
        );
        let delta: Vec<f32> = (0..650).map(|i| 0.5 + i as f32).collect();
        let state = receive_late(3, &delta, None);
        let cached = state.replay_cache[3].as_ref().expect("late merge cached");
        assert_eq!(
            bits(cached),
            bits(&delta),
            "cache must hold the pre-discount delta"
        );
    }

    /// An upload that no later round replays is not kept: its slot is
    /// left empty, and an older upload held there is dropped.
    #[test]
    fn an_upload_with_no_later_replay_leaves_its_slot_empty() {
        let (cfg, plan) = replay_fixture();
        let last = last_replays(&cfg, Some(&plan));
        let client = (0..cfg.clients)
            .find(|&k| last[k] <= Some(0))
            .expect("a client no later round replays");
        let delta = vec![0.25; 650];
        for stale in [None, Some(vec![9.0; 650])] {
            let state = receive_late(client, &delta, stale);
            assert_eq!(state.replay_cache[client], None, "client {client}");
        }
    }

    /// The table is the brute-force answer: per client, the largest
    /// round that samples it with a replay.
    #[test]
    fn last_replays_is_the_latest_sampled_replay_of_each_client() {
        let (mut cfg, plan) = replay_fixture();
        for (clients, participation, rounds) in [(5, 0.4, 8), (12, 0.25, 30), (7, 1.0, 3)] {
            cfg.clients = clients;
            cfg.participation = participation;
            cfg.rounds = rounds;
            let scan: Vec<Option<usize>> = (0..clients)
                .map(|k| {
                    (0..rounds)
                        .filter(|&r| {
                            sampled_clients_for(&cfg, r).contains(&k)
                                && plan.fault_for(r, k) == Some(FaultKind::Replay)
                        })
                        .max()
                })
                .collect();
            assert_eq!(last_replays(&cfg, Some(&plan)), scan, "{clients} clients");
            assert!(scan.iter().any(Option::is_some), "{clients} clients");
        }
        assert!(last_replays(&cfg, None).is_empty());
        assert!(last_replays(&cfg, Some(&FaultPlan::zero(9))).is_empty());
    }

    /// "No plan" is the empty plan: with nothing attached the stage still
    /// merges a due straggler (in client-id order, untouched), leaves a
    /// later one parked, schedules no fault and keeps no replay cache.
    #[test]
    fn without_a_plan_due_uploads_merge_and_nothing_is_scheduled() {
        let mut state = RunState {
            next_round: 4,
            global: vec![0.0; 3],
            history: crate::metrics::History::new("none"),
            pending: Vec::new(),
            agg_buffer: Vec::new(),
            replay_cache: Vec::new(),
            net_ticks: 0,
        };
        let mut due = pending_update(1, 2, vec![1.0, 2.0, 3.0]);
        due.arrival_round = 4;
        let mut later = pending_update(0, 1, vec![9.0; 3]);
        later.arrival_round = 5;
        state.pending = vec![later, due];
        let fresh_from = |client| ClientUpdate {
            client,
            delta: vec![0.5; 3],
            num_samples: 4,
            num_batches: 1,
            avg_loss: 1.0,
            extra: None,
        };

        let mut faults = RoundFaults::default();
        let received = perturb(
            None,
            &[],
            &bare_ctx(4, 2),
            vec![fresh_from(0), fresh_from(2)],
            &mut state,
            &mut faults,
        );
        let seen: Vec<(usize, usize)> = received
            .iter()
            .map(|r| (r.update.client(), r.staleness))
            .collect();
        assert_eq!(seen, [(0, 0), (1, 2), (2, 0)]);
        assert_eq!(bits(received[1].update.delta()), bits(&[1.0, 2.0, 3.0]));
        assert_eq!(
            faults,
            RoundFaults {
                late_merged: 1,
                ..RoundFaults::default()
            }
        );
        assert_eq!(state.pending.len(), 1, "the later upload stays parked");
        assert_eq!(state.pending[0].arrival_round, 5);
        assert!(state.replay_cache.is_empty());
    }
}
