//! Stage 4 — admission: drop what would poison the model, then let the
//! [`Cadence`] decide which of the server's uploads become aggregation
//! events this round.

use super::{PendingUpdate, ReceivedUpdate, RoundCtx, RunState};
use crate::cadence::Cadence;
use crate::config::FlConfig;
use crate::metrics::{RoundFaults, RoundRecord};
use crate::undiscounted::Undiscounted;
use fedwcm_trace::Name;

/// The containment filter's norm gate: a (gradient-scale) client delta
/// whose norm reaches this is a diverged client, and its upload is
/// dropped. Healthy deltas have single-digit norms, so the gate fires
/// only on true blow-ups (and, being a norm, on any non-finite value).
const MAX_UPDATE_NORM: f32 = 1e6;

/// A healthy upload held in the server's aggregation buffer (buffered-K
/// and async cadences). First-class server state: `FWCK` checkpoints
/// serialize it, so a resumed run flushes the exact same batches.
#[derive(Clone, Debug)]
pub(crate) struct BufferedUpdate {
    /// Round whose global model this delta was trained against; its
    /// staleness at application in round `r` is `r - base_round`.
    pub(crate) base_round: usize,
    /// The buffered upload.
    pub(crate) update: Undiscounted,
}

/// One aggregation event's worth of uploads, oldest first, each with the
/// staleness it pays at application.
pub(super) type Batch = Vec<ReceivedUpdate>;

/// What the cadence decided for the round — the hand-off to `apply`.
///
/// The two variants differ in more than contents: `Skip` is a round
/// whose cadence part never reads the clock, while `Apply` with no
/// batches (a buffer below its threshold) still reads it once. The
/// trace bytes depend on that, so an empty `Apply` must not be folded
/// into `Skip`.
pub(super) enum Admission {
    /// A synchronous round that aggregates nothing: no upload survived,
    /// or quorum failed. `train_loss` is the mean over what was
    /// received.
    Skip {
        /// Mean local loss over the received uploads, if any.
        train_loss: Option<f64>,
    },
    /// Aggregate each batch in order, every delta additionally scaled
    /// by `scale` (1 for a barrier or a flush, `1/n` for `n` async
    /// applies).
    Apply {
        /// The planned aggregation events.
        batches: Vec<Batch>,
        /// Extra per-delta weight on top of the staleness discount.
        scale: f32,
    },
}

/// Filter `received`, then admit it under `cfg.cadence`; books the
/// filter's drops and the quorum outcome in `record`.
pub(super) fn admit(
    cfg: &FlConfig,
    ctx: &RoundCtx<'_>,
    mut received: Vec<ReceivedUpdate>,
    state: &mut RunState,
    record: &mut RoundRecord,
) -> Admission {
    // Failure containment: a delta that arrived non-finite (or finite
    // but astronomic — it would poison the global model on the very
    // next step) is dropped; if the whole round is poisoned, nothing
    // is aggregated. The norm gate judges the client's original
    // (undiscounted) delta, and is the finiteness check too: no term of
    // a sum of squares is negative, so a NaN anywhere leaves it NaN and
    // a ±inf (or an overflowing square) leaves it +inf, and `NaN < b`
    // and `inf < b` are false for every `b`. The squared norms are
    // `ops::norm`'s, bit for bit, taken four uploads at a time.
    let before_filter = received.len();
    let deltas: Vec<&[f32]> = received.iter().map(|r| r.update.delta()).collect();
    let mut norms = fedwcm_tensor::ops::norms_sq(&deltas)
        .into_iter()
        .map(f32::sqrt);
    received.retain(|r| {
        let below_gate = norms.next().is_some_and(|n| n < MAX_UPDATE_NORM);
        r.update.avg_loss().is_finite() && below_gate
    });
    record.dropped_updates = before_filter - received.len();
    if let Some(reg) = ctx.registry {
        reg.counter_add(Name::FL_UPDATES_RECEIVED, before_filter as u64);
    }

    match cfg.cadence {
        Cadence::Sync => barrier(cfg, ctx, received, state, &mut record.faults),
        // FedBuff-style: one flush for every `k` buffered uploads,
        // oldest first, the remainder carried forward.
        Cadence::BufferedK { k } => {
            let flushes = buffer(ctx.round, received, state) / k;
            Admission::Apply {
                batches: take_batches(ctx, state, flushes, k),
                scale: 1.0,
            }
        }
        // Fully asynchronous: every buffered upload is applied on its
        // own — oldest first, up to `max_in_flight` a round — weighted
        // `staleness_discount(s) / n` over the round's `n` applies. The
        // applies therefore sum to a staleness-weighted mean, moving
        // the global model on the same scale as one synchronous round
        // **regardless of how many uploads survived the faults**; the
        // excess stays buffered (and ages) until a later round's budget
        // reaches it.
        Cadence::Async { max_in_flight } => {
            let n = max_in_flight.min(buffer(ctx.round, received, state));
            Admission::Apply {
                batches: take_batches(ctx, state, n, 1),
                scale: 1.0f32 / n.max(1) as f32,
            }
        }
    }
}

/// The classic barrier: everything received is one batch — unless
/// nothing was, or the quorum rule fails, and the round is skipped with
/// its late arrivals re-queued.
fn barrier(
    cfg: &FlConfig,
    ctx: &RoundCtx<'_>,
    received: Vec<ReceivedUpdate>,
    state: &mut RunState,
    faults: &mut RoundFaults,
) -> Admission {
    // Aggregating a sliver of the sampled cohort yields a biased
    // direction; below quorum the round reuses the previous momentum
    // (by skipping the update) instead. Only this round's fresh healthy
    // uploads count toward the numerator — late arrivals from earlier
    // cohorts can't carry a round past quorum.
    let fresh_healthy = received.iter().filter(|r| r.staleness == 0).count();
    faults.quorum_failed =
        cfg.quorum_frac > 0.0 && (fresh_healthy as f64) < cfg.quorum_frac * ctx.sampled_len as f64;
    if !received.is_empty() && !faults.quorum_failed {
        return Admission::Apply {
            batches: vec![received],
            scale: 1.0,
        };
    }

    let train_loss = mean_loss_f64(received.iter().map(|r| r.update.avg_loss()));
    // The round discards its fresh uploads, but a late-merged upload is
    // an earlier round's signal that already survived its straggler
    // delay — re-queue it (original undiscounted delta, staleness
    // bumped by the extra round it now waits) and retract this round's
    // late-merge tally for it.
    for r in received.into_iter().filter(|r| r.staleness > 0) {
        faults.late_merged -= 1;
        faults.late_requeued += 1;
        let staleness = Some(("staleness", r.staleness));
        ctx.fault_point("late_requeue", r.update.client(), staleness);
        state.pending.push(PendingUpdate {
            arrival_round: ctx.round + 1,
            staleness: r.staleness + 1,
            via_net: r.via_net,
            update: r.update,
        });
    }
    Admission::Skip { train_loss }
}

/// Mean of the given losses, accumulated in `f64` from 0.0 in order —
/// bit for bit what `apply`'s running sum over one batch gives, so a
/// skipped and an aggregated round report through the same arithmetic.
fn mean_loss_f64(losses: impl Iterator<Item = f32>) -> Option<f64> {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for loss in losses {
        sum += f64::from(loss);
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Append the round's healthy uploads to the aggregation buffer;
/// returns how many it now holds.
fn buffer(round: usize, received: Vec<ReceivedUpdate>, state: &mut RunState) -> usize {
    state
        .agg_buffer
        .extend(received.into_iter().map(|r| BufferedUpdate {
            base_round: round - r.staleness,
            update: r.update,
        }));
    state.agg_buffer.len()
}

/// Take the `count * size` oldest buffered uploads as `count` batches of
/// `size`, each upload aged to this round (the buffer does not remember
/// which uploads crossed the wire, and nothing downstream asks), and
/// book what stays behind in the gauge.
fn take_batches(ctx: &RoundCtx<'_>, state: &mut RunState, count: usize, size: usize) -> Vec<Batch> {
    let mut oldest = state
        .agg_buffer
        .drain(..count * size)
        .map(|b| ReceivedUpdate {
            staleness: ctx.round - b.base_round,
            via_net: false,
            update: b.update,
        });
    let batches = (0..count)
        .map(|_| oldest.by_ref().take(size).collect())
        .collect();
    drop(oldest);
    if let Some(reg) = ctx.registry {
        reg.gauge_set(Name::FL_CADENCE_BUFFERED, state.agg_buffer.len() as f64);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bits, build_sim, pending_update, plain_sgd, TestFedAvg};
    use super::{mean_loss_f64, MAX_UPDATE_NORM};
    use crate::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog};
    use crate::client::{ClientEnv, ClientUpdate};
    use crate::config::FlConfig;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_faults::FaultPlan;

    /// Each way an upload can fail the containment filter.
    #[derive(Clone, Copy, Debug)]
    enum Poison {
        /// A NaN in the delta.
        NanDelta,
        /// A finite delta reporting a non-finite mean loss.
        NanLoss,
        /// A finite delta whose norm is exactly `MAX_UPDATE_NORM`: the
        /// gate's `<` is strict.
        AtMaxNorm,
    }

    /// FedAvg variant that spoils one client's update with `poison` —
    /// failure injection for the engine's containment path.
    struct PoisonedFedAvg {
        poisoned_client: usize,
        poison: Poison,
    }

    impl FederatedAlgorithm for PoisonedFedAvg {
        fn name(&self) -> String {
            "poisoned-fedavg".into()
        }

        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            let mut upd = plain_sgd(env, global);
            if env.id == self.poisoned_client {
                match self.poison {
                    Poison::NanDelta => upd.delta[0] = f32::NAN,
                    Poison::NanLoss => upd.avg_loss = f32::NAN,
                    Poison::AtMaxNorm => {
                        upd.delta.fill(0.0);
                        upd.delta[0] = MAX_UPDATE_NORM;
                    }
                }
            }
            upd
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            average_step(global, input, &mut Vec::new())
        }
    }

    #[test]
    fn poisoned_updates_are_contained() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 50, 1.0);
        let ds = spec.generate_train(&counts, 15);
        let test = spec.generate_test(15);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 6;
        cfg.participation = 1.0;
        cfg.rounds = 6;
        cfg.eval_every = 3;
        let sim = build_sim(&ds, &test, cfg);
        for poison in [Poison::NanDelta, Poison::NanLoss, Poison::AtMaxNorm] {
            let mut algo = PoisonedFedAvg {
                poisoned_client: 2,
                poison,
            };
            let h = sim.run(&mut algo);
            // Every round drops exactly the poisoned client and still trains.
            for r in &h.records {
                assert_eq!(r.dropped_updates, 1, "{poison:?}: round {}", r.round);
                let loss = r.train_loss.expect("healthy clients reported");
                assert!(loss.is_finite(), "{poison:?}: round {}", r.round);
                assert!(r.update_norm > 0.0, "{poison:?}: round {}", r.round);
            }
            // The global model never absorbed the poison.
            let acc = h.final_accuracy(1);
            assert!(acc > 0.1, "{poison:?}: model destroyed by poison: {acc}");
        }
    }

    #[test]
    fn one_norm_scan_decides_like_finiteness_then_norm() {
        // The containment filter's delta gate is `norm(delta) < max`
        // alone; `two_scans` is the predicate it replaced. Poison at the
        // first element, at each of `dot`'s four lanes in the middle, in
        // its scalar tail and at the last element.
        let n = 23;
        let clean: Vec<f32> = (0..n).map(|i| (i as f32 - 11.0) * 0.25).collect();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e19, -3e19] {
            for at in [0, 8, 9, 10, 11, 20, n - 1] {
                let mut delta = clean.clone();
                delta[at] = poison;
                for max_norm in [1e3, f32::INFINITY, f32::NAN] {
                    let one_scan = fedwcm_tensor::ops::norm(&delta) < max_norm;
                    let two_scans = delta.iter().all(|d| d.is_finite()) && one_scan;
                    assert_eq!(one_scan, two_scans, "{poison} at {at} under {max_norm}");
                    assert!(!one_scan, "{poison} at {at} under {max_norm} was kept");
                }
            }
        }
        for max_norm in [1e3, f32::INFINITY, f32::NAN] {
            let kept = fedwcm_tensor::ops::norm(&clean) < max_norm;
            assert_eq!(kept, !max_norm.is_nan(), "clean delta under {max_norm}");
        }
    }

    #[test]
    fn fully_poisoned_round_is_skipped() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 1.0);
        let ds = spec.generate_train(&counts, 16);
        let test = spec.generate_test(16);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 3;
        cfg.participation = 0.34; // one client per round
        cfg.rounds = 3;
        cfg.eval_every = 2;
        let sim = build_sim(&ds, &test, cfg);
        // Poison every client.
        struct AllPoison;
        impl FederatedAlgorithm for AllPoison {
            fn name(&self) -> String {
                "all-poison".into()
            }
            fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
                ClientUpdate {
                    client: env.id,
                    delta: vec![f32::NAN; global.len()],
                    num_samples: 1,
                    num_batches: 1,
                    avg_loss: f32::NAN,
                    extra: None,
                }
            }
            fn aggregate(&mut self, _g: &mut [f32], _i: &RoundInput<'_>) -> RoundLog {
                panic!("aggregate must not run on an empty round");
            }
        }
        let h = sim.run(&mut AllPoison);
        assert_eq!(h.records.len(), 3);
        for r in &h.records {
            assert_eq!(r.dropped_updates, 1);
            assert_eq!(r.update_norm, 0.0);
        }
        // Evaluation cadence must survive empty rounds: with eval_every=2
        // the boundaries are rounds 1 (2nd) and 2 (final), even though
        // every round dropped all of its updates.
        assert!(
            h.records[0].test_acc.is_none(),
            "round 0 is not an eval boundary"
        );
        assert!(
            h.records[1].test_acc.is_some(),
            "eval_every boundary skipped"
        );
        assert!(h.records[2].test_acc.is_some(), "final round must evaluate");
    }

    /// Regression for the straggler-signal-loss bug: a quorum-failed
    /// round used to count late merges in `late_merged` and then throw
    /// the whole updates vec away. It must re-queue the late arrival —
    /// original undiscounted delta, staleness bumped — instead. Also
    /// covers the numerator fix: with zero fresh uploads the round must
    /// fail quorum even though a (stale) upload was received.
    #[test]
    fn quorum_failed_round_requeues_late_arrivals() {
        use fedwcm_faults::FaultConfig;
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 1.0);
        let ds = spec.generate_train(&counts, 31);
        let test = spec.generate_test(31);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.4;
        cfg.rounds = 4;
        cfg.eval_every = 10;
        cfg.quorum_frac = 0.5;
        let sim = build_sim(&ds, &test, cfg).with_fault_plan(FaultPlan::new(FaultConfig {
            dropout: 1.0,
            ..FaultConfig::zero(7)
        }));
        let mut algo = TestFedAvg;
        let mut state = sim.fresh_state(&algo);
        let delta: Vec<f32> = (0..state.global.len())
            .map(|i| (i % 7) as f32 * 0.125 - 0.25)
            .collect();
        state.pending.push(pending_update(0, 1, delta.clone()));

        sim.drive(&mut algo, &mut state, 1, &mut |_, _| {});
        let rec = &state.history.records[0];
        // Pre-fix, the one late merge passed a 0.5 quorum over 2 sampled
        // clients on its own; fresh uploads now hold the numerator.
        assert!(rec.faults.quorum_failed, "stale-only round passed quorum");
        assert_eq!(rec.faults.late_merged, 0, "re-queue must retract the merge");
        assert_eq!(rec.faults.late_requeued, 1);
        assert_eq!(rec.update_norm, 0.0);
        assert_eq!(rec.aggregations, 0);
        // Skip-branch loss goes through the shared f64 helper.
        assert_eq!(rec.train_loss, Some(f64::from(1.5f32)));
        assert_eq!(state.pending.len(), 1, "late signal must not be destroyed");
        assert_eq!(state.pending[0].arrival_round, 1);
        assert_eq!(state.pending[0].staleness, 2);
        assert_eq!(
            bits(state.pending[0].update.delta()),
            bits(&delta),
            "re-queued delta must keep its original (undiscounted) signal"
        );

        // Next round drops everything again: re-queued once more, with
        // the staleness bumped a second time.
        sim.drive(&mut algo, &mut state, 2, &mut |_, _| {});
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.pending[0].staleness, 3);
        assert_eq!(bits(state.pending[0].update.delta()), bits(&delta));
        assert_eq!(state.history.records[1].faults.late_requeued, 1);
    }

    /// The shared loss helper accumulates in f64 — both engine branches
    /// (skip and aggregate) report through it, so their bits agree.
    #[test]
    fn mean_loss_helper_accumulates_in_f64() {
        let upd = |avg_loss: f32| ClientUpdate {
            client: 0,
            delta: Vec::new(),
            num_samples: 1,
            num_batches: 1,
            avg_loss,
            extra: None,
        };
        let losses = [0.1f32, 0.2, 0.3, 7.7];
        let us: Vec<ClientUpdate> = losses.iter().map(|&l| upd(l)).collect();
        let expected = losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len() as f64;
        let got = mean_loss_f64(us.iter().map(|u| u.avg_loss)).expect("non-empty");
        assert_eq!(got.to_bits(), expected.to_bits());
        assert_eq!(mean_loss_f64(std::iter::empty()), None);
    }
}
