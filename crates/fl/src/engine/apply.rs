//! Stage 5 — application: pay each admitted upload's one staleness
//! discount and hand the batches to the algorithm. The only place in
//! the crate that turns an [`Undiscounted`](crate::Undiscounted) into a
//! `ClientUpdate`, and the only caller of `aggregate`.

use super::admit::{Admission, Batch};
use super::{RoundCtx, RunState, Simulation};
use crate::algorithm::{FederatedAlgorithm, RoundInput};
use crate::cadence::Cadence;
use crate::client::ClientUpdate;
use crate::metrics::RoundRecord;
use fedwcm_trace::{Name, Value};

/// L2 norm of the parameter movement from `before` to `after`,
/// accumulated in `f64` in index order (bitwise thread-invariant).
fn update_norm_between(before: &[f32], after: &[f32]) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(a, b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The span `cadence` wraps one aggregation event in: its name and
/// fields. An async batch is exactly one upload.
fn event_span(cadence: Cadence, round: usize, batch: &Batch) -> (Name, Vec<(&'static str, Value)>) {
    let u = |v: usize| Value::U64(v as u64);
    let round = ("round", u(round));
    match (cadence, batch.first()) {
        (Cadence::Async { .. }, Some(only)) => (
            Name::ASYNC_APPLY,
            vec![
                round,
                ("client", u(only.update.client())),
                ("staleness", u(only.staleness)),
            ],
        ),
        (Cadence::BufferedK { .. }, _) => {
            let oldest = batch.iter().map(|r| r.staleness).max().unwrap_or(0);
            (
                Name::BUFFER_FLUSH,
                vec![
                    round,
                    ("size", u(batch.len())),
                    ("max_staleness", u(oldest)),
                ],
            )
        }
        _ => (Name::AGGREGATE, vec![round, ("updates", u(batch.len()))]),
    }
}

/// Carry out `admission` on `state.global` and write the round's loss,
/// movement, α and aggregation count into `record`.
///
/// Every clock read is a `LogicalClock` tick, so their sequence is part
/// of the trace contract: a `Skip` reads nothing; an `Apply` reads `t0`
/// once, opens and closes one span per batch, and reads `t1` (into
/// `fl.phase.aggregate`) only if at least one batch ran.
pub(super) fn apply(
    sim: &Simulation<'_>,
    ctx: &RoundCtx<'_>,
    algo: &mut dyn FederatedAlgorithm,
    state: &mut RunState,
    admission: Admission,
    record: &mut RoundRecord,
) {
    let (batches, scale) = match admission {
        Admission::Skip { train_loss } => {
            record.train_loss = train_loss;
            return;
        }
        Admission::Apply { batches, scale } => (batches, scale),
    };
    let round = ctx.round;
    let t0 = ctx.tracer.now();
    if batches.is_empty() {
        return;
    }
    let before = state.global.clone();
    let mut loss_sum = 0.0f64;
    let mut loss_n = 0usize;
    for batch in batches {
        let (span_name, fields) = event_span(sim.cfg.cadence, round, &batch);
        let span = ctx.tracer.span(span_name, fields);
        let updates: Vec<ClientUpdate> = batch
            .into_iter()
            .map(|r| r.update.apply(r.staleness, scale))
            .collect();
        for u in &updates {
            loss_sum += f64::from(u.avg_loss);
        }
        loss_n += updates.len();
        let input = RoundInput {
            round,
            cfg: &sim.cfg,
            updates,
            views: &sim.views,
        };
        let log = algo.aggregate(&mut state.global, &input);
        drop(span);
        if log.alpha.is_some() {
            record.alpha = log.alpha;
        }
        record.aggregations += 1;
    }
    ctx.observe_phase(Name::FL_PHASE_AGGREGATE, t0);
    record.train_loss = (loss_n > 0).then(|| loss_sum / loss_n as f64);
    record.update_norm = update_norm_between(&before, &state.global);
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bits, build_sim, pending_update, plain_sgd};
    use crate::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog};
    use crate::client::{ClientEnv, ClientUpdate};
    use crate::config::FlConfig;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_faults::{staleness_discount, FaultPlan};

    /// FedAvg variant that records every `RoundInput` it aggregates, so
    /// tests can inspect exactly what the engine fed it.
    struct SpyAvg {
        captured: Vec<Vec<ClientUpdate>>,
    }

    impl FederatedAlgorithm for SpyAvg {
        fn name(&self) -> String {
            "spy-avg".into()
        }

        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            plain_sgd(env, global)
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            self.captured.push(input.updates.clone());
            average_step(global, input, &mut Vec::new())
        }
    }

    /// A late-merged upload reaching aggregation must carry exactly one
    /// staleness discount — applied at application time, not at merge.
    #[test]
    fn late_merge_applies_exactly_one_discount() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 1.0);
        let ds = spec.generate_train(&counts, 33);
        let test = spec.generate_test(33);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.4;
        cfg.rounds = 2;
        // A zero-rate plan schedules nothing but keeps the straggler
        // buffer live, so the seeded pending entry merges in round 0.
        let sim = build_sim(&ds, &test, cfg).with_fault_plan(FaultPlan::zero(1));
        let sampled = sim.sampled_clients(0);
        let late_client = (0..5).find(|c| !sampled.contains(c)).expect("free id");
        let mut algo = SpyAvg {
            captured: Vec::new(),
        };
        let mut state = sim.fresh_state(&algo);
        let delta: Vec<f32> = (0..state.global.len())
            .map(|i| (i as f32 * 0.01).sin())
            .collect();
        state
            .pending
            .push(pending_update(late_client, 3, delta.clone()));

        sim.drive(&mut algo, &mut state, 1, &mut |_, _| {});
        assert_eq!(algo.captured.len(), 1);
        let late = algo.captured[0]
            .iter()
            .find(|u| u.client == late_client)
            .expect("late upload aggregated");
        let expected: Vec<f32> = delta.iter().map(|d| d * staleness_discount(3)).collect();
        assert_eq!(
            bits(&late.delta),
            bits(&expected),
            "exactly one staleness discount at application"
        );
        assert_eq!(state.history.records[0].faults.late_merged, 1);
        assert_eq!(state.history.records[0].aggregations, 1);
    }
}
