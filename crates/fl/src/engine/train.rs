//! Stage 1 — local training: fan the sampled cohort out over the
//! round's worker threads and collect the uploads in sampled-id order.

use super::{RoundCtx, Simulation};
use crate::algorithm::FederatedAlgorithm;
use crate::client::{with_pool, BufferPool, ClientEnv, ClientUpdate};
use crate::config::FlConfig;
use fedwcm_parallel::{parallel_map, with_intra_threads, ThreadBudget};
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};
use fedwcm_trace::{local, Name, SpanBuffer, Value};
use std::sync::Arc;

/// The client ids sampled in round `round` under `cfg` (a pure function
/// of `(cfg.seed, round)`, so a test oracle or a benchmark recomputes a
/// round's cohort without running the round). Ascending.
pub fn sampled_clients_for(cfg: &FlConfig, round: usize) -> Vec<usize> {
    let mut rng = Xoshiro256pp::stream(cfg.seed, &[stream::SAMPLE, round as u64]);
    rng.sample_indices(cfg.clients, cfg.sampled_per_round())
}

/// What a run trains with, fixed before round 0: the thread budget is
/// split between client fan-out and intra-client GEMM parallelism so
/// total concurrency never exceeds `threads`, and every round samples
/// the same number of clients, so the split — and with it the number of
/// training buffer sets the run owns — does not change.
pub(super) struct Workers {
    budget: ThreadBudget,
    buffers: Arc<BufferPool>,
}

impl Workers {
    /// Split `threads` for `sim`'s cohort size and build one buffer set
    /// per outer worker from the simulation's factory.
    pub(super) fn new(sim: &Simulation<'_>, threads: usize) -> Self {
        let budget = ThreadBudget::split(threads, sim.cfg.sampled_per_round());
        let buffers = BufferPool::new(sim.factory.as_ref(), budget.outer());
        Workers { budget, buffers }
    }
}

/// Train every client of `sampled` from `global` and return the uploads
/// in sampled-id order, so everything downstream is deterministic
/// across thread counts. Books the round's nominal traffic.
pub(super) fn train(
    sim: &Simulation<'_>,
    ctx: &RoundCtx<'_>,
    workers: &Workers,
    algo: &dyn FederatedAlgorithm,
    global: &[f32],
    sampled: &[usize],
) -> Vec<ClientUpdate> {
    let round = ctx.round;
    let tracer = ctx.tracer;
    let traced = tracer.enabled();
    let t0 = tracer.now();
    let results = parallel_map(sampled.len(), workers.budget.outer(), |i| {
        let id = sampled[i];
        let env = ClientEnv {
            id,
            round,
            dataset: sim.train,
            view: &sim.views[id],
            cfg: &sim.cfg,
            factory: sim.factory.as_ref(),
        };
        let train = || {
            with_pool(&workers.buffers, || {
                with_intra_threads(workers.budget.inner(), || algo.local_train(&env, global))
            })
        };
        if traced {
            // Client-local spans go into a per-task buffer with a
            // forked clock; the main clock stays untouched by workers,
            // and the buffers are replayed in sampled order below — so
            // the trace stream is identical at every thread count.
            let buf = Arc::new(SpanBuffer::new(tracer.fork_clock()));
            let update = local::with_buffer(&buf, train);
            (update, buf.drain())
        } else {
            (train(), Vec::new())
        }
    });
    let mut updates = Vec::with_capacity(results.len());
    for (update, events) in results {
        if traced {
            let mut fields = ctx.at(update.client);
            fields.push(("batches", Value::U64(update.num_batches as u64)));
            fields.push(("loss", Value::F64(f64::from(update.avg_loss))));
            let _g = tracer.span(Name::CLIENT_UPDATE, fields);
            tracer.replay(events);
        }
        updates.push(update);
    }
    ctx.observe_phase(Name::FL_PHASE_LOCAL_TRAIN, t0);
    if let Some(reg) = ctx.registry {
        let up: u64 = updates
            .iter()
            .map(|u| 4 * (u.delta.len() + u.extra.as_ref().map_or(0, Vec::len)) as u64)
            .sum();
        reg.counter_add(Name::FL_BYTES_UP, up);
        reg.counter_add(
            Name::FL_BYTES_DOWN,
            4 * (ctx.sampled_len * global.len()) as u64,
        );
    }
    updates
}
