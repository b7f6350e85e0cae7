//! The simulation round loop: sampling, parallel local training, fault
//! injection, straggler-aware aggregation, and checkpoint/resume.

use crate::algorithm::{FederatedAlgorithm, RoundInput};
use crate::cadence::Cadence;
use crate::checkpoint::{CheckpointError, ServerCheckpoint};
use crate::client::{with_pool, BufferPool, ClientEnv, ClientUpdate, ModelFactory};
use crate::codec::Wire;
use crate::config::FlConfig;
use crate::metrics::{History, RoundFaults, RoundRecord};
use crate::undiscounted::Undiscounted;
use crate::wire;
use fedwcm_data::dataset::{ClientView, Dataset};
use fedwcm_faults::{corrupt_delta, FaultKind, FaultPlan};
use fedwcm_nn::model::Model;
use fedwcm_parallel::{chunk_ranges, parallel_map, with_intra_threads, ThreadBudget};
use fedwcm_stats::rng::{Rng, Xoshiro256pp};
use fedwcm_tensor::invariants;
use fedwcm_trace::{local, names, MetricsRegistry, SpanBuffer, Tracer, Value};
use fedwcm_transport::{AttemptOutcome, Courier, NetCounters, NetPlan, RetryPolicy, Verdict};
use std::sync::Arc;

/// Stream label for per-round client sampling.
const STREAM_SAMPLE: u64 = 0x5A3B;

/// Evaluation batch size (memory bound, not a hyper-parameter).
const EVAL_BATCH: usize = 256;

/// Tick-delta buckets for the `fl.phase.*` / `fl.round_ticks`
/// histograms. Wide on purpose: a [`fedwcm_trace::LogicalClock`] yields
/// a handful of ticks per phase, a [`fedwcm_trace::WallClock`] yields
/// nanoseconds.
const PHASE_BOUNDS: [f64; 10] = [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Buckets for the per-round global-update-norm histogram.
const UPDATE_NORM_BOUNDS: [f64; 8] = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0];

/// Buckets for the α-trajectory histogram (α ∈ (0, 1]).
const ALPHA_BOUNDS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Observability attachments for a [`Simulation`]: both default to off,
/// and an unattached simulation behaves (and performs) exactly as
/// before.
///
/// The tracer's clock is only ever ticked from the engine's serialized
/// round loop; client-local work records into per-task
/// [`SpanBuffer`]s that the engine replays in sampled-index order, so
/// traces are byte-identical across thread counts under a
/// [`fedwcm_trace::LogicalClock`].
#[derive(Default)]
pub struct Observability {
    /// Structured span/event stream (disabled tracer by default).
    pub tracer: Tracer,
    /// Metrics registry; its snapshot is merged into
    /// [`History::metrics`] at the end of every drive and restored on
    /// checkpoint resume.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

/// The client ids sampled in round `round` under `cfg` (a pure function
/// of `(cfg.seed, round)`, so sampling, fault accounting, and
/// communication reports all agree without sharing state).
pub fn sampled_clients_for(cfg: &FlConfig, round: usize) -> Vec<usize> {
    let mut rng = Xoshiro256pp::stream(cfg.seed, &[STREAM_SAMPLE, round as u64]);
    rng.sample_indices(cfg.clients, cfg.sampled_per_round())
}

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
/// discount is applied by the cadence at *application* time
/// ([`Undiscounted::apply`]) — never at receive time — so a re-queued or
/// still-buffered upload keeps its original signal.
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

/// Mutable server-side state of a run: everything a checkpoint captures
/// besides the algorithm's own internals.
pub(crate) struct RunState {
    /// Next round to execute.
    pub(crate) next_round: usize,
    /// Current global parameters.
    pub(crate) global: Vec<f32>,
    /// Records of the rounds executed so far.
    pub(crate) history: History,
    /// Straggler buffer (insertion order — deterministic).
    pub(crate) pending: Vec<PendingUpdate>,
    /// Aggregation buffer of the buffered-K and async cadences
    /// (insertion order — deterministic; always empty under sync).
    pub(crate) agg_buffer: Vec<BufferedUpdate>,
    /// Per-client copy of the last upload the server received; maintained
    /// only when the fault plan can schedule replays.
    pub(crate) replay_cache: Vec<Option<Vec<f32>>>,
    /// Transport logical-clock position (0 when no network plan is in
    /// effect). Checkpointed so a kill-mid-run resume continues the
    /// transport tick sequence exactly where the interrupted run left
    /// off instead of restarting it at zero.
    pub(crate) net_ticks: u64,
}

/// What a cadence did with this round's received uploads; the common
/// round tail turns it into a [`RoundRecord`].
struct CadenceOutcome {
    /// Mean local-training loss over the uploads applied (sync
    /// aggregate / buffer flushes / async applies) or — on a skipped
    /// sync round — over the uploads received; `None` when neither.
    train_loss: Option<f64>,
    /// L2 norm of the round's net global-parameter movement.
    update_norm: f64,
    /// α reported by the algorithm's last aggregation this round.
    alpha: Option<f64>,
    /// Aggregation events applied this round.
    aggregations: u32,
}

/// Mean of `avg_loss` over `updates`, accumulated in `f64` — the one
/// loss-averaging path shared by every cadence and branch, so reports
/// and checkpoints agree bit for bit regardless of which branch
/// produced them.
pub(crate) fn mean_loss_f64(losses: impl Iterator<Item = f32>) -> Option<f64> {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for loss in losses {
        sum += f64::from(loss);
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

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

/// A fresh upload from this round's cohort, as received.
fn fresh(update: ClientUpdate) -> ReceivedUpdate {
    ReceivedUpdate {
        staleness: 0,
        via_net: false,
        update: Undiscounted::new(update),
    }
}

/// A configured federated simulation: data, partition views, model
/// factory, hyper-parameters, and (optionally) a fault-injection plan.
/// Run any [`FederatedAlgorithm`] on it.
pub struct Simulation<'a> {
    /// Simulation hyper-parameters.
    pub cfg: FlConfig,
    /// Master training dataset.
    pub train: &'a Dataset,
    /// Held-out (balanced) test dataset.
    pub test: &'a Dataset,
    /// Per-client data views, indexed by client id.
    pub views: Vec<ClientView>,
    /// Model constructor: clones the prototype [`Simulation::new`] built
    /// by calling the user's factory once (same architecture + init for
    /// every use; a clone carries no layer cache, because the prototype
    /// is never run forward).
    pub factory: Box<ModelFactory>,
    /// Deterministic fault-injection plan applied between local training
    /// and aggregation. `None` (and any all-zero-rate plan) reproduces
    /// the fault-free trajectory bit for bit: the plan draws from its own
    /// RNG streams and never touches sampling or training streams.
    pub fault_plan: Option<FaultPlan>,
    /// Frame-level network fault plan. When set (and not all-zero), the
    /// client-upload path is routed through the wire transport: uploads
    /// are framed, checksummed, and delivered over a lossy deterministic
    /// link with retries; exhausted retry budgets degrade into the
    /// dropout machinery and transport delays into the straggler
    /// machinery. `None` and any zero-rate plan reproduce the
    /// direct-call trajectory bit for bit.
    pub net_plan: Option<NetPlan>,
    /// Retry policy the transport courier runs under (deadlines,
    /// backoff, attempt budget). Ignored unless a network plan is in
    /// effect.
    pub retry_policy: RetryPolicy,
    /// Tracing and metrics attachments (off by default).
    pub obs: Observability,
}

impl<'a> Simulation<'a> {
    /// Build a simulation; validates configuration against the partition.
    /// `factory` is called exactly once, here: clients, evaluation and
    /// [`Simulation::run_returning_model`] all receive clones of the model
    /// it returns.
    pub fn new(
        cfg: FlConfig,
        train: &'a Dataset,
        test: &'a Dataset,
        views: Vec<ClientView>,
        factory: Box<ModelFactory>,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            views.len(),
            cfg.clients,
            "view count must equal cfg.clients"
        );
        assert!(
            views.iter().all(|v| !v.is_empty()),
            "every client needs at least one sample"
        );
        let prototype = factory();
        Simulation {
            cfg,
            train,
            test,
            views,
            factory: Box::new(move || prototype.clone()),
            fault_plan: None,
            net_plan: None,
            retry_policy: RetryPolicy::default(),
            obs: Observability::default(),
        }
    }

    /// Attach a fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attach a frame-level network fault plan (builder style). A
    /// zero-rate plan is a bitwise no-op: the transport path is skipped
    /// entirely, exactly as if no plan were attached.
    pub fn with_net_plan(mut self, plan: NetPlan) -> Self {
        self.net_plan = Some(plan);
        self
    }

    /// Override the transport retry policy (builder style); validated
    /// when the courier is constructed.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// The network plan actually in effect: `None` when absent *or*
    /// all-zero, so both cases skip the transport path identically.
    fn effective_net_plan(&self) -> Option<&NetPlan> {
        self.net_plan.as_ref().filter(|p| !p.is_zero())
    }

    /// Attach a tracer (builder style). Pair a
    /// [`fedwcm_trace::LogicalClock`] with any sink for deterministic
    /// traces, or a [`fedwcm_trace::WallClock`] in binaries for real
    /// timings.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.obs.tracer = tracer;
        self
    }

    /// Attach a metrics registry (builder style); its snapshot lands in
    /// [`History::metrics`].
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.obs.metrics = Some(registry);
        self
    }

    /// The client ids sampled in round `r` (deterministic per seed).
    pub fn sampled_clients(&self, round: usize) -> Vec<usize> {
        sampled_clients_for(&self.cfg, round)
    }

    /// Run the full federated loop for `cfg.rounds` rounds.
    pub fn run(&self, algo: &mut dyn FederatedAlgorithm) -> History {
        self.run_with_observer(algo, |_, _| {})
    }

    /// Like [`Simulation::run`], but invokes `observer(round, global)` with
    /// the post-aggregation global parameters after every round — the hook
    /// the neuron-concentration analysis (Figs. 4, 13–17) uses.
    pub fn run_with_observer(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        mut observer: impl FnMut(usize, &[f32]),
    ) -> History {
        let mut state = self.fresh_state(algo);
        self.drive(algo, &mut state, self.cfg.rounds, &mut observer);
        state.history
    }

    /// Run rounds `0..stop_round` from a fresh start and capture a
    /// checkpoint of the resulting server state. Fails if the algorithm
    /// does not implement state capture ([`FederatedAlgorithm::save_state`]).
    pub fn run_until(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        stop_round: usize,
    ) -> Result<ServerCheckpoint, CheckpointError> {
        let mut state = self.fresh_state(algo);
        let stop = stop_round.min(self.cfg.rounds);
        self.drive(algo, &mut state, stop, &mut |_, _| {});
        let _g = self.obs.tracer.span(
            names::CHECKPOINT,
            vec![("round", Value::U64(state.next_round as u64))],
        );
        ServerCheckpoint::capture(self, algo, &state)
    }

    /// Resume a run from a checkpoint captured by
    /// [`Simulation::run_until`] (possibly in a different process — the
    /// checkpoint round-trips through bytes) and drive it to
    /// `cfg.rounds`. The returned history covers the **whole** run,
    /// checkpointed rounds included, and is bitwise identical to an
    /// uninterrupted run's.
    pub fn resume(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        ckpt: &ServerCheckpoint,
    ) -> Result<History, CheckpointError> {
        self.resume_with_observer(algo, ckpt, |_, _| {})
    }

    /// [`Simulation::resume`] with a per-round observer over the resumed
    /// rounds.
    pub fn resume_with_observer(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        ckpt: &ServerCheckpoint,
        mut observer: impl FnMut(usize, &[f32]),
    ) -> Result<History, CheckpointError> {
        let mut state = ckpt.restore(self, algo)?;
        self.drive(algo, &mut state, self.cfg.rounds, &mut observer);
        Ok(state.history)
    }

    /// Fresh pre-round-0 server state.
    fn fresh_state(&self, algo: &dyn FederatedAlgorithm) -> RunState {
        let model = (self.factory)();
        let replay_cache = if self.fault_plan.as_ref().is_some_and(|p| p.has_replay()) {
            vec![None; self.cfg.clients]
        } else {
            Vec::new()
        };
        RunState {
            next_round: 0,
            global: model.params().to_vec(),
            history: History::new(algo.name()),
            pending: Vec::new(),
            agg_buffer: Vec::new(),
            replay_cache,
            net_ticks: 0,
        }
    }

    /// Execute rounds `state.next_round..until_round`, mutating `state`.
    fn drive(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        state: &mut RunState,
        until_round: usize,
        observer: &mut dyn FnMut(usize, &[f32]),
    ) {
        let mut model = (self.factory)();
        let threads = self.cfg.resolved_threads();
        let tracer = self.obs.tracer.clone();
        let registry = self.obs.metrics.as_deref();
        // The round's thread budget is split between client fan-out and
        // intra-client GEMM parallelism so total concurrency never
        // exceeds `threads`. Every round samples the same number of
        // clients, so the split — and with it the number of training
        // buffer sets this run owns — is fixed for the run.
        let budget = ThreadBudget::split(threads, self.cfg.sampled_per_round());
        let train_buffers = BufferPool::new(self.factory.as_ref(), budget.outer());

        while state.next_round < until_round {
            let round = state.next_round;
            let sampled = self.sampled_clients(round);
            let round_t0 = tracer.now();
            let round_span = tracer.span(
                names::ROUND,
                vec![
                    ("round", Value::U64(round as u64)),
                    ("sampled", Value::U64(sampled.len() as u64)),
                ],
            );

            // Parallel local training: results are collected in sampled-id
            // order, so aggregation is deterministic across thread counts.
            let algo_ref: &dyn FederatedAlgorithm = algo;
            let global_ref = &state.global;
            let traced = tracer.enabled();
            let tracer_ref = &tracer;
            let local_t0 = tracer.now();
            let results = parallel_map(sampled.len(), budget.outer(), |i| {
                let id = sampled[i];
                let env = ClientEnv {
                    id,
                    round,
                    dataset: self.train,
                    view: &self.views[id],
                    cfg: &self.cfg,
                    factory: self.factory.as_ref(),
                };
                let train = || {
                    with_pool(&train_buffers, || {
                        with_intra_threads(budget.inner(), || {
                            algo_ref.local_train(&env, global_ref)
                        })
                    })
                };
                if traced {
                    // Client-local spans go into a per-task buffer with a
                    // forked clock; the main clock stays untouched by
                    // workers, and the buffers are replayed in sampled
                    // order below — so the trace stream is identical at
                    // every thread count.
                    let buf = Arc::new(SpanBuffer::new(tracer_ref.fork_clock()));
                    let update = local::with_buffer(&buf, train);
                    (update, buf.drain())
                } else {
                    (train(), Vec::new())
                }
            });
            let mut updates = Vec::with_capacity(results.len());
            for (update, events) in results {
                if traced {
                    let _g = tracer.span(
                        names::CLIENT_UPDATE,
                        vec![
                            ("round", Value::U64(round as u64)),
                            ("client", Value::U64(update.client as u64)),
                            ("batches", Value::U64(update.num_batches as u64)),
                            ("loss", Value::F64(f64::from(update.avg_loss))),
                        ],
                    );
                    tracer.replay(events);
                }
                updates.push(update);
            }
            self.observe_phase(registry, names::FL_PHASE_LOCAL_TRAIN, local_t0);
            if let Some(reg) = registry {
                let up: u64 = updates
                    .iter()
                    .map(|u| 4 * (u.delta.len() + u.extra.as_ref().map_or(0, Vec::len)) as u64)
                    .sum();
                reg.counter_add(names::FL_BYTES_UP, up);
                reg.counter_add(
                    names::FL_BYTES_DOWN,
                    4 * (sampled.len() * state.global.len()) as u64,
                );
            }

            // Loud mode: with `debug_invariants`, a malformed or poisoned
            // update panics right here — at the client-emission boundary,
            // naming the round and client — instead of being silently
            // dropped by the containment filter below. Injected faults are
            // applied *after* this check: they model transport/storage
            // damage to a delta that was healthy when the client emitted
            // it, so chaos runs stay panic-free under debug_invariants
            // while still exercising the containment filter.
            if invariants::ENABLED {
                for u in &updates {
                    invariants::check_len(u.delta.len(), state.global.len(), || {
                        format!(
                            "delta from client {} entering server aggregation (round {round})",
                            u.client
                        )
                    });
                    invariants::check_finite(&u.delta, || {
                        format!(
                            "delta from client {} entering server aggregation (round {round})",
                            u.client
                        )
                    });
                }
            }

            // Fault hook: apply the plan's scheduled faults to the
            // collected uploads, buffer stragglers, and merge late
            // arrivals due this round. Received uploads carry their
            // staleness; deltas stay undiscounted until a cadence
            // applies them.
            let mut faults = RoundFaults::default();
            let mut received: Vec<ReceivedUpdate> = if let Some(plan) = &self.fault_plan {
                let _g = tracer.span(
                    names::FAULT_INJECT,
                    vec![("round", Value::U64(round as u64))],
                );
                self.apply_faults(plan, round, updates, state, &mut faults, &tracer)
            } else if self.effective_net_plan().is_some() {
                // No client-level faults, but the transport can have
                // parked delayed deliveries: merge the ones due this
                // round, in the same client-id order apply_faults uses.
                let mut received: Vec<ReceivedUpdate> = updates.into_iter().map(fresh).collect();
                self.merge_due_pending(round, &mut received, state, &mut faults, &tracer);
                received.sort_by_key(|r| r.update.client());
                received
            } else {
                updates.into_iter().map(fresh).collect()
            };
            if let Some(reg) = registry {
                reg.counter_add(names::FL_FAULTS_DROPOUTS, u64::from(faults.dropouts));
                reg.counter_add(names::FL_FAULTS_STRAGGLERS, u64::from(faults.stragglers));
                reg.counter_add(names::FL_FAULTS_LATE_MERGED, u64::from(faults.late_merged));
                reg.counter_add(names::FL_FAULTS_CORRUPTIONS, u64::from(faults.corruptions));
                reg.counter_add(names::FL_FAULTS_REPLAYS, u64::from(faults.replays));
            }

            // Transport hook: route this round's fresh uploads through
            // the wire. Skipped entirely (a bitwise no-op) without an
            // effective network plan; with one, checksum-rejected frames
            // are Nacked and retried, exhausted budgets fall through to
            // the dropout machinery, and delays park the upload in the
            // straggler buffer. The `fl.net.*` counters are only touched
            // when the transport actually ran, so zero-plan metric
            // snapshots stay identical to pre-transport runs.
            let mut net = NetCounters::default();
            if let Some(net_plan) = self.effective_net_plan() {
                received =
                    self.deliver_received(net_plan, round, received, state, &mut net, &tracer);
                if let Some(reg) = registry {
                    reg.counter_add(names::FL_NET_FRAMES_SENT, net.frames_sent);
                    reg.counter_add(names::FL_NET_RETRIES, net.retries);
                    reg.counter_add(names::FL_NET_REJECTED_FRAMES, net.rejected_frames);
                    reg.counter_add(names::FL_NET_DUPLICATES, net.duplicates);
                    reg.counter_add(names::FL_NET_DELAYED, net.delayed);
                    reg.counter_add(names::FL_NET_DEGRADED, net.degraded);
                    reg.counter_add(names::FL_NET_RETRANSMITTED_BYTES, net.retransmitted_bytes);
                    reg.counter_add(names::FL_NET_REJECTED_BYTES, net.rejected_bytes);
                }
            }

            // Failure containment: a delta that arrived non-finite (or
            // finite but astronomic — it would poison the global model on
            // the very next step) is dropped; if the whole round is
            // poisoned, skip the aggregation entirely. The norm gate
            // judges the client's original (undiscounted) delta, and is
            // the finiteness check too: no term of a sum of squares is
            // negative, so a NaN anywhere leaves it NaN and a ±inf (or
            // an overflowing square) leaves it +inf, and `NaN < b` and
            // `inf < b` are false for every `b`.
            let before_filter = received.len();
            received.retain(|r| {
                r.update.avg_loss().is_finite()
                    && fedwcm_tensor::ops::norm(r.update.delta()) < self.cfg.max_update_norm
            });
            let dropped_updates = before_filter - received.len();
            if let Some(reg) = registry {
                reg.counter_add(names::FL_UPDATES_RECEIVED, before_filter as u64);
                reg.counter_add(names::FL_UPDATES_DROPPED, dropped_updates as u64);
            }

            // Evaluation cadence is a property of the round number alone:
            // an empty (fully-dropped) round still evaluates the unchanged
            // global model on eval boundaries, so accuracy series keep
            // their cadence regardless of failures.
            let eval_now =
                (round + 1).is_multiple_of(self.cfg.eval_every) || round + 1 == self.cfg.rounds;

            // Hand the round's received uploads to the configured
            // cadence; everything after this point is cadence-agnostic.
            let outcome = match self.cfg.cadence {
                Cadence::Sync => self.sync_round(
                    algo,
                    state,
                    round,
                    sampled.len(),
                    received,
                    &mut faults,
                    registry,
                    &tracer,
                ),
                Cadence::BufferedK { k } => {
                    self.buffered_round(algo, state, round, k, received, registry, &tracer)
                }
                Cadence::Async { max_in_flight } => self.async_round(
                    algo,
                    state,
                    round,
                    max_in_flight,
                    received,
                    registry,
                    &tracer,
                ),
            };

            let test_acc = eval_now.then(|| {
                self.evaluate_phase(&mut model, &state.global, round, threads, registry, &tracer)
            });
            state.history.records.push(RoundRecord {
                round,
                train_loss: outcome.train_loss,
                update_norm: outcome.update_norm,
                test_acc,
                alpha: outcome.alpha,
                aggregations: outcome.aggregations,
                dropped_updates,
                faults,
                net,
            });
            if let Some(reg) = registry {
                reg.counter_add(names::FL_ROUNDS, 1);
            }
            observer(round, &state.global);
            drop(round_span);
            self.observe_phase(registry, names::FL_ROUND_TICKS, round_t0);
            state.next_round = round + 1;
        }

        // The run's metric state rides along in the history, so reports
        // and checkpoints see it without extra plumbing.
        if let Some(reg) = registry {
            state.history.metrics = reg.snapshot();
        }
    }

    /// One round of the synchronous cadence: the classic barrier.
    /// Applies the quorum rule over **fresh** healthy uploads only, and
    /// on a skipped round re-queues late-merged uploads (undiscounted,
    /// staleness bumped) instead of destroying their signal.
    #[allow(clippy::too_many_arguments)]
    fn sync_round(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        state: &mut RunState,
        round: usize,
        sampled_len: usize,
        received: Vec<ReceivedUpdate>,
        faults: &mut RoundFaults,
        registry: Option<&MetricsRegistry>,
        tracer: &Tracer,
    ) -> CadenceOutcome {
        // Quorum rule: aggregating a sliver of the sampled cohort yields
        // a biased direction; below quorum the round reuses the previous
        // momentum (by skipping the update) instead. Only this round's
        // fresh healthy uploads count toward the numerator — late
        // arrivals from earlier cohorts can't carry a round past quorum.
        let fresh_healthy = received.iter().filter(|r| r.staleness == 0).count();
        let quorum_failed = self.cfg.quorum_frac > 0.0
            && (fresh_healthy as f64) < self.cfg.quorum_frac * sampled_len as f64;
        faults.quorum_failed = quorum_failed;
        if quorum_failed {
            if let Some(reg) = registry {
                reg.counter_add(names::FL_ROUNDS_QUORUM_FAILED, 1);
            }
        }

        if received.is_empty() || quorum_failed {
            let train_loss = mean_loss_f64(received.iter().map(|r| r.update.avg_loss()));
            // The round discards its fresh uploads, but a late-merged
            // upload is an earlier round's signal that already survived
            // its straggler delay — re-queue it (original undiscounted
            // delta, staleness bumped by the extra round it now waits)
            // and retract this round's late-merge tally for it.
            for r in received {
                if r.staleness > 0 {
                    faults.late_merged -= 1;
                    faults.late_requeued += 1;
                    if tracer.enabled() {
                        tracer.point(
                            names::FAULT,
                            vec![
                                ("round", Value::U64(round as u64)),
                                ("client", Value::U64(r.update.client() as u64)),
                                ("kind", Value::Str("late_requeue".to_string())),
                                ("staleness", Value::U64(r.staleness as u64)),
                            ],
                        );
                    }
                    state.pending.push(PendingUpdate {
                        arrival_round: round + 1,
                        staleness: r.staleness + 1,
                        via_net: r.via_net,
                        update: r.update,
                    });
                }
            }
            if let Some(reg) = registry {
                reg.counter_add(
                    names::FL_FAULTS_LATE_REQUEUED,
                    u64::from(faults.late_requeued),
                );
            }
            return CadenceOutcome {
                train_loss,
                update_norm: 0.0,
                alpha: None,
                aggregations: 0,
            };
        }

        let updates: Vec<ClientUpdate> = received
            .into_iter()
            .map(|r| r.update.apply(r.staleness, 1.0))
            .collect();
        let input = RoundInput {
            round,
            cfg: &self.cfg,
            updates,
            views: &self.views,
        };
        let train_loss = mean_loss_f64(input.updates.iter().map(|u| u.avg_loss));
        let before = state.global.clone();
        let agg_t0 = tracer.now();
        let log = {
            let _g = tracer.span(
                names::AGGREGATE,
                vec![
                    ("round", Value::U64(round as u64)),
                    ("updates", Value::U64(input.updates.len() as u64)),
                ],
            );
            algo.aggregate(&mut state.global, &input)
        };
        self.observe_phase(registry, names::FL_PHASE_AGGREGATE, agg_t0);
        if invariants::ENABLED {
            invariants::check_finite(&state.global, || {
                format!(
                    "global parameters after {} aggregation (round {round})",
                    algo.name()
                )
            });
        }
        let update_norm = update_norm_between(&before, &state.global);
        if let Some(reg) = registry {
            reg.observe(names::FL_UPDATE_NORM, &UPDATE_NORM_BOUNDS, update_norm);
            if let Some(a) = log.alpha {
                reg.gauge_set(names::FL_ALPHA, a);
                reg.observe(names::FL_ALPHA_TRAJECTORY, &ALPHA_BOUNDS, a);
            }
        }
        CadenceOutcome {
            train_loss,
            update_norm,
            alpha: log.alpha,
            aggregations: 1,
        }
    }

    /// One round of the buffered-K cadence (FedBuff-style): healthy
    /// received uploads join the aggregation buffer, and the server
    /// flushes an aggregation for every `k` buffered uploads, oldest
    /// first, carrying the remainder forward. Each flushed delta is
    /// discounted by its staleness at flush time.
    #[allow(clippy::too_many_arguments)]
    fn buffered_round(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        state: &mut RunState,
        round: usize,
        k: usize,
        received: Vec<ReceivedUpdate>,
        registry: Option<&MetricsRegistry>,
        tracer: &Tracer,
    ) -> CadenceOutcome {
        for r in received {
            state.agg_buffer.push(BufferedUpdate {
                base_round: round - r.staleness,
                update: r.update,
            });
        }

        let before = state.global.clone();
        let agg_t0 = tracer.now();
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut alpha = None;
        let mut aggregations = 0u32;
        while state.agg_buffer.len() >= k {
            let batch: Vec<BufferedUpdate> = state.agg_buffer.drain(..k).collect();
            let max_staleness = batch
                .iter()
                .map(|b| round - b.base_round)
                .max()
                .unwrap_or(0);
            let _g = tracer.span(
                names::BUFFER_FLUSH,
                vec![
                    ("round", Value::U64(round as u64)),
                    ("size", Value::U64(k as u64)),
                    ("max_staleness", Value::U64(max_staleness as u64)),
                ],
            );
            let updates: Vec<ClientUpdate> = batch
                .into_iter()
                .map(|b| b.update.apply(round - b.base_round, 1.0))
                .collect();
            for u in &updates {
                loss_sum += f64::from(u.avg_loss);
            }
            loss_n += updates.len();
            let input = RoundInput {
                round,
                cfg: &self.cfg,
                updates,
                views: &self.views,
            };
            let log = algo.aggregate(&mut state.global, &input);
            if log.alpha.is_some() {
                alpha = log.alpha;
            }
            if invariants::ENABLED {
                invariants::check_finite(&state.global, || {
                    format!(
                        "global parameters after {} buffer flush (round {round})",
                        algo.name()
                    )
                });
            }
            aggregations += 1;
        }
        if aggregations > 0 {
            self.observe_phase(registry, names::FL_PHASE_AGGREGATE, agg_t0);
        }
        let update_norm = update_norm_between(&before, &state.global);
        if let Some(reg) = registry {
            reg.counter_add(names::FL_CADENCE_FLUSHES, u64::from(aggregations));
            reg.gauge_set(names::FL_CADENCE_BUFFERED, state.agg_buffer.len() as f64);
            if aggregations > 0 {
                reg.observe(names::FL_UPDATE_NORM, &UPDATE_NORM_BOUNDS, update_norm);
                if let Some(a) = alpha {
                    reg.gauge_set(names::FL_ALPHA, a);
                    reg.observe(names::FL_ALPHA_TRAJECTORY, &ALPHA_BOUNDS, a);
                }
            }
        }
        CadenceOutcome {
            train_loss: (loss_n > 0).then(|| loss_sum / loss_n as f64),
            update_norm,
            alpha,
            aggregations,
        }
    }

    /// One round of the fully asynchronous cadence: every buffered
    /// upload is applied individually — oldest first, up to
    /// `max_in_flight` per round — weighted by
    /// `staleness_discount(s) / n` where `n` is the number of uploads
    /// applied this round. The round's applies therefore sum to a
    /// staleness-weighted mean, moving the global model on the same
    /// scale as one synchronous round **regardless of how many uploads
    /// survived the faults**; the excess stays buffered (and ages)
    /// until a later round's budget reaches it.
    #[allow(clippy::too_many_arguments)]
    fn async_round(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        state: &mut RunState,
        round: usize,
        max_in_flight: usize,
        received: Vec<ReceivedUpdate>,
        registry: Option<&MetricsRegistry>,
        tracer: &Tracer,
    ) -> CadenceOutcome {
        for r in received {
            state.agg_buffer.push(BufferedUpdate {
                base_round: round - r.staleness,
                update: r.update,
            });
        }

        let before = state.global.clone();
        let agg_t0 = tracer.now();
        let apply_n = max_in_flight.min(state.agg_buffer.len());
        let scale = 1.0f32 / apply_n.max(1) as f32;
        let batch: Vec<BufferedUpdate> = state.agg_buffer.drain(..apply_n).collect();
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut alpha = None;
        let mut aggregations = 0u32;
        for b in batch {
            let staleness = round - b.base_round;
            let _g = tracer.span(
                names::ASYNC_APPLY,
                vec![
                    ("round", Value::U64(round as u64)),
                    ("client", Value::U64(b.update.client() as u64)),
                    ("staleness", Value::U64(staleness as u64)),
                ],
            );
            let u = b.update.apply(staleness, scale);
            loss_sum += f64::from(u.avg_loss);
            loss_n += 1;
            let input = RoundInput {
                round,
                cfg: &self.cfg,
                updates: vec![u],
                views: &self.views,
            };
            let log = algo.aggregate(&mut state.global, &input);
            if log.alpha.is_some() {
                alpha = log.alpha;
            }
            if invariants::ENABLED {
                invariants::check_finite(&state.global, || {
                    format!(
                        "global parameters after {} async apply (round {round})",
                        algo.name()
                    )
                });
            }
            aggregations += 1;
        }
        if aggregations > 0 {
            self.observe_phase(registry, names::FL_PHASE_AGGREGATE, agg_t0);
        }
        let update_norm = update_norm_between(&before, &state.global);
        if let Some(reg) = registry {
            reg.counter_add(names::FL_CADENCE_ASYNC_APPLIES, u64::from(aggregations));
            reg.gauge_set(names::FL_CADENCE_BUFFERED, state.agg_buffer.len() as f64);
            if aggregations > 0 {
                reg.observe(names::FL_UPDATE_NORM, &UPDATE_NORM_BOUNDS, update_norm);
                if let Some(a) = alpha {
                    reg.gauge_set(names::FL_ALPHA, a);
                    reg.observe(names::FL_ALPHA_TRAJECTORY, &ALPHA_BOUNDS, a);
                }
            }
        }
        CadenceOutcome {
            train_loss: (loss_n > 0).then(|| loss_sum / loss_n as f64),
            update_norm,
            alpha,
            aggregations,
        }
    }

    /// Record the tick delta since `t0` into the named phase histogram.
    /// The clock is read whenever the tracer is enabled (keeping tick
    /// sequences registry-independent); the observation lands only when
    /// a registry is attached.
    fn observe_phase(&self, registry: Option<&MetricsRegistry>, name: &str, t0: Option<u64>) {
        if let (Some(t0), Some(t1)) = (t0, self.obs.tracer.now()) {
            if let Some(reg) = registry {
                reg.observe(name, &PHASE_BOUNDS, t1.saturating_sub(t0) as f64);
            }
        }
    }

    /// Evaluate the global model in one pass over the test set:
    /// `evaluate` span, overall accuracy, and — with a registry attached,
    /// from the same tally — per-class gauges plus the tail-mean gauge
    /// (the long-tail synthesis orders classes head to tail by
    /// frequency, so the final third of class ids is the tail).
    fn evaluate_phase(
        &self,
        model: &mut Model,
        global: &[f32],
        round: usize,
        threads: usize,
        registry: Option<&MetricsRegistry>,
        tracer: &Tracer,
    ) -> f64 {
        let t0 = tracer.now();
        let acc = {
            let _g = tracer.span(names::EVALUATE, vec![("round", Value::U64(round as u64))]);
            model.set_params(global);
            let tally = class_tally(model, self.test, threads);
            let acc = overall_accuracy(&tally);
            if let Some(reg) = registry {
                reg.gauge_set(names::FL_ACC_OVERALL, acc);
                let pc = class_accuracies(&tally);
                let tail_len = pc.len() / 3;
                let tail_from = pc.len() - tail_len;
                let mut tail_sum = 0.0;
                for (c, &a) in pc.iter().enumerate() {
                    reg.gauge_set(&format!("{}{c:02}", names::FL_ACC_CLASS_PREFIX), a);
                    if c >= tail_from {
                        tail_sum += a;
                    }
                }
                if tail_len > 0 {
                    reg.gauge_set(names::FL_ACC_TAIL, tail_sum / tail_len as f64);
                }
            }
            acc
        };
        self.observe_phase(registry, names::FL_PHASE_EVALUATE, t0);
        acc
    }

    /// Apply the plan's faults for `round` to the freshly collected
    /// uploads, returning the set the server actually receives this
    /// round (surviving fresh uploads plus late arrivals, in client-id
    /// order). Deltas are **undiscounted**: each carries its staleness
    /// and the cadence applies the discount at application time, so a
    /// skipped round can re-queue a late arrival without signal loss.
    fn apply_faults(
        &self,
        plan: &FaultPlan,
        round: usize,
        updates: Vec<ClientUpdate>,
        state: &mut RunState,
        faults: &mut RoundFaults,
        tracer: &Tracer,
    ) -> Vec<ReceivedUpdate> {
        let fault_point = |kind: &str, client: usize, detail: Option<(&'static str, u64)>| {
            if tracer.enabled() {
                let mut fields = vec![
                    ("round", Value::U64(round as u64)),
                    ("client", Value::U64(client as u64)),
                    ("kind", Value::Str(kind.to_string())),
                ];
                if let Some((k, v)) = detail {
                    fields.push((k, Value::U64(v)));
                }
                tracer.point(names::FAULT, fields);
            }
        };
        let mut received: Vec<ReceivedUpdate> = Vec::with_capacity(updates.len());
        for mut u in updates {
            match plan.fault_for(round, u.client) {
                Some(FaultKind::Dropout) => {
                    faults.dropouts += 1;
                    fault_point("dropout", u.client, None);
                }
                Some(FaultKind::Straggler { delay }) => {
                    faults.stragglers += 1;
                    fault_point("straggler", u.client, Some(("delay", delay as u64)));
                    state.pending.push(PendingUpdate {
                        arrival_round: round + delay,
                        staleness: delay,
                        via_net: false,
                        update: Undiscounted::new(u),
                    });
                }
                Some(FaultKind::Corrupt(kind)) => {
                    faults.corruptions += 1;
                    fault_point("corrupt", u.client, None);
                    corrupt_delta(&mut u.delta, kind);
                    received.push(fresh(u));
                }
                Some(FaultKind::Replay) => {
                    // A stale duplicate of the client's previous upload
                    // arrives instead of the fresh delta. A client with no
                    // prior upload has nothing to replay; the fresh delta
                    // goes through (the fault is still accounted).
                    faults.replays += 1;
                    fault_point("replay", u.client, None);
                    if let Some(prev) = state.replay_cache.get(u.client).and_then(|p| p.as_deref())
                    {
                        u.delta = prev.to_vec();
                    }
                    received.push(fresh(u));
                }
                None => received.push(fresh(u)),
            }
        }

        self.merge_due_pending(round, &mut received, state, faults, tracer);

        // Aggregation sees uploads in client-id order regardless of which
        // path (fresh, corrupted, replayed, late) produced them; the sort
        // is stable, so same-client duplicates keep a deterministic order.
        received.sort_by_key(|r| r.update.client());

        // The replay cache holds what the server most recently received
        // from each client (only maintained when replays are possible).
        // A late arrival is cached at its original strength: replaying
        // it later must not compound the one staleness discount it pays
        // at application.
        if plan.has_replay() {
            for r in &received {
                if let Some(slot) = state.replay_cache.get_mut(r.update.client()) {
                    *slot = Some(r.update.delta().to_vec());
                }
            }
        }
        received
    }

    /// Merge buffered uploads due this round, each tagged with its
    /// staleness: a delta computed against an s-round-old global is
    /// still signal, but weaker — the cadence discounts it by
    /// `staleness_discount(s)` when it is applied. Both client-level
    /// stragglers and transport-level delays flow through here, so the
    /// quorum/re-queue machinery treats them uniformly; a deferred
    /// transport delivery additionally emits an `ack` point on arrival.
    fn merge_due_pending(
        &self,
        round: usize,
        received: &mut Vec<ReceivedUpdate>,
        state: &mut RunState,
        faults: &mut RoundFaults,
        tracer: &Tracer,
    ) {
        let mut still_pending = Vec::with_capacity(state.pending.len());
        for p in state.pending.drain(..) {
            if p.arrival_round <= round {
                faults.late_merged += 1;
                if tracer.enabled() {
                    tracer.point(
                        names::FAULT,
                        vec![
                            ("round", Value::U64(round as u64)),
                            ("client", Value::U64(p.update.client() as u64)),
                            ("kind", Value::Str("late_merge".to_string())),
                            ("staleness", Value::U64(p.staleness as u64)),
                        ],
                    );
                    if p.via_net {
                        tracer.point(
                            names::ACK,
                            vec![
                                ("round", Value::U64(round as u64)),
                                ("client", Value::U64(p.update.client() as u64)),
                                ("deferred", Value::U64(1)),
                            ],
                        );
                    }
                }
                received.push(ReceivedUpdate {
                    staleness: p.staleness,
                    via_net: p.via_net,
                    update: p.update,
                });
            } else {
                still_pending.push(p);
            }
        }
        state.pending = still_pending;
    }

    /// Route this round's fresh uploads through the wire transport.
    ///
    /// Each fresh upload is serialized, framed, and delivered by a
    /// [`Courier`] over the deterministic in-memory link in client-id
    /// order (the order `received` already has). Outcomes map onto the
    /// existing failure machinery: delivered payloads are decoded back
    /// into received updates; transport delays park the upload in the
    /// straggler buffer (merged with a staleness discount when due);
    /// exhausted retry budgets drop the upload, exactly like a dropout
    /// fault — the quorum rule decides what the round does about it.
    /// Late arrivals (staleness > 0) already crossed the wire when they
    /// were fresh and pass through untouched.
    fn deliver_received(
        &self,
        plan: &NetPlan,
        round: usize,
        received: Vec<ReceivedUpdate>,
        state: &mut RunState,
        net: &mut NetCounters,
        tracer: &Tracer,
    ) -> Vec<ReceivedUpdate> {
        let mut courier = Courier::new(plan, self.retry_policy, state.net_ticks);
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
            let payload = r.update.encode();
            let send_span = tracer.span(
                names::SEND_FRAME,
                vec![
                    ("round", Value::U64(round as u64)),
                    ("client", Value::U64(client as u64)),
                ],
            );
            let delivery = courier.deliver(round as u64, client as u64, seq, &payload);
            if tracer.enabled() {
                for outcome in &delivery.log {
                    match outcome {
                        AttemptOutcome::Acked => tracer.point(
                            names::ACK,
                            vec![
                                ("round", Value::U64(round as u64)),
                                ("client", Value::U64(client as u64)),
                                ("attempts", Value::U64(u64::from(delivery.attempts))),
                            ],
                        ),
                        AttemptOutcome::Delayed { .. } => {
                            // The `ack` point is emitted when the
                            // deferred delivery is merged, rounds later.
                        }
                        failed => tracer.point(
                            names::RETRY,
                            vec![
                                ("round", Value::U64(round as u64)),
                                ("client", Value::U64(client as u64)),
                                ("reason", Value::Str(failed.label().to_string())),
                            ],
                        ),
                    }
                }
            }
            drop(send_span);
            match delivery.verdict {
                Verdict::Delivered { payload } => match wire::decode_update(&payload) {
                    Some(update) => out.push(ReceivedUpdate {
                        staleness: 0,
                        via_net: true,
                        update: Undiscounted::new(update),
                    }),
                    None => {
                        // An acknowledged frame whose payload fails to
                        // parse would be a codec defect; degrade to a
                        // dropout rather than poison or panic.
                        net.degraded = net.degraded.saturating_add(1);
                    }
                },
                Verdict::Delayed { rounds } => {
                    state.pending.push(PendingUpdate {
                        arrival_round: round + rounds,
                        staleness: rounds,
                        via_net: true,
                        update: r.update,
                    });
                }
                Verdict::Exhausted => {
                    // Degrades into the dropout machinery: the round has
                    // one fewer fresh upload and quorum decides the rest.
                }
            }
        }
        net.merge(&courier.counters());
        state.net_ticks = courier.ticks();
        out
    }

    /// Run the loop and also return the final global model.
    pub fn run_returning_model(&self, algo: &mut dyn FederatedAlgorithm) -> (History, Model) {
        let mut final_params: Vec<f32> = Vec::new();
        let history = self.run_with_observer(algo, |_, global| {
            final_params.clear();
            final_params.extend_from_slice(global);
        });
        let mut model = (self.factory)();
        model.set_params(&final_params);
        (history, model)
    }
}

/// Per-class `(correct, total)` counts of `model` over `dataset`: the one
/// pass every accuracy figure is read from.
///
/// Evaluation batches are contiguous row ranges of [`EVAL_BATCH`]
/// samples, spread in contiguous runs over up to `threads` workers (each
/// on its own model replica). The counts are integers added in
/// batch-index order, so they are identical for every thread count.
fn class_tally(model: &mut Model, dataset: &Dataset, threads: usize) -> Vec<(usize, usize)> {
    let classes = dataset.classes();
    let n_batches = dataset.len().div_ceil(EVAL_BATCH);
    let tally_batches = |model: &mut Model, b0: usize, b1: usize| {
        let mut tally = vec![(0usize, 0usize); classes];
        for b in b0..b1 {
            let end = ((b + 1) * EVAL_BATCH).min(dataset.len());
            let (x, y) = dataset.range_batch(b * EVAL_BATCH, end);
            for (p, &t) in model.predict(&x).iter().zip(y) {
                tally[t].0 += usize::from(*p == t);
                tally[t].1 += 1;
            }
        }
        tally
    };
    let threads = threads.clamp(1, n_batches.max(1));
    if threads <= 1 {
        return tally_batches(model, 0, n_batches);
    }
    let chunks = chunk_ranges(n_batches, threads);
    let model_ref: &Model = model;
    let partials = parallel_map(chunks.len(), threads, |ci| {
        let (b0, b1) = chunks[ci];
        tally_batches(&mut model_ref.clone(), b0, b1)
    });
    let mut tally = vec![(0usize, 0usize); classes];
    for partial in partials {
        for (acc, (c, t)) in tally.iter_mut().zip(partial) {
            acc.0 += c;
            acc.1 += t;
        }
    }
    tally
}

/// Overall accuracy from a [`class_tally`]: `Σ correct / n` (0 on an
/// empty dataset).
fn overall_accuracy(tally: &[(usize, usize)]) -> f64 {
    let (correct, n) = tally
        .iter()
        .fold((0usize, 0usize), |(c, n), &(ci, ni)| (c + ci, n + ni));
    if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    }
}

/// Per-class accuracy from a [`class_tally`] (classes with no test
/// samples report 0).
fn class_accuracies(tally: &[(usize, usize)]) -> Vec<f64> {
    tally
        .iter()
        .map(|&(c, t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
        .collect()
}

/// Overall accuracy of `model` on `dataset`, evaluated in batches.
pub fn evaluate_accuracy(model: &mut Model, dataset: &Dataset) -> f64 {
    evaluate_accuracy_threads(model, dataset, 1)
}

/// Like [`evaluate_accuracy`], but spreads the evaluation batches over up
/// to `threads` workers; bitwise identical for every thread count.
pub fn evaluate_accuracy_threads(model: &mut Model, dataset: &Dataset, threads: usize) -> f64 {
    overall_accuracy(&class_tally(model, dataset, threads))
}

/// Per-class accuracy of `model` on `dataset` (classes with no test
/// samples report 0).
pub fn per_class_accuracy(model: &mut Model, dataset: &Dataset) -> Vec<f64> {
    per_class_accuracy_threads(model, dataset, 1)
}

/// Like [`per_class_accuracy`], but batch-chunk parallel: the same tally
/// [`evaluate_accuracy_threads`] reads.
pub fn per_class_accuracy_threads(
    model: &mut Model,
    dataset: &Dataset,
    threads: usize,
) -> Vec<f64> {
    class_accuracies(&class_tally(model, dataset, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{server_step, uniform_average, RoundLog};
    use crate::client::{run_local_sgd, ClientUpdate, LocalSgdSpec};
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_faults::staleness_discount;
    use fedwcm_nn::loss::CrossEntropy;
    use fedwcm_nn::models::mlp;

    /// Minimal FedAvg used to exercise the engine (the real one lives in
    /// fedwcm-algos).
    struct TestFedAvg;

    impl FederatedAlgorithm for TestFedAvg {
        fn name(&self) -> String {
            "test-fedavg".into()
        }

        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            let spec = LocalSgdSpec {
                loss: &CrossEntropy,
                balanced_sampler: false,
                lr: env.cfg.local_lr,
                epochs: env.cfg.local_epochs,
            };
            run_local_sgd(env, global, &spec, |_, _, _| {})
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            let mut dir = vec![0.0f32; global.len()];
            uniform_average(&input.updates, &mut dir);
            server_step(global, &dir, input.cfg, input.mean_batches());
            RoundLog::default()
        }
    }

    fn build_sim<'a>(ds: &'a Dataset, test: &'a Dataset, cfg: FlConfig) -> Simulation<'a> {
        let part = paper_partition(ds, cfg.clients, 0.5, cfg.seed);
        let views = part.views(ds);
        Simulation::new(
            cfg,
            ds,
            test,
            views,
            Box::new(|| {
                let mut rng = Xoshiro256pp::seed_from(1234);
                mlp(64, &[32], 10, &mut rng)
            }),
        )
    }

    #[test]
    fn fedavg_learns_on_balanced_data() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 80, 1.0);
        let ds = spec.generate_train(&counts, 11);
        let test = spec.generate_test(11);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 8;
        cfg.participation = 0.5;
        cfg.rounds = 15;
        cfg.local_epochs = 2;
        cfg.batch_size = 20;
        cfg.eval_every = 5;
        let sim = build_sim(&ds, &test, cfg);
        let mut algo = TestFedAvg;
        let history = sim.run(&mut algo);
        let acc = history.final_accuracy(1);
        assert!(acc > 0.5, "final accuracy {acc}");
        assert_eq!(history.records.len(), 15);
    }

    #[test]
    fn run_is_deterministic() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 0.5);
        let ds = spec.generate_train(&counts, 12);
        let test = spec.generate_test(12);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.4;
        cfg.rounds = 4;
        cfg.eval_every = 2;
        let sim = build_sim(&ds, &test, cfg.clone());
        let h1 = sim.run(&mut TestFedAvg);
        let h2 = sim.run(&mut TestFedAvg);
        for (a, b) in h1.records.iter().zip(&h2.records) {
            assert_eq!(a.test_acc, b.test_acc);
            assert_eq!(a.train_loss, b.train_loss);
        }
    }

    #[test]
    fn sampled_clients_deterministic_and_bounded() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 1.0);
        let ds = spec.generate_train(&counts, 13);
        let test = spec.generate_test(13);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 10;
        cfg.participation = 0.3;
        let sim = build_sim(&ds, &test, cfg);
        let s1 = sim.sampled_clients(5);
        let s2 = sim.sampled_clients(5);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 3);
        assert!(s1.iter().all(|&c| c < 10));
        assert_ne!(sim.sampled_clients(0), sim.sampled_clients(1));
    }

    /// FedAvg variant that poisons a specific client's update with NaN —
    /// failure injection for the engine's containment path.
    struct PoisonedFedAvg {
        poisoned_client: usize,
    }

    impl FederatedAlgorithm for PoisonedFedAvg {
        fn name(&self) -> String {
            "poisoned-fedavg".into()
        }

        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            let spec = LocalSgdSpec {
                loss: &CrossEntropy,
                balanced_sampler: false,
                lr: env.cfg.local_lr,
                epochs: env.cfg.local_epochs,
            };
            let mut upd = run_local_sgd(env, global, &spec, |_, _, _| {});
            if env.id == self.poisoned_client {
                upd.delta[0] = f32::NAN;
            }
            upd
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            let mut dir = vec![0.0f32; global.len()];
            uniform_average(&input.updates, &mut dir);
            server_step(global, &dir, input.cfg, input.mean_batches());
            RoundLog::default()
        }
    }

    // Containment (silently dropping poisoned updates) is the release
    // behaviour; debug_invariants builds panic at the aggregation
    // boundary instead, which crates/fl/tests/nan_injection.rs covers.
    #[cfg(not(feature = "debug_invariants"))]
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
        let mut algo = PoisonedFedAvg { poisoned_client: 2 };
        let h = sim.run(&mut algo);
        // Every round drops exactly the poisoned client and still trains.
        for r in &h.records {
            assert_eq!(r.dropped_updates, 1, "round {}", r.round);
            assert!(r.train_loss.expect("healthy clients reported").is_finite());
            assert!(r.update_norm > 0.0);
        }
        // The global model never absorbed a NaN.
        let acc = h.final_accuracy(1);
        assert!(acc > 0.1, "model destroyed by poison: {acc}");
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

    #[cfg(not(feature = "debug_invariants"))]
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

    #[test]
    fn thread_count_is_bitwise_invisible() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 0.5);
        let ds = spec.generate_train(&counts, 21);
        let test = spec.generate_test(21);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.6;
        cfg.rounds = 3;
        cfg.eval_every = 1;
        cfg.threads = 1;
        let h1 = build_sim(&ds, &test, cfg.clone()).run(&mut TestFedAvg);
        cfg.threads = 4;
        let h4 = build_sim(&ds, &test, cfg).run(&mut TestFedAvg);
        assert_eq!(h1.records.len(), h4.records.len());
        for (a, b) in h1.records.iter().zip(&h4.records) {
            assert_eq!(
                a.train_loss.map(f64::to_bits),
                b.train_loss.map(f64::to_bits),
                "round {}",
                a.round
            );
            assert_eq!(
                a.update_norm.to_bits(),
                b.update_norm.to_bits(),
                "round {}",
                a.round
            );
            assert_eq!(
                a.test_acc.map(f64::to_bits),
                b.test_acc.map(f64::to_bits),
                "round {}",
                a.round
            );
        }
    }

    #[test]
    fn parallel_eval_matches_sequential() {
        let spec = DatasetPreset::FashionMnist.spec();
        let test = spec.generate_test(22);
        let mut rng = Xoshiro256pp::seed_from(9);
        let mut model = mlp(64, &[16], 10, &mut rng);
        let gold_acc = evaluate_accuracy_threads(&mut model, &test, 1);
        let gold_pc = per_class_accuracy_threads(&mut model, &test, 1);
        for threads in [2, 3, 8] {
            let acc = evaluate_accuracy_threads(&mut model, &test, threads);
            assert_eq!(acc.to_bits(), gold_acc.to_bits(), "threads={threads}");
            let pc = per_class_accuracy_threads(&mut model, &test, threads);
            let gold_bits: Vec<u64> = gold_pc.iter().map(|v| v.to_bits()).collect();
            let bits: Vec<u64> = pc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, gold_bits, "threads={threads}");
        }
    }

    /// Both public evaluators read one integer tally: overall accuracy is
    /// `Σ correct / n` and the per-class vector is what a gather-and-count
    /// loop over the same batches gives, at 1 and 3 threads, with a class
    /// that has no test samples reporting 0.
    #[test]
    fn both_evaluators_read_one_tally() {
        let spec = DatasetPreset::FashionMnist.spec();
        let full = spec.generate_test(23);
        let kept: Vec<usize> = (0..full.len()).filter(|&i| full.label(i) != 3).collect();
        let (x, y) = full.gather(&kept);
        let test = Dataset::new(x, y, 10);
        assert!(
            test.len() > 2 * EVAL_BATCH,
            "several batches, a ragged last"
        );
        let mut rng = Xoshiro256pp::seed_from(9);
        let mut model = mlp(64, &[16], 10, &mut rng);

        let (mut correct, mut total) = (vec![0usize; 10], vec![0usize; 10]);
        for start in (0..test.len()).step_by(EVAL_BATCH) {
            let idx: Vec<usize> = (start..(start + EVAL_BATCH).min(test.len())).collect();
            let (x, y) = test.gather(&idx);
            for (p, t) in model.predict(&x).into_iter().zip(y) {
                total[t] += 1;
                correct[t] += usize::from(p == t);
            }
        }
        assert_eq!(total[3], 0);
        let overall = correct.iter().sum::<usize>() as f64 / test.len() as f64;
        let per_class: Vec<u64> = correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
            .map(f64::to_bits)
            .collect();

        for threads in [1, 3] {
            let tally = class_tally(&mut model, &test, threads);
            let counts: (Vec<usize>, Vec<usize>) = tally.iter().copied().unzip();
            assert_eq!(
                counts,
                (correct.clone(), total.clone()),
                "threads={threads}"
            );
            let acc = evaluate_accuracy_threads(&mut model, &test, threads);
            assert_eq!(acc.to_bits(), overall.to_bits(), "threads={threads}");
            let pc = per_class_accuracy_threads(&mut model, &test, threads);
            let bits: Vec<u64> = pc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, per_class, "threads={threads}");
            assert_eq!(pc[3], 0.0);
        }
    }

    fn pending_update(client: usize, staleness: usize, delta: Vec<f32>) -> PendingUpdate {
        PendingUpdate {
            arrival_round: 0,
            staleness,
            via_net: false,
            update: Undiscounted::new(ClientUpdate {
                client,
                delta,
                num_samples: 10,
                num_batches: 2,
                avg_loss: 1.5,
                extra: None,
            }),
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
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

    /// Regression for the replay-cache bug: the cache used to store the
    /// *discounted* delta of a late merge, so a later replay compounded
    /// the staleness penalty. The cache must hold the upload at its
    /// original strength.
    #[test]
    fn replay_cache_holds_undiscounted_late_delta() {
        use fedwcm_faults::FaultConfig;
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 1.0);
        let ds = spec.generate_train(&counts, 32);
        let test = spec.generate_test(32);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 5;
        cfg.participation = 0.4;
        cfg.rounds = 2;
        let plan = FaultPlan::new(FaultConfig {
            replay: 0.3,
            ..FaultConfig::zero(9)
        });
        let sim = build_sim(&ds, &test, cfg).with_fault_plan(plan.clone());
        let algo = TestFedAvg;
        let mut state = sim.fresh_state(&algo);
        assert_eq!(state.replay_cache.len(), 5, "replay plan maintains a cache");
        let delta: Vec<f32> = (0..state.global.len()).map(|i| 0.5 + i as f32).collect();
        state.pending.push(pending_update(3, 2, delta.clone()));

        let mut faults = RoundFaults::default();
        let tracer = Tracer::disabled();
        let received = sim.apply_faults(&plan, 0, Vec::new(), &mut state, &mut faults, &tracer);
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].staleness, 2);
        assert_eq!(faults.late_merged, 1);
        assert_eq!(
            bits(received[0].update.delta()),
            bits(&delta),
            "received delta is undiscounted until application"
        );
        let cached = state.replay_cache[3].as_ref().expect("late merge cached");
        assert_eq!(
            bits(cached),
            bits(&delta),
            "cache must hold the pre-discount delta"
        );
    }

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
            let spec = LocalSgdSpec {
                loss: &CrossEntropy,
                balanced_sampler: false,
                lr: env.cfg.local_lr,
                epochs: env.cfg.local_epochs,
            };
            run_local_sgd(env, global, &spec, |_, _, _| {})
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            self.captured.push(input.updates.clone());
            let mut dir = vec![0.0f32; global.len()];
            uniform_average(&input.updates, &mut dir);
            server_step(global, &dir, input.cfg, input.mean_batches());
            RoundLog::default()
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

    #[test]
    fn per_class_accuracy_shapes() {
        let spec = DatasetPreset::FashionMnist.spec();
        let test = spec.generate_test(14);
        let mut rng = Xoshiro256pp::seed_from(7);
        let mut model = mlp(64, &[16], 10, &mut rng);
        let pc = per_class_accuracy(&mut model, &test);
        assert_eq!(pc.len(), 10);
        let overall = evaluate_accuracy(&mut model, &test);
        let mean_pc: f64 = pc.iter().sum::<f64>() / 10.0;
        // Balanced test set ⇒ overall equals the mean per-class accuracy.
        assert!((overall - mean_pc).abs() < 1e-9);
    }
}
