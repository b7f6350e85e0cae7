//! The simulation round loop: one round is one pass through six stages,
//! plain functions connected by two currencies — `ReceivedUpdate` (an
//! upload the server holds, still undiscounted) and `admit::Admission`
//! (what the cadence decided).
//!
//! | stage | takes | returns |
//! |---|---|---|
//! | `train` | sampled ids, global model | a `ClientUpdate` per id, in id order |
//! | `perturb` | those, `Option<&FaultPlan>`, each client's last replay round | `ReceivedUpdate`s: faulted, late ones merged, id-sorted |
//! | `deliver` | those, `Option<&NetPlan>` | what crossed the wire (the rest parked or lost) |
//! | `admit` | those, the `Cadence` | `Skip` or `Apply { batches, scale }`, past the filter |
//! | `apply` | the admission | the moved global model; loss, norm, α in the record |
//! | `evaluate` | the global model | test accuracy, on evaluation rounds |
//!
//! "No plan" is the empty plan, not another path. This module holds
//! what the stages share and `drive`, the list of stage calls.

mod admit;
mod apply;
mod deliver;
mod evaluate;
mod perturb;
mod train;

pub use crate::observe::Observability;
pub(crate) use crate::observe::RoundCtx;
pub(crate) use admit::BufferedUpdate;
pub use evaluate::{evaluate_accuracy_threads, per_class_accuracy_threads};
pub(crate) use perturb::{PendingUpdate, ReceivedUpdate};
pub use train::sampled_clients_for;

use crate::algorithm::FederatedAlgorithm;
use crate::checkpoint::{CheckpointError, ServerCheckpoint};
use crate::client::ModelFactory;
use crate::config::FlConfig;
use crate::metrics::{History, RoundRecord};
use fedwcm_data::dataset::{ClientView, Dataset};
use fedwcm_faults::FaultPlan;
use fedwcm_nn::model::Model;
use fedwcm_trace::{MetricsRegistry, Name, Tracer, Value};
use fedwcm_transport::NetPlan;
use std::sync::Arc;

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
    /// Aggregation buffer (insertion order; always empty under sync).
    pub(crate) agg_buffer: Vec<BufferedUpdate>,
    /// Per-client last received upload, held only while a later round
    /// replays the client; empty unless replays can occur.
    pub(crate) replay_cache: Vec<Option<Vec<f32>>>,
    /// Transport logical-clock position (0 without a network plan);
    /// checkpointed so a resumed run continues the same tick sequence.
    pub(crate) net_ticks: u64,
}

/// A configured federated simulation: data, partition views, model
/// factory, hyper-parameters and optional fault and network plans. Run
/// any [`FederatedAlgorithm`] on it.
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
    /// by calling the user's factory once (a clone carries no layer
    /// cache, because the prototype is never run forward).
    pub factory: Box<ModelFactory>,
    /// Client-fault plan applied between training and aggregation.
    /// `None` and any zero-rate plan reproduce the fault-free trajectory
    /// bit for bit: a plan draws only from its own RNG streams.
    pub fault_plan: Option<FaultPlan>,
    /// Frame-level network fault plan: when set and not all-zero,
    /// uploads cross the lossy wire transport (exhausted retries become
    /// dropouts, delays stragglers). `None` and any zero-rate plan
    /// reproduce the direct-call trajectory bit for bit.
    pub net_plan: Option<NetPlan>,
    /// Tracing and metrics attachments (off by default).
    pub obs: Observability,
}

impl<'a> Simulation<'a> {
    /// Build a simulation; validates `cfg` against the partition.
    /// `factory` is called exactly once, here: clients, evaluation and
    /// [`Simulation::run_returning_model`] receive clones of its model.
    pub fn new(
        cfg: FlConfig,
        train: &'a Dataset,
        test: &'a Dataset,
        views: Vec<ClientView>,
        factory: Box<ModelFactory>,
    ) -> Self {
        cfg.validate();
        assert_eq!(views.len(), cfg.clients, "one view per client");
        assert!(views.iter().all(|v| !v.is_empty()), "empty client view");
        let prototype = factory();
        Simulation {
            cfg,
            train,
            test,
            views,
            factory: Box::new(move || prototype.clone()),
            fault_plan: None,
            net_plan: None,
            obs: Observability::default(),
        }
    }

    /// Attach a fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attach a network fault plan (builder style); zero-rate is a no-op.
    pub fn with_net_plan(mut self, plan: NetPlan) -> Self {
        self.net_plan = Some(plan);
        self
    }

    /// Attach a tracer (builder style): a [`fedwcm_trace::LogicalClock`]
    /// for deterministic traces, a [`fedwcm_trace::WallClock`] for timings.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.obs.tracer = tracer;
        self
    }

    /// Attach a metrics registry (builder style); see [`History::metrics`].
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

    /// [`Simulation::run`], calling `observer(round, global)` with the
    /// post-aggregation parameters after every round — the hook of the
    /// neuron-concentration analysis (Figs. 4, 13–17).
    pub fn run_with_observer(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        mut observer: impl FnMut(usize, &[f32]),
    ) -> History {
        let mut state = self.fresh_state(algo);
        self.drive(algo, &mut state, self.cfg.rounds, &mut observer);
        state.history
    }

    /// Run the loop and also return the final global model.
    pub fn run_returning_model(&self, algo: &mut dyn FederatedAlgorithm) -> (History, Model) {
        let mut model = (self.factory)();
        let history = self.run_with_observer(algo, |_, global| model.set_params(global));
        (history, model)
    }

    /// Run rounds `0..stop_round` from a fresh start and checkpoint the
    /// server state. Fails if the algorithm does not implement
    /// [`FederatedAlgorithm::save_state`].
    pub fn run_until(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        stop_round: usize,
    ) -> Result<ServerCheckpoint, CheckpointError> {
        let mut state = self.fresh_state(algo);
        let stop = stop_round.min(self.cfg.rounds);
        self.drive(algo, &mut state, stop, &mut |_, _| {});
        let _g = self.obs.tracer.span(
            Name::CHECKPOINT,
            vec![("round", Value::U64(state.next_round as u64))],
        );
        ServerCheckpoint::capture(self, algo, state)
    }

    /// Resume from a [`Simulation::run_until`] checkpoint (possibly in
    /// another process — it round-trips through bytes) and drive to
    /// `cfg.rounds`. The history covers the **whole** run and is bitwise
    /// identical to an uninterrupted run's.
    pub fn resume(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        ckpt: &ServerCheckpoint,
    ) -> Result<History, CheckpointError> {
        self.resume_with_observer(algo, ckpt, |_, _| {})
    }

    /// [`Simulation::resume`] with an observer over the resumed rounds.
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
        let replays = self.fault_plan.as_ref().is_some_and(|p| p.has_replay());
        RunState {
            next_round: 0,
            global: (self.factory)().params().to_vec(),
            history: History::new(algo.name()),
            pending: Vec::new(),
            agg_buffer: Vec::new(),
            replay_cache: vec![None; if replays { self.cfg.clients } else { 0 }],
            net_ticks: 0,
        }
    }

    /// Execute rounds `state.next_round..until_round`: each is one pass
    /// through the stages, every stage writing its columns of the record.
    fn drive(
        &self,
        algo: &mut dyn FederatedAlgorithm,
        state: &mut RunState,
        until_round: usize,
        observer: &mut dyn FnMut(usize, &[f32]),
    ) {
        let mut model = (self.factory)();
        let threads = self.cfg.resolved_threads();
        let workers = train::Workers::new(self, threads);
        let fault_plan = self.fault_plan.as_ref();
        let last_replay = perturb::last_replays(&self.cfg, fault_plan);
        // `None` when absent *or* all-zero: both skip the transport alike.
        let net_plan = self.net_plan.as_ref().filter(|p| !p.is_zero());

        while state.next_round < until_round {
            let round = state.next_round;
            let sampled = self.sampled_clients(round);
            let ctx = RoundCtx::open(round, sampled.len(), &self.obs);
            let mut record = RoundRecord {
                round,
                ..RoundRecord::default()
            };

            let updates = train::train(self, &ctx, &workers, &*algo, &state.global, &sampled);
            let received = perturb::perturb(
                fault_plan,
                &last_replay,
                &ctx,
                updates,
                state,
                &mut record.faults,
            );
            let arrived = deliver::deliver(net_plan, &ctx, received, state, &mut record.net);
            let admission = admit::admit(&self.cfg, &ctx, arrived, state, &mut record);
            apply::apply(self, &ctx, algo, state, admission, &mut record);
            // Evaluation cadence is a property of the round number alone:
            // a fully-dropped round still evaluates the unchanged model on
            // eval boundaries, so accuracy series keep their cadence.
            if (round + 1).is_multiple_of(self.cfg.eval_every) || round + 1 == self.cfg.rounds {
                let acc = evaluate::evaluate(&ctx, &mut model, &state.global, self.test, threads);
                record.test_acc = Some(acc);
            }

            state.history.records.push(record);
            observer(round, &state.global);
            ctx.close();
            state.next_round = round + 1;
        }

        // The run's metric state rides along in the history, so reports
        // and checkpoints see it without extra plumbing.
        if let Some(reg) = &self.obs.metrics {
            state.history.metrics = reg.snapshot();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algorithm::{average_step, RoundInput, RoundLog};
    use crate::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
    use crate::undiscounted::Undiscounted;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_nn::loss::CrossEntropy;
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::rng::Xoshiro256pp;

    /// Plain local SGD on cross-entropy: the client half of every test
    /// algorithm in the stage files.
    pub(crate) fn plain_sgd(env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        run_local_sgd(env, global, &spec, |_, _, _| {})
    }

    /// Minimal FedAvg used to exercise the engine (the real one lives in
    /// fedwcm-algos).
    pub(super) struct TestFedAvg;

    impl FederatedAlgorithm for TestFedAvg {
        fn name(&self) -> String {
            "test-fedavg".into()
        }

        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            plain_sgd(env, global)
        }

        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            average_step(global, input, &mut Vec::new())
        }
    }

    pub(crate) fn build_sim<'a>(
        ds: &'a Dataset,
        test: &'a Dataset,
        cfg: FlConfig,
    ) -> Simulation<'a> {
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

    /// A context for calling one stage directly: untraced, unmetered.
    pub(super) fn bare_ctx(round: usize, sampled_len: usize) -> RoundCtx<'static> {
        static OFF: std::sync::OnceLock<Observability> = std::sync::OnceLock::new();
        RoundCtx::open(round, sampled_len, OFF.get_or_init(Observability::default))
    }

    pub(super) fn pending_update(
        client: usize,
        staleness: usize,
        delta: Vec<f32>,
    ) -> PendingUpdate {
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

    pub(super) fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
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
        assert_eq!(h1.records, h2.records);
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
        assert_eq!(h1.records, h4.records);
    }
}
