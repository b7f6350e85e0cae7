//! The engine's per-client fixed cost is a copy, not a build: the user's
//! factory runs once per `Simulation`, and a run trains its clients in
//! buffer sets it owns, one per outer worker. These tests pin what that
//! must never cost — a bit of any history, whatever a set held before,
//! whichever worker drew it, and whichever simulation used the pool
//! threads last.

use fedwcm_suite::algos::{FedDyn, FedLesam};
use fedwcm_suite::fl::algorithm::{RoundInput, RoundLog, StateError};
use fedwcm_suite::fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_suite::nn::dense::Dense;
use fedwcm_suite::nn::layer::Tanh;
use fedwcm_suite::nn::loss::CrossEntropy;
use fedwcm_suite::nn::models::mlp;
use fedwcm_suite::nn::Model;
use fedwcm_suite::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Twelve clients, six sampled a round: more clients than workers at
/// three threads, so buffer sets cross clients in scheduling order.
fn task(seed: u64, threads: usize) -> (Dataset, Dataset, FlConfig) {
    let spec = DatasetPreset::FashionMnist.spec();
    let train = spec.generate_train(&longtail_counts(10, 60, 0.2), seed);
    let test = spec.generate_test(seed);
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 12;
    cfg.participation = 0.5;
    cfg.rounds = 3;
    cfg.local_epochs = 2;
    cfg.batch_size = 16;
    cfg.eval_every = 1;
    cfg.seed = seed;
    cfg.threads = threads;
    (train, test, cfg)
}

fn relu_mlp() -> Model {
    mlp(64, &[16], 10, &mut Xoshiro256pp::seed_from(31337))
}

/// Same parameter count as [`relu_mlp`] (1,210), another architecture.
fn tanh_mlp() -> Model {
    let layers: Vec<Box<dyn fedwcm_suite::nn::Layer>> = vec![
        Box::new(Dense::new(64, 16)),
        Box::new(Tanh::new()),
        Box::new(Dense::new(16, 10)),
    ];
    Model::new(layers, 64, &mut Xoshiro256pp::seed_from(31337))
}

fn sim<'a>(
    train: &'a Dataset,
    test: &'a Dataset,
    cfg: &FlConfig,
    factory: impl Fn() -> Model + Send + Sync + 'static,
) -> Simulation<'a> {
    let views = paper_partition(train, cfg.clients, 0.3, cfg.seed).views(train);
    Simulation::new(cfg.clone(), train, test, views, Box::new(factory))
}

/// Methods whose local steps differ in kind: plain, momentum blend,
/// FedWCM's, control variates, a dynamic regulariser, and three step
/// hooks — a SAM ascent along the global direction, FedGrab's row
/// balancer, BalanceFL's inherited logits under the balanced sampler.
fn methods(train: &Dataset, clients: usize) -> Vec<Box<dyn FederatedAlgorithm>> {
    vec![
        Box::new(FedAvg::new()),
        Box::new(FedCm::new(0.1)),
        Box::new(FedWcm::new()),
        Box::new(Scaffold::new(clients)),
        Box::new(FedDyn::new(0.01, clients)),
        Box::new(FedLesam::new(0.05)),
        Box::new(FedGrab::new(train.class_counts())),
        Box::new(BalanceFl::new()),
    ]
}

#[test]
fn the_factory_runs_once_per_simulation() {
    for threads in [1, 3] {
        let (train, test, cfg) = task(2101, threads);
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let s = sim(&train, &test, &cfg, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            relu_mlp()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "Simulation::new builds");

        let whole = s.run(&mut FedCm::new(0.1));
        assert_eq!(whole.records.len(), 3);
        let ckpt = s
            .run_until(&mut FedCm::new(0.1), 2)
            .expect("FedCM captures its state");
        let resumed = s
            .resume(&mut FedCm::new(0.1), &ckpt)
            .expect("the checkpoint is this simulation's");
        assert_eq!(resumed.records, whole.records);
        let (_, model) = s.run_returning_model(&mut FedAvg::new());
        assert_eq!(model.param_len(), relu_mlp().param_len());
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "threads={threads}: runs, resume and the returned model clone the prototype"
        );
    }
}

/// Before every real client, trains a throw-away client on the same
/// worker whose last step poisons the gradient — and through the SGD step
/// the parameters — with NaN: the retained buffers the real client draws
/// next are as dirty as they can be.
struct DirtyFirst(Box<dyn FederatedAlgorithm>);

impl FederatedAlgorithm for DirtyFirst {
    fn name(&self) -> String {
        self.0.name()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: 1,
        };
        let last = env.batches_per_epoch() - 1;
        let dirty = run_local_sgd(env, global, &spec, |grad, _, step| {
            if step == last {
                grad.fill(f32::NAN);
            }
        });
        assert!(dirty.delta.iter().all(|d| d.is_nan()), "the poison took");
        self.0.local_train(env, global)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        self.0.aggregate(global, input)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.0.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.0.load_state(bytes)
    }
}

#[test]
fn histories_do_not_depend_on_buffer_history_or_thread_count() {
    let clean: Vec<Vec<_>> = {
        let (train, test, cfg) = task(2102, 1);
        let s = sim(&train, &test, &cfg, relu_mlp);
        methods(&train, cfg.clients)
            .into_iter()
            .map(|mut algo| s.run(algo.as_mut()).records)
            .collect()
    };
    for threads in [1, 3] {
        let (train, test, cfg) = task(2102, threads);
        let s = sim(&train, &test, &cfg, relu_mlp);
        for (algo, clean) in methods(&train, cfg.clients).into_iter().zip(&clean) {
            let name = algo.name();
            let mut algo = algo;
            assert_eq!(
                &s.run(algo.as_mut()).records,
                clean,
                "{name}: threads={threads} differs from one thread"
            );
        }
        for (algo, clean) in methods(&train, cfg.clients).into_iter().zip(&clean) {
            let name = algo.name();
            assert_eq!(
                &s.run(&mut DirtyFirst(algo)).records,
                clean,
                "{name}: threads={threads}, NaN-filled buffers changed the history"
            );
        }
    }
}

#[test]
fn equal_sized_architectures_do_not_share_buffers_across_simulations() {
    assert_eq!(relu_mlp().param_len(), tanh_mlp().param_len());
    let (train, test, cfg) = task(2103, 3);
    let relu = sim(&train, &test, &cfg, relu_mlp);
    let tanh = sim(&train, &test, &cfg, tanh_mlp);
    let solo_relu = relu.run(&mut FedWcm::new()).records;
    let solo_tanh = tanh.run(&mut FedWcm::new()).records;
    assert_ne!(solo_relu, solo_tanh, "the architectures train differently");
    // Back to back on the same pool threads, in both orders.
    for _ in 0..2 {
        assert_eq!(relu.run(&mut FedWcm::new()).records, solo_relu);
        assert_eq!(tanh.run(&mut FedWcm::new()).records, solo_tanh);
    }
    assert_eq!(relu.run(&mut FedWcm::new()).records, solo_relu);
}
