//! The one harness behind `fedwcm-fl`'s integration tests: two small
//! state-capturing algorithms, a federated task, busy fault and network
//! plans, and **one** bitwise comparison of histories.
//!
//! Not part of any crate's API: each test file pulls it in with
//! `mod support;`.

#![allow(dead_code)]

use fedwcm_data::dataset::Dataset;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::algorithm::{
    average_step, server_step, uniform_average, RoundInput, RoundLog, StateError,
};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_fl::{FederatedAlgorithm, FlConfig, History, NetConfig, Simulation};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;

/// Plain local SGD on cross-entropy: the client half of every algorithm
/// here.
pub fn plain_sgd(env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
    let spec = LocalSgdSpec {
        loss: &CrossEntropy,
        balanced_sampler: false,
        lr: env.cfg.local_lr,
        epochs: env.cfg.local_epochs,
    };
    run_local_sgd(env, global, &spec, |_, _, _| {})
}

/// Momentum-carrying test algorithm (FedCM-shaped): a server momentum
/// buffer is its whole cross-round state, so a resume that silently
/// reset it — or any cadence bug — diverges from the uninterrupted run
/// immediately.
pub struct MiniMomentum {
    beta: f32,
    momentum: Vec<f32>,
}

impl MiniMomentum {
    pub fn new() -> Self {
        MiniMomentum {
            beta: 0.7,
            momentum: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for MiniMomentum {
    fn name(&self) -> String {
        "mini-momentum".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        plain_sgd(env, global)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }
        let mut dir = vec![0.0f32; global.len()];
        uniform_average(&input.updates, &mut dir);
        for (m, d) in self.momentum.iter_mut().zip(&dir) {
            *m = self.beta * *m + (1.0 - self.beta) * d;
        }
        let step = self.momentum.clone();
        server_step(global, &step, input.cfg, input.mean_batches());
        RoundLog::default()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.momentum.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.momentum = decode_state(bytes)?;
        Ok(())
    }
}

/// Minimal FedAvg with state capture — the real one lives in
/// `fedwcm-algos`, which `fedwcm-fl` cannot depend on. The golden FWCK
/// CRC in `properties.rs` is taken over a run of this algorithm, whose
/// state is an empty `Vec<f32>` (8 bytes), not `()`.
pub struct StubAvg;

impl FederatedAlgorithm for StubAvg {
    fn name(&self) -> String {
        "stub-avg".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        plain_sgd(env, global)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut Vec::new())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::<f32>::new().encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        decode_state::<Vec<f32>>(bytes)?;
        Ok(())
    }
}

/// A long-tailed FashionMnist-preset task and its balanced test set.
pub fn make_data(seed: u64) -> (Dataset, Dataset) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 60, 0.5);
    (spec.generate_train(&counts, seed), spec.generate_test(seed))
}

/// 6 clients at 0.5 participation: a 3-client cohort per round.
pub fn make_cfg(rounds: usize) -> FlConfig {
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 6;
    cfg.participation = 0.5;
    cfg.rounds = rounds;
    cfg.local_epochs = 1;
    cfg.batch_size = 20;
    cfg.eval_every = 2;
    cfg.seed = 77;
    cfg
}

/// A simulation over the paper partition of `train` with a small MLP.
pub fn build_sim<'a>(train: &'a Dataset, test: &'a Dataset, cfg: FlConfig) -> Simulation<'a> {
    let views = paper_partition(train, cfg.clients, 0.5, cfg.seed).views(train);
    Simulation::new(
        cfg,
        train,
        test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(4242);
            mlp(64, &[24], 10, &mut rng)
        }),
    )
}

/// A fault plan that exercises every fault type at once.
pub fn busy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        dropout: 0.2,
        straggler: 0.2,
        max_delay: 3,
        corruption: 0.1,
        replay: 0.1,
        ..FaultConfig::zero(seed)
    })
}

/// A network plan configuration that exercises every frame fault.
pub fn lossy_cfg(seed: u64) -> NetConfig {
    NetConfig {
        drop: 0.2,
        corrupt: 0.15,
        duplicate: 0.05,
        reorder: 0.05,
        delay: 0.1,
        max_delay_rounds: 2,
        ..NetConfig::zero(seed)
    }
}

/// Panics unless the two histories have equal records (`RoundRecord`'s
/// `==`: the same codec bytes) and metrics snapshots.
pub fn assert_bitwise_eq(a: &History, b: &History, label: &str) {
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics snapshot");
}
