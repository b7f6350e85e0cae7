//! Integration tests for the pluggable aggregation cadences:
//!
//! * buffered-K with `K` = the full cohort is bitwise identical to the
//!   synchronous barrier on a fault-free run;
//! * buffered-K and fully-async runs are bitwise deterministic across
//!   thread counts, faults included;
//! * a buffered/async run killed mid-stream resumes bitwise identically
//!   through FWCK bytes, aggregation buffer included;
//! * resuming a checkpoint under a different cadence is refused.

use fedwcm_data::dataset::Dataset;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::algorithm::{
    server_step, state_from_vec, state_to_vec, uniform_average, RoundInput, RoundLog, StateError,
};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::{
    Cadence, CheckpointError, FederatedAlgorithm, FlConfig, History, ServerCheckpoint, Simulation,
};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;

/// Momentum-carrying test algorithm (FedCM-shaped): cross-round server
/// state makes any resume or cadence bug visible immediately.
struct MiniMomentum {
    beta: f32,
    momentum: Vec<f32>,
}

impl MiniMomentum {
    fn new() -> Self {
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
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        run_local_sgd(env, global, &spec, |_, _, _| {})
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
        Some(state_from_vec(&self.momentum))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.momentum = state_to_vec(bytes)?;
        Ok(())
    }
}

fn make_data(seed: u64) -> (Dataset, Dataset) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 60, 0.5);
    (spec.generate_train(&counts, seed), spec.generate_test(seed))
}

/// 6 clients at 0.5 participation: a 3-client cohort per round.
fn make_cfg(rounds: usize, cadence: Cadence) -> FlConfig {
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 6;
    cfg.participation = 0.5;
    cfg.rounds = rounds;
    cfg.local_epochs = 1;
    cfg.batch_size = 20;
    cfg.eval_every = 2;
    cfg.seed = 77;
    cfg.cadence = cadence;
    cfg
}

fn build_sim<'a>(train: &'a Dataset, test: &'a Dataset, cfg: FlConfig) -> Simulation<'a> {
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

fn busy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        dropout: 0.2,
        straggler: 0.2,
        max_delay: 3,
        corruption: 0.1,
        replay: 0.1,
        ..FaultConfig::zero(seed)
    })
}

fn assert_bitwise_eq(a: &History, b: &History, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: round counts");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.round, y.round, "{label}");
        assert_eq!(
            x.train_loss.map(f64::to_bits),
            y.train_loss.map(f64::to_bits),
            "{label}: round {} train_loss",
            x.round
        );
        assert_eq!(
            x.update_norm.to_bits(),
            y.update_norm.to_bits(),
            "{label}: round {} update_norm",
            x.round
        );
        assert_eq!(
            x.test_acc.map(f64::to_bits),
            y.test_acc.map(f64::to_bits),
            "{label}: round {} test_acc",
            x.round
        );
        assert_eq!(
            x.alpha.map(f64::to_bits),
            y.alpha.map(f64::to_bits),
            "{label}: round {} alpha",
            x.round
        );
        assert_eq!(x.aggregations, y.aggregations, "{label}: round {}", x.round);
        assert_eq!(x.dropped_updates, y.dropped_updates, "{label}");
        assert_eq!(x.faults, y.faults, "{label}: round {} faults", x.round);
    }
}

/// With `K` = the cohort size and no faults, every round buffers exactly
/// one cohort and flushes it whole: the same updates reach the algorithm
/// in the same order with zero staleness, so the trajectory is bitwise
/// the synchronous one.
#[test]
fn buffered_full_cohort_matches_sync_bitwise() {
    let (train, test) = make_data(201);
    let sync = build_sim(&train, &test, make_cfg(6, Cadence::Sync)).run(&mut MiniMomentum::new());
    let buffered = build_sim(&train, &test, make_cfg(6, Cadence::BufferedK { k: 3 }))
        .run(&mut MiniMomentum::new());
    assert_bitwise_eq(&sync, &buffered, "buffered:3 vs sync");
    assert!(sync.records.iter().all(|r| r.aggregations == 1));
}

/// Buffered and async runs — under a plan exercising every fault type —
/// must not depend on the worker thread count.
#[test]
fn buffered_and_async_deterministic_across_threads() {
    let (train, test) = make_data(202);
    for cadence in [
        Cadence::BufferedK { k: 4 },
        Cadence::Async { max_in_flight: 2 },
    ] {
        let mut histories = Vec::new();
        for threads in [1usize, 4] {
            let mut cfg = make_cfg(8, cadence);
            cfg.threads = threads;
            let h = build_sim(&train, &test, cfg)
                .with_fault_plan(busy_plan(0xFA))
                .run(&mut MiniMomentum::new());
            histories.push(h);
        }
        assert_bitwise_eq(
            &histories[0],
            &histories[1],
            &format!("{} threads 1 vs 4", cadence.label()),
        );
    }
}

/// Kill a buffered/async chaos run at round 3, round-trip the checkpoint
/// through FWCK bytes, and finish: the history must be bitwise the
/// uninterrupted run's. `k`/`max_in_flight` are chosen so the
/// aggregation buffer is non-empty at the kill point — the field this
/// exercises.
#[test]
fn buffered_and_async_resume_is_bitwise_identical() {
    let (train, test) = make_data(203);
    for cadence in [
        Cadence::BufferedK { k: 4 },
        Cadence::Async { max_in_flight: 2 },
    ] {
        let label = cadence.label();
        let cfg = make_cfg(8, cadence);
        let full = build_sim(&train, &test, cfg.clone())
            .with_fault_plan(busy_plan(0xC4))
            .run(&mut MiniMomentum::new());

        let sim = build_sim(&train, &test, cfg.clone()).with_fault_plan(busy_plan(0xC4));
        let ckpt = sim
            .run_until(&mut MiniMomentum::new(), 3)
            .unwrap_or_else(|e| panic!("{label}: checkpoint failed: {e}"));
        assert_eq!(ckpt.cadence(), cadence);
        let bytes = ckpt.to_bytes();
        let restored = ServerCheckpoint::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{label}: parse failed: {e}"));
        assert_eq!(
            restored.to_bytes(),
            bytes,
            "{label}: serialize → parse → serialize must be the identity"
        );

        let sim2 = build_sim(&train, &test, cfg).with_fault_plan(busy_plan(0xC4));
        let resumed = sim2
            .resume(&mut MiniMomentum::new(), &restored)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_bitwise_eq(&full, &resumed, &format!("{label}: full vs resumed"));
    }
}

/// The aggregation buffer's batch boundaries are cadence-dependent, so a
/// checkpoint must not silently resume under a different cadence.
#[test]
fn cadence_mismatch_on_resume_is_rejected() {
    let (train, test) = make_data(204);
    let ckpt = build_sim(&train, &test, make_cfg(6, Cadence::BufferedK { k: 4 }))
        .run_until(&mut MiniMomentum::new(), 2)
        .expect("checkpoint");
    let sync_sim = build_sim(&train, &test, make_cfg(6, Cadence::Sync));
    assert_eq!(
        sync_sim
            .resume(&mut MiniMomentum::new(), &ckpt)
            .expect_err("cadence mismatch must be refused"),
        CheckpointError::ConfigMismatch
    );
}

/// `max_in_flight` bounds the per-round application window: a cohort of
/// 3 against a window of 1 applies exactly one update per round and
/// carries the rest as backlog — and the run is still a run (the model
/// moves every round).
#[test]
fn async_window_rate_limits_applications() {
    let (train, test) = make_data(205);
    let h = build_sim(
        &train,
        &test,
        make_cfg(5, Cadence::Async { max_in_flight: 1 }),
    )
    .run(&mut MiniMomentum::new());
    for r in &h.records {
        assert_eq!(r.aggregations, 1, "round {}: window of 1", r.round);
        assert!(r.update_norm > 0.0, "round {}: model must move", r.round);
    }
}

/// A buffer threshold larger than the whole run's upload count never
/// flushes: no aggregation, no model movement — by design, not by crash.
#[test]
fn buffered_threshold_above_total_never_flushes() {
    let (train, test) = make_data(206);
    let h = build_sim(&train, &test, make_cfg(4, Cadence::BufferedK { k: 100 }))
        .run(&mut MiniMomentum::new());
    for r in &h.records {
        assert_eq!(r.aggregations, 0, "round {}", r.round);
        assert_eq!(r.update_norm, 0.0, "round {}", r.round);
    }
}
