//! Metrics survive checkpoint/resume: a run interrupted at round `r`
//! and resumed from the serialized checkpoint finishes with a metrics
//! snapshot identical to the uninterrupted run's. Counters, gauges, and
//! histograms all accumulate across the resume boundary because
//! [`ServerCheckpoint`] carries `History::metrics` (format v2) and
//! `restore` reloads it into the attached registry.
//!
//! The registry holds only what no `RoundRecord` column carries: wire
//! bytes, received uploads, the cadence buffer, tail and per-class
//! accuracy, and (under a `LogicalClock` tracer) phase ticks. All are
//! pure functions of the simulation and must round-trip exactly.

use fedwcm_data::dataset::Dataset;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::algorithm::{average_step, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_fl::{FederatedAlgorithm, FlConfig, NetConfig, NetPlan, ServerCheckpoint, Simulation};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_trace::{names, LogicalClock, MetricValue, MetricsRegistry, NullSink, Tracer};
use std::sync::Arc;

/// Minimal averaging algorithm with (trivial) state capture so
/// `run_until` can checkpoint it.
struct AvgWithState {
    rounds_seen: Vec<f32>,
}

impl AvgWithState {
    fn new() -> Self {
        AvgWithState {
            rounds_seen: vec![0.0],
        }
    }
}

impl FederatedAlgorithm for AvgWithState {
    fn name(&self) -> String {
        "avg-with-state".into()
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
        self.rounds_seen[0] += 1.0;
        average_step(global, input)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.rounds_seen.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.rounds_seen = decode_state(bytes)?;
        Ok(())
    }
}

fn make_data() -> (Dataset, Dataset) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 50, 0.5);
    (spec.generate_train(&counts, 55), spec.generate_test(55))
}

fn make_cfg() -> FlConfig {
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 6;
    cfg.participation = 0.5;
    cfg.rounds = 6;
    cfg.local_epochs = 1;
    cfg.batch_size = 20;
    cfg.eval_every = 2;
    cfg.seed = 33;
    cfg
}

/// A deterministic tracer whose events go nowhere: it only makes the
/// engine read the clock, so the `fl.phase.*` histograms fill.
fn logical_tracer() -> Tracer {
    Tracer::new(Box::new(LogicalClock::new()), Arc::new(NullSink))
}

fn build_sim<'a>(
    train: &'a Dataset,
    test: &'a Dataset,
    registry: Arc<MetricsRegistry>,
) -> Simulation<'a> {
    let cfg = make_cfg();
    let views = paper_partition(train, cfg.clients, 0.5, cfg.seed).views(train);
    Simulation::new(
        cfg,
        train,
        test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(808);
            mlp(64, &[16], 10, &mut rng)
        }),
    )
    .with_metrics(registry)
}

#[test]
fn resumed_metrics_equal_uninterrupted_metrics() {
    let (train, test) = make_data();

    // Uninterrupted run.
    let full_sim = build_sim(&train, &test, Arc::new(MetricsRegistry::new()));
    let full = full_sim.run(&mut AvgWithState::new());
    assert!(!full.metrics.is_empty(), "registry should have populated");

    // Interrupted at round 3, serialized through bytes, resumed in a
    // "fresh process": a new Simulation with a brand-new registry.
    let sim_a = build_sim(&train, &test, Arc::new(MetricsRegistry::new()));
    let ckpt = sim_a
        .run_until(&mut AvgWithState::new(), 3)
        .expect("capture");
    let bytes = ckpt.to_bytes();
    let restored = ServerCheckpoint::from_bytes(&bytes).expect("roundtrip");

    // The checkpoint carries the partial snapshot (3 of 6 rounds).
    let partial = restored.history().metrics.clone();
    // Three uploads a round, none lost.
    assert_eq!(
        partial.get(names::FL_UPDATES_RECEIVED),
        Some(&MetricValue::Counter(9))
    );

    let sim_b = build_sim(&train, &test, Arc::new(MetricsRegistry::new()));
    let resumed = sim_b
        .resume(&mut AvgWithState::new(), &restored)
        .expect("resume");

    assert_eq!(
        full.metrics, resumed.metrics,
        "metrics must accumulate across the resume boundary exactly"
    );
    assert_eq!(
        resumed.metrics.get(names::FL_UPDATES_RECEIVED),
        Some(&MetricValue::Counter(18))
    );
}

#[test]
fn checkpoint_bytes_roundtrip_preserves_metrics() {
    let (train, test) = make_data();
    let sim =
        build_sim(&train, &test, Arc::new(MetricsRegistry::new())).with_tracer(logical_tracer());
    let ckpt = sim.run_until(&mut AvgWithState::new(), 2).expect("capture");
    let restored = ServerCheckpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip");
    assert_eq!(
        ckpt.history().metrics,
        restored.history().metrics,
        "serialization must preserve the snapshot bitwise"
    );
    // Histograms survive with their full shape.
    let phase = restored
        .history()
        .metrics
        .get(names::FL_PHASE_AGGREGATE)
        .expect("aggregate-phase histogram");
    match phase {
        MetricValue::Histogram(h) => {
            assert_eq!(h.counts.len(), h.bounds.len() + 1);
            assert_eq!(h.total, 2, "one observation per aggregated round");
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn runs_without_registry_leave_metrics_empty() {
    let (train, test) = make_data();
    let cfg = make_cfg();
    let views = paper_partition(&train, cfg.clients, 0.5, cfg.seed).views(&train);
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(808);
            mlp(64, &[16], 10, &mut rng)
        }),
    );
    let h = sim.run(&mut AvgWithState::new());
    assert!(h.metrics.is_empty(), "no registry → no metrics");
}

/// The metrics no `RoundRecord` column carries: wire bytes, received
/// uploads, the cadence buffer, tail and per-class accuracy, phase ticks.
fn is_kept_metric(name: &str) -> bool {
    [
        names::FL_BYTES_UP,
        names::FL_BYTES_DOWN,
        names::FL_UPDATES_RECEIVED,
        names::FL_CADENCE_BUFFERED,
        names::FL_ACC_TAIL,
        names::FL_PHASE_LOCAL_TRAIN,
        names::FL_PHASE_AGGREGATE,
        names::FL_PHASE_EVALUATE,
        names::FL_ROUND_TICKS,
    ]
    .contains(&name)
        || name.starts_with(names::FL_ACC_CLASS_PREFIX)
}

/// One ledger per round: on a Sync chaos run at quorum 0.5 — client
/// faults of every kind, a lossy wire, quorum-failed rounds that re-queue
/// their late arrivals — the registry holds only names no `RoundRecord`
/// column carries, and the resilience report's late merges are the
/// records' (a registry counter booked before the re-queue retracted
/// them once counted more).
#[test]
fn the_registry_restates_no_record_column() {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 30, 0.5);
    let train = spec.generate_train(&counts, 78);
    let test = spec.generate_test(78);
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 8;
    cfg.participation = 0.5;
    cfg.rounds = 8;
    cfg.eval_every = 4;
    cfg.seed = 47;
    cfg.quorum_frac = 0.5;
    let views = paper_partition(&train, cfg.clients, 0.3, cfg.seed).views(&train);
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(31);
            mlp(64, &[16], 10, &mut rng)
        }),
    )
    .with_fault_plan(FaultPlan::new(FaultConfig {
        dropout: 0.3,
        straggler: 0.15,
        max_delay: 3,
        corruption: 0.15,
        replay: 0.05,
        ..FaultConfig::zero(0xC405)
    }))
    .with_net_plan(NetPlan::new(NetConfig {
        drop: 0.15,
        corrupt: 0.1,
        duplicate: 0.05,
        reorder: 0.05,
        delay: 0.15,
        max_delay_rounds: 2,
        ..NetConfig::zero(5)
    }))
    .with_tracer(logical_tracer())
    .with_metrics(Arc::new(MetricsRegistry::new()));
    let h = sim.run(&mut AvgWithState::new());

    let restated: Vec<&str> = h
        .metrics
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .filter(|name| !is_kept_metric(name))
        .collect();
    assert!(
        restated.is_empty(),
        "registry restates records: {restated:?}"
    );
    let merged: u32 = h.records.iter().map(|r| r.faults.late_merged).sum();
    let requeued: u32 = h.records.iter().map(|r| r.faults.late_requeued).sum();
    assert!(
        requeued > 0,
        "no quorum-failed round re-queued a late arrival"
    );
    assert_eq!(h.resilience_report(None).totals.late_merged, merged);
    assert_eq!(merged, 5);
}
