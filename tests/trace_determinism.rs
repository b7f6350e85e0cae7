//! Trace determinism: under a [`LogicalClock`], two identical seeded
//! runs produce byte-identical JSONL trace streams — and so do runs at
//! different worker-thread counts, because parallel client work records
//! into per-client span buffers that the engine replays in sampled
//! order with fresh main-clock ticks.

use fedwcm_algos::fedavg::FedAvg;
use fedwcm_core::FedWcm;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::{build_method, ExpConfig, Method, Scale};
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::{Cadence, FlConfig, History, NetConfig, NetPlan, Simulation};
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_trace::{
    names, Event, EventKind, JsonlSink, LogicalClock, MetricValue, MetricsRegistry, RingSink,
    SharedBuf, Tracer, Value,
};
use std::sync::Arc;

#[path = "support/golden.rs"]
mod golden;
use golden::Golden;

/// Run a small traced simulation and return the raw JSONL bytes plus
/// the history (whose `metrics` field carries the registry snapshot).
fn traced_run(threads: usize) -> (Vec<u8>, History) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 30, 0.5);
    let train = spec.generate_train(&counts, 77);
    let test = spec.generate_test(77);

    let mut cfg = FlConfig::default_sim();
    cfg.clients = 5;
    cfg.participation = 0.6;
    cfg.rounds = 3;
    cfg.eval_every = 2;
    cfg.threads = threads;

    let part = paper_partition(&train, cfg.clients, 0.5, cfg.seed);
    let views = part.views(&train);

    let buf = SharedBuf::new();
    let tracer = Tracer::new(
        Box::new(LogicalClock::new()),
        Arc::new(JsonlSink::new(buf.clone())),
    );
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(9);
            mlp(64, &[16], 10, &mut rng)
        }),
    )
    .with_tracer(tracer.clone())
    .with_metrics(Arc::new(MetricsRegistry::new()));

    let history = sim.run(&mut FedAvg::new());
    tracer.flush();
    (buf.contents(), history)
}

#[test]
fn same_seed_runs_produce_identical_traces() {
    let (a, _) = traced_run(1);
    let (b, _) = traced_run(1);
    assert!(!a.is_empty(), "trace should not be empty");
    assert_eq!(a, b, "two identical seeded runs must trace identically");
}

#[test]
fn trace_bytes_identical_across_thread_counts() {
    let (t1, h1) = traced_run(1);
    let (t4, h4) = traced_run(4);
    assert_eq!(
        t1, t4,
        "LogicalClock traces must be bitwise identical at 1 vs 4 threads"
    );
    assert_eq!(
        h1.metrics, h4.metrics,
        "metrics snapshots must not depend on the worker count"
    );
}

#[test]
fn trace_contains_the_span_taxonomy() {
    let (bytes, history) = traced_run(2);
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    for name in [
        "round",
        "client_update",
        "local_epoch",
        "aggregate",
        "evaluate",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "trace missing span {name}"
        );
    }
    // Every line parses as a flat JSON object with the fixed key order.
    for line in text.lines() {
        assert!(line.starts_with("{\"t\":"), "bad line {line}");
        assert!(line.ends_with('}'), "bad line {line}");
    }
    assert!(history.metrics.get(names::FL_ROUND_TICKS).is_some());
}

/// Every method trains through the one client loop: a traced smoke run
/// of each emits, inside every `client_update`, exactly one
/// `local_epoch` span per local epoch, for that client, in epoch order.
#[test]
fn every_method_traces_one_local_epoch_span_per_epoch() {
    let mut exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    exp.fl.rounds = 2;
    exp.fl.local_epochs = 2;
    let task = exp.prepare();
    let want: Vec<u64> = (0..exp.fl.local_epochs as u64).collect();
    let u64_field = |e: &Event, key: &str| match e.fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("{} lacks a u64 {key}: {other:?}", e.name),
    };
    let mut wrong = Vec::new();
    for method in Method::ALL {
        let ring = Arc::new(RingSink::new(1 << 16));
        let tracer = Tracer::new(Box::new(LogicalClock::new()), ring.clone());
        let _ = task
            .simulation()
            .with_tracer(tracer.clone())
            .run(build_method(method, &task).as_mut());
        tracer.flush();
        let (mut updates, mut open) = (0, None);
        for e in ring.events() {
            match (e.name, e.kind) {
                ("client_update", EventKind::Start) => {
                    open = Some((u64_field(&e, "client"), Vec::new()));
                }
                ("local_epoch", EventKind::Start) => {
                    let (client, epochs) = open.as_mut().expect("local_epoch outside a client");
                    assert_eq!(u64_field(&e, "client"), *client, "{}", method.label());
                    epochs.push(u64_field(&e, "epoch"));
                }
                ("client_update", EventKind::End) => {
                    let (client, epochs) = open.take().expect("client_update ends once");
                    if epochs != want {
                        wrong.push(format!("{} client {client}: {epochs:?}", method.label()));
                    }
                    updates += 1;
                }
                _ => {}
            }
        }
        assert!(updates > 0, "{}: no client_update traced", method.label());
    }
    assert!(wrong.is_empty(), "epoch spans:\n{}", wrong.join("\n"));
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

/// Everything one chaos run leaves behind, as texts.
#[derive(Debug, PartialEq)]
struct ChaosText {
    /// The JSONL stream under a [`LogicalClock`].
    trace: String,
    /// Every `RoundRecord` field, floats as bit patterns.
    records: String,
    /// The snapshot entries [`is_kept_metric`] names, in snapshot order:
    /// counters, gauge bits, and each histogram's `total` and `sum` bits.
    metrics: String,
}

/// One chaos run, as [`ChaosText`]. Client faults of every kind and a
/// lossy wire are both attached, so the fault hook, the transport, the
/// containment filter and the cadence all leave marks.
fn chaos_run_text(cadence: Cadence, quorum_frac: f64, threads: usize) -> ChaosText {
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
    cfg.threads = threads;
    cfg.cadence = cadence;
    cfg.quorum_frac = quorum_frac;
    let views = paper_partition(&train, cfg.clients, 0.3, cfg.seed).views(&train);

    let buf = SharedBuf::new();
    let tracer = Tracer::new(
        Box::new(LogicalClock::new()),
        Arc::new(JsonlSink::new(buf.clone())),
    );
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
    .with_tracer(tracer.clone())
    .with_metrics(Arc::new(MetricsRegistry::new()));

    let history = sim.run(&mut FedWcm::new());
    tracer.flush();
    let trace = String::from_utf8(buf.contents()).expect("JSONL is UTF-8");
    let mut metrics = String::new();
    for e in history
        .metrics
        .entries
        .iter()
        .filter(|e| is_kept_metric(&e.name))
    {
        let value = match &e.value {
            MetricValue::Counter(v) => format!("counter {v}"),
            MetricValue::Gauge(v) => format!("gauge {:#018x}", v.to_bits()),
            MetricValue::Histogram(h) => {
                format!("histogram {} {:#018x}", h.total, h.sum.to_bits())
            }
        };
        metrics.push_str(&format!("{} {value}\n", e.name));
    }
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let mut records = String::new();
    for r in &history.records {
        records.push_str(&format!(
            "{} {:?} {:#018x} {:?} {:?} {} {} {:?} {:?}\n",
            r.round,
            bits(r.train_loss),
            r.update_norm.to_bits(),
            bits(r.test_acc),
            bits(r.alpha),
            r.aggregations,
            r.dropped_updates,
            r.faults,
            r.net
        ));
    }
    ChaosText {
        trace,
        records,
        metrics,
    }
}

/// Golden bytes for what no probe traces: `buffer_flush` / `async_apply`
/// spans, the `fl.cadence.buffered` gauge, and a sync round that fails
/// quorum and re-queues a late arrival — each under the chaos plan and
/// a lossy wire. The trace, the records and the kept metrics each have
/// their own CRC (`trace_determinism/<cadence>/<part>` in
/// `results/golden.tsv`), so a changed byte names the ledger it moved.
#[test]
fn chaos_traces_of_every_cadence_match_their_golden_crc() {
    let cases = [
        (Cadence::Sync, 0.5, "late_requeue"),
        (
            Cadence::BufferedK { k: 2 },
            0.0,
            "\"name\":\"buffer_flush\"",
        ),
        (
            Cadence::Async { max_in_flight: 2 },
            0.0,
            "\"name\":\"async_apply\"",
        ),
    ];
    let mut golden = Golden::new("trace_determinism");
    for (cadence, quorum_frac, marker) in cases {
        let label = cadence.label();
        let text = chaos_run_text(cadence, quorum_frac, 1);
        for needle in [marker, "\"name\":\"send_frame\"", "\"name\":\"retry\""] {
            assert!(text.trace.contains(needle), "{label}: trace lacks {needle}");
        }
        if cadence != Cadence::Sync {
            assert!(
                text.metrics.contains("fl.cadence.buffered gauge"),
                "{label}"
            );
        }
        assert_eq!(
            text,
            chaos_run_text(cadence, quorum_frac, 4),
            "{label}: 1 vs 4 threads"
        );
        let parts = [
            ("trace", &text.trace),
            ("records", &text.records),
            ("metrics", &text.metrics),
        ];
        for (part, bytes) in parts {
            let crc = fedwcm_transport::frame::crc32(bytes.as_bytes());
            golden.check(&format!("{label}/{part}"), format!("{crc:#010X}"));
        }
    }
    golden.finish();
}
