//! Trace-determinism probe for CI.
//!
//! Runs a small federated simulation with a [`fedwcm_trace::Tracer`]
//! driven by a [`fedwcm_trace::LogicalClock`] and a JSONL sink on
//! stdout, plus a metrics registry whose snapshot is printed as a
//! footer. `cfg.threads = 0` defers the worker count to the
//! `FEDWCM_THREADS` env var; CI runs this at `FEDWCM_THREADS=1` and
//! `FEDWCM_THREADS=4` and diffs the bytes. Any difference means the
//! trace replay path (per-client span buffers re-stamped on the engine
//! thread) stopped being bitwise deterministic.
//!
//! With an optional file argument (`trace_probe trace.jsonl`) the JSONL
//! stream goes to that file instead of stdout — the shape `flprof`
//! reads, and CI diffs its 1- and 4-thread profiles — while the metrics
//! footer stays on stdout.

use fedwcm_algos::fedavg::FedAvg;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_fl::{FlConfig, Simulation};
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_trace::{JsonlSink, LogicalClock, MetricValue, MetricsRegistry, Sink, Tracer};
use std::sync::Arc;

fn main() {
    let sink: Arc<dyn Sink> = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            Arc::new(JsonlSink::new(std::io::BufWriter::new(file)))
        }
        None => Arc::new(JsonlSink::new(std::io::stdout())),
    };

    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 40, 0.5);
    let train = spec.generate_train(&counts, 31);
    let test = spec.generate_test(31);

    let mut cfg = FlConfig::default_sim();
    cfg.clients = 6;
    cfg.participation = 0.5;
    cfg.rounds = 4;
    cfg.eval_every = 2;
    cfg.threads = 0; // defer to FEDWCM_THREADS

    let part = paper_partition(&train, cfg.clients, 0.5, cfg.seed);
    let views = part.views(&train);

    let tracer = Tracer::new(Box::new(LogicalClock::new()), sink);
    let registry = Arc::new(MetricsRegistry::new());
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(1234);
            mlp(64, &[32], 10, &mut rng)
        }),
    )
    .with_tracer(tracer.clone())
    .with_metrics(Arc::clone(&registry));

    let history = sim.run(&mut FedAvg::new());
    tracer.flush();

    // Metrics footer at full precision: counters/gauges/timers must
    // also be identical across thread counts.
    println!("--- metrics ---");
    for e in &history.metrics.entries {
        match &e.value {
            MetricValue::Counter(v) => println!("{} counter {v}", e.name),
            MetricValue::Gauge(v) => println!("{} gauge {:#018x}", e.name, v.to_bits()),
            MetricValue::Histogram(h) => println!(
                "{} histogram total={} sum_bits={:#018x}",
                e.name,
                h.total,
                h.sum.to_bits()
            ),
        }
    }
}
