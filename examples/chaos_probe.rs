//! Chaos smoke probe for CI.
//!
//! Runs a short federated simulation under an aggressive fault plan —
//! 30% dropout, 15% stragglers, 5% corruption, 5% replay — and prints the
//! resilience report. It must not panic: injected faults model transport
//! damage to healthy uploads, and the engine's containment filter drops
//! the corrupted ones before aggregation. CI checks its stdout at
//! `FEDWCM_THREADS=1` and `4` against `results/probe_digests.sha256`.
//!
//! Pass a file path as the first argument to additionally write a JSONL
//! trace of the run (spans + structured fault events under a
//! `LogicalClock`); CI uploads it as a build artifact. Use `-` to skip
//! the trace. A second argument is parsed as a network-plan spec (e.g.
//! `drop:0.1,corrupt:0.05,delay:2`) and routes client uploads through
//! the lossy wire transport on top of the fault plan.

use fedwcm_suite::faults::FaultConfig;
use fedwcm_suite::prelude::*;
use fedwcm_suite::trace::{JsonlSink, LogicalClock, Tracer};
use std::sync::Arc;

fn main() {
    let spec = DatasetPreset::Cifar10.spec();
    let counts = longtail_counts(10, 50, 0.1);
    let train = spec.generate_train(&counts, 47);
    let test = spec.generate_test(47);

    let mut cfg = FlConfig::default_sim();
    cfg.clients = 6;
    cfg.participation = 0.5;
    cfg.rounds = 8;
    cfg.local_epochs = 1;
    cfg.batch_size = 20;
    cfg.eval_every = 4;
    cfg.seed = 47;
    cfg.threads = 0; // defer to FEDWCM_THREADS

    let plan = FaultPlan::new(FaultConfig {
        dropout: 0.3,
        straggler: 0.15,
        max_delay: 3,
        corruption: 0.15,
        replay: 0.05,
        ..FaultConfig::zero(0xC405)
    });

    let views = paper_partition(&train, cfg.clients, 0.3, cfg.seed).views(&train);
    let mut sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(31);
            fedwcm_suite::nn::models::mlp(192, &[24], 10, &mut rng)
        }),
    )
    .with_fault_plan(plan);

    // Optional JSONL trace artifact: `chaos_probe <path>` stamps every
    // span and injected fault with a LogicalClock, so the file is
    // identical across thread counts and CI can diff or archive it.
    // `-` skips the trace (placeholder when only a net spec is wanted).
    let mut tracer = Tracer::disabled();
    if let Some(path) = std::env::args().nth(1).filter(|p| p != "-") {
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
        tracer = Tracer::new(
            Box::new(LogicalClock::new()),
            Arc::new(JsonlSink::new(file)),
        );
        sim = sim.with_tracer(tracer.clone());
    }

    // Optional lossy wire transport: `chaos_probe - drop:0.1,delay:2`
    // stacks frame-level network faults on top of the fault plan.
    let net_active = if let Some(spec) = std::env::args().nth(2) {
        let cfg = NetConfig::parse(&spec).unwrap_or_else(|e| panic!("bad net spec {spec}: {e}"));
        sim = sim.with_net_plan(NetPlan::new(cfg));
        true
    } else {
        false
    };

    let history = sim.run(&mut FedWcm::new());
    tracer.flush();
    println!("{}", history.resilience_report(None));
    let injected: u32 = history.records.iter().map(|r| r.faults.injected()).sum();
    let corruptions: u32 = history.records.iter().map(|r| r.faults.corruptions).sum();
    assert!(injected > 0, "chaos probe injected no faults");
    assert!(
        corruptions > 0,
        "chaos probe never exercised the corruption/containment path"
    );
    if net_active {
        let net = history.net_totals();
        assert!(net.frames_sent > 0, "net plan active but no frames sent");
        println!(
            "net: {} frames, {} retries, {} rejected, {} delayed, {} degraded",
            net.frames_sent, net.retries, net.rejected_frames, net.delayed, net.degraded
        );
    }
    println!("chaos probe ok: {injected} faults injected, run completed");
}
