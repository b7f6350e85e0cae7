//! Integration tests for the fault-tolerant wire transport:
//!
//! * an absent and a zero-rate network plan are bitwise identical —
//!   records, network counters, and FWCK checkpoint bytes — at 1 and 4
//!   threads;
//! * a lossy run is itself bitwise deterministic across thread counts
//!   and actually recovers deliveries through retries;
//! * total loss exhausts every retry budget and degrades into the
//!   dropout machinery without panicking;
//! * a run killed mid-retry (pending transport deliveries, advanced
//!   retry clock) resumes from FWCK v4 bytes bitwise identically.

mod support;

use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::{FlConfig, NetConfig, NetPlan, ServerCheckpoint};
use support::{assert_bitwise_eq, build_sim, lossy_cfg, make_data, MiniMomentum};

/// The shared configuration on this file's own sampling seed.
fn make_cfg(rounds: usize) -> FlConfig {
    let mut cfg = support::make_cfg(rounds);
    cfg.seed = 78;
    cfg
}

#[test]
fn absent_and_zero_rate_net_plans_are_bitwise_identical() {
    let (train, test) = make_data(201);
    for threads in [1usize, 4] {
        let mut cfg = make_cfg(6);
        cfg.threads = threads;
        let plain_sim = build_sim(&train, &test, cfg.clone());
        let plain_ckpt = plain_sim
            .run_until(&mut MiniMomentum::new(), 3)
            .expect("capture");
        let plain = plain_sim.run(&mut MiniMomentum::new());

        let zero_sim = build_sim(&train, &test, cfg).with_net_plan(NetPlan::zero(0x4E17));
        let zero_ckpt = zero_sim
            .run_until(&mut MiniMomentum::new(), 3)
            .expect("capture");
        let zeroed = zero_sim.run(&mut MiniMomentum::new());

        assert_bitwise_eq(&plain, &zeroed, &format!("threads={threads}"));
        assert!(
            zeroed.net_totals().is_zero(),
            "zero-rate plan must record no transport activity"
        );
        assert_eq!(
            plain_ckpt.to_bytes(),
            zero_ckpt.to_bytes(),
            "threads={threads}: FWCK bytes must be identical"
        );
    }
}

#[test]
fn lossy_run_is_deterministic_and_recovers_deliveries() {
    let (train, test) = make_data(202);
    let mut histories = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = make_cfg(8);
        cfg.threads = threads;
        let h = build_sim(&train, &test, cfg)
            .with_net_plan(NetPlan::new(lossy_cfg(0x1055)))
            .run(&mut MiniMomentum::new());
        histories.push(h);
    }
    assert_bitwise_eq(&histories[0], &histories[1], "threads 1 vs 4");
    let totals = histories[0].net_totals();
    assert!(totals.frames_sent > 0, "no frames crossed the wire");
    assert!(
        totals.retries > 0,
        "lossy plan never forced a retry — rates too low for this seed"
    );
    assert!(
        totals.rejected_frames > 0,
        "corruption never tripped the checksum"
    );
    assert!(
        totals.retries < totals.frames_sent,
        "retries are a strict subset of transmitted frames"
    );
    assert!(
        totals.retransmitted_bytes > 0 && totals.rejected_bytes > 0,
        "byte tallies must track their frame counts"
    );
    // Retries recovered real deliveries: the model still trains.
    assert!(histories[0].records.iter().any(|r| r.update_norm > 0.0));
}

#[test]
fn total_loss_degrades_into_dropout_machinery() {
    let (train, test) = make_data(203);
    let cfg = make_cfg(5);
    let h = build_sim(&train, &test, cfg.clone())
        .with_net_plan(NetPlan::new(NetConfig {
            drop: 1.0,
            ..NetConfig::zero(0xDEAD)
        }))
        .run(&mut MiniMomentum::new());
    assert_eq!(h.records.len(), cfg.rounds, "run must complete");
    let totals = h.net_totals();
    assert!(totals.degraded > 0, "exhaustions must be counted");
    // Every delivery burned its full budget: frames = degraded × MAX_ATTEMPTS.
    let budget = u64::from(fedwcm_fl::RetryPolicy::MAX_ATTEMPTS);
    assert_eq!(totals.frames_sent, totals.degraded * budget);
    for r in &h.records {
        assert_eq!(
            r.update_norm, 0.0,
            "no delivery survives total loss, so the model must not move"
        );
    }
    let report = h.resilience_report(None).to_string();
    assert!(report.contains("degraded to dropout"));
}

#[test]
fn kill_mid_retry_resume_is_bitwise_identical() {
    let (train, test) = make_data(204);
    let cfg = make_cfg(8);
    // Faults *and* a delay-heavy network plan: at the checkpoint round
    // the straggler buffer holds transport-delayed uploads (via_net) and
    // the courier clock is far from zero — exactly the state FWCK v4
    // exists to preserve.
    let faults = FaultPlan::new(FaultConfig {
        dropout: 0.2,
        straggler: 0.2,
        max_delay: 3,
        ..FaultConfig::zero(0xC405)
    });
    let net = NetPlan::new(NetConfig {
        drop: 0.2,
        corrupt: 0.1,
        delay: 0.4,
        max_delay_rounds: 3,
        ..NetConfig::zero(0x4E77)
    });
    let sim = build_sim(&train, &test, cfg)
        .with_fault_plan(faults)
        .with_net_plan(net);

    let mut full_params: Vec<f32> = Vec::new();
    let full = sim.run_with_observer(&mut MiniMomentum::new(), |_, g| {
        full_params.clear();
        full_params.extend_from_slice(g);
    });
    assert!(
        full.net_totals().delayed > 0,
        "plan never delayed a delivery — the resume test would be vacuous"
    );

    let ckpt = sim
        .run_until(&mut MiniMomentum::new(), 4)
        .expect("state capture");
    let bytes = ckpt.to_bytes();
    let restored = ServerCheckpoint::from_bytes(&bytes).expect("v4 parses");
    assert_eq!(restored.to_bytes(), bytes, "serialize is the identity");
    // The checkpoint carries real transport history, not zeros.
    assert!(restored.history().records.iter().any(|r| !r.net.is_zero()));

    let mut resumed_params: Vec<f32> = Vec::new();
    let resumed = sim
        .resume_with_observer(&mut MiniMomentum::new(), &restored, |_, g| {
            resumed_params.clear();
            resumed_params.extend_from_slice(g);
        })
        .expect("resume");

    assert_bitwise_eq(&full, &resumed, "full vs resumed");
    let full_bits: Vec<u32> = full_params.iter().map(|p| p.to_bits()).collect();
    let resumed_bits: Vec<u32> = resumed_params.iter().map(|p| p.to_bits()).collect();
    assert_eq!(full_bits, resumed_bits, "final global params");
}
