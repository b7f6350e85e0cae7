//! Integration tests for the fault-injection harness and server
//! checkpoint/resume:
//!
//! * a zero-rate (or absent) fault plan is bitwise invisible, at 1 and 4
//!   threads;
//! * a faulted run is itself bitwise deterministic across thread counts;
//! * `resilience_report` accounts every scheduled fault;
//! * a run killed at round `r` and resumed from the round-`r` checkpoint
//!   (through bytes, as a crashed process would) finishes with a
//!   bitwise-identical history and global model;
//! * every checkpoint error path is typed, not a panic.

mod support;

use fedwcm_faults::{FaultConfig, FaultKind, FaultPlan};
use fedwcm_fl::algorithm::{RoundInput, RoundLog};
use fedwcm_fl::client::{ClientEnv, ClientUpdate};
use fedwcm_fl::{sampled_clients_for, CheckpointError, FederatedAlgorithm, ServerCheckpoint};
use support::{
    assert_bitwise_eq, build_sim, busy_plan, make_cfg, make_data, plain_sgd, MiniMomentum,
};

/// An algorithm that keeps the trait's conservative default: no state
/// capture. Checkpointing it must fail loudly.
struct NoCapture;

impl FederatedAlgorithm for NoCapture {
    fn name(&self) -> String {
        "no-capture".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        plain_sgd(env, global)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        support::StubAvg.aggregate(global, input)
    }
}

#[test]
fn absent_and_zero_rate_plans_are_bitwise_identical() {
    let (train, test) = make_data(101);
    for threads in [1usize, 4] {
        let mut cfg = make_cfg(6);
        cfg.threads = threads;
        let plain = build_sim(&train, &test, cfg.clone()).run(&mut MiniMomentum::new());
        let zeroed = build_sim(&train, &test, cfg)
            .with_fault_plan(FaultPlan::zero(0xDEAD))
            .run(&mut MiniMomentum::new());
        assert_bitwise_eq(&plain, &zeroed, &format!("threads={threads}"));
        assert!(
            zeroed.records.iter().all(|r| r.faults.injected() == 0),
            "zero plan must inject nothing"
        );
    }
}

#[test]
fn faulted_run_is_bitwise_deterministic_across_threads() {
    let (train, test) = make_data(102);
    let mut histories = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = make_cfg(8);
        cfg.threads = threads;
        let h = build_sim(&train, &test, cfg)
            .with_fault_plan(busy_plan(0xFA))
            .run(&mut MiniMomentum::new());
        histories.push(h);
    }
    assert_bitwise_eq(&histories[0], &histories[1], "threads 1 vs 4");
    let total: u32 = histories[0]
        .records
        .iter()
        .map(|r| r.faults.injected())
        .sum();
    assert!(total > 0, "busy plan injected nothing — rates too low");
}

#[test]
fn resilience_report_accounts_every_scheduled_fault() {
    let (train, test) = make_data(103);
    let cfg = make_cfg(10);
    let plan = busy_plan(0xBEEF);
    let sim = build_sim(&train, &test, cfg.clone()).with_fault_plan(plan.clone());
    let h = sim.run(&mut MiniMomentum::new());

    // Recount the schedule independently: the plan is a pure function, so
    // the history's totals must match exactly.
    let (mut dropouts, mut stragglers, mut corruptions, mut replays) = (0u32, 0u32, 0u32, 0u32);
    for round in 0..cfg.rounds {
        for client in sampled_clients_for(&cfg, round) {
            match plan.fault_for(round, client) {
                Some(FaultKind::Dropout) => dropouts += 1,
                Some(FaultKind::Straggler { .. }) => stragglers += 1,
                Some(FaultKind::Corrupt(_)) => corruptions += 1,
                Some(FaultKind::Replay) => replays += 1,
                None => {}
            }
        }
    }
    let baseline = build_sim(&train, &test, cfg).run(&mut MiniMomentum::new());
    let report = h.resilience_report(Some(&baseline));
    assert_eq!(report.totals.dropouts, dropouts);
    assert_eq!(report.totals.stragglers, stragglers);
    assert_eq!(report.totals.corruptions, corruptions);
    assert_eq!(report.totals.replays, replays);
    assert!(
        report.totals.late_merged <= stragglers,
        "cannot merge more late uploads than were delayed"
    );
    assert!(report.totals.injected() > 0, "plan injected nothing");
    assert!(report.accuracy_delta.is_some());
    // The Display form must not panic and must carry the counts.
    assert!(report.to_string().contains("dropouts"));
}

#[test]
fn crash_and_resume_is_bitwise_identical() {
    let (train, test) = make_data(104);
    let cfg = make_cfg(8);

    // Uninterrupted run, capturing the final global parameters.
    let sim = build_sim(&train, &test, cfg.clone()).with_fault_plan(busy_plan(0xFA));
    let mut full_params: Vec<f32> = Vec::new();
    let full = sim.run_with_observer(&mut MiniMomentum::new(), |_, g| {
        full_params.clear();
        full_params.extend_from_slice(g);
    });

    // Interrupted run: stop at round 3, serialize the checkpoint to bytes
    // (as a crashed-and-restarted process would), parse it back, resume.
    let ckpt = sim
        .run_until(&mut MiniMomentum::new(), 3)
        .expect("mini-momentum supports state capture");
    assert_eq!(ckpt.next_round(), 3);
    assert_eq!(ckpt.algo_name(), "mini-momentum");
    assert_eq!(ckpt.history().records.len(), 3);
    let bytes = ckpt.to_bytes();
    let restored = ServerCheckpoint::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(restored.to_bytes(), bytes, "serialize is the identity");

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

#[test]
fn checkpoint_error_paths_are_typed() {
    let (train, test) = make_data(105);
    let cfg = make_cfg(6);
    let sim = build_sim(&train, &test, cfg.clone());

    // Capture with an algorithm that opts out of state capture.
    assert_eq!(
        sim.run_until(&mut NoCapture, 2).unwrap_err(),
        CheckpointError::AlgorithmStateUnsupported
    );

    let ckpt = sim.run_until(&mut MiniMomentum::new(), 2).expect("capture");

    // Resuming with a different algorithm is a mismatch, not a corruption.
    match sim.resume(&mut NoCapture, &ckpt).unwrap_err() {
        CheckpointError::AlgorithmMismatch { expected, found } => {
            assert_eq!(expected, "mini-momentum");
            assert_eq!(found, "no-capture");
        }
        other => panic!("expected AlgorithmMismatch, got {other}"),
    }

    // Resuming under a different configuration is rejected.
    let mut other_cfg = cfg;
    other_cfg.seed = 123_456;
    let other_sim = build_sim(&train, &test, other_cfg);
    assert_eq!(
        other_sim
            .resume(&mut MiniMomentum::new(), &ckpt)
            .unwrap_err(),
        CheckpointError::ConfigMismatch
    );

    // Truncated / corrupted bytes parse to Malformed, never panic.
    let bytes = ckpt.to_bytes();
    assert_eq!(
        ServerCheckpoint::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err(),
        CheckpointError::Malformed
    );
    assert_eq!(
        ServerCheckpoint::from_bytes(b"not a checkpoint").unwrap_err(),
        CheckpointError::Malformed
    );
    let mut extra = bytes.clone();
    extra.push(0);
    assert_eq!(
        ServerCheckpoint::from_bytes(&extra).unwrap_err(),
        CheckpointError::Malformed
    );

    // There is one FWCK version: the retired v2/v3 layouts (and any
    // future number) are refused at the header, not half-parsed.
    for version in [2u32, 3, 5] {
        let mut other = bytes.clone();
        other[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            ServerCheckpoint::from_bytes(&other).unwrap_err(),
            CheckpointError::Malformed,
            "version {version}"
        );
    }

    // Every boolean tag accepts only 0 and 1 — `quorum_failed` used to
    // read as `!= 0`, so tag 2 parsed and re-serialized to different
    // bytes. In this fault-free sync run the last record's tag sits
    // before its eight u64 net counters and the four empty trailing
    // collections (metrics, pending, replay cache, aggregation buffer).
    let at = bytes.len() - (4 * 8 + 8 * 8 + 4);
    assert_eq!(bytes[at..at + 4], [0; 4], "quorum_failed tag of round 1");
    let mut flipped = bytes.clone();
    flipped[at] = 1;
    let parsed = ServerCheckpoint::from_bytes(&flipped).expect("tag 1 is `true`");
    assert!(parsed.history().records[1].faults.quorum_failed);
    assert_eq!(parsed.to_bytes(), flipped, "accepted input is canonical");
    flipped[at] = 2;
    assert_eq!(
        ServerCheckpoint::from_bytes(&flipped).unwrap_err(),
        CheckpointError::Malformed
    );
}

#[test]
fn quorum_rule_skips_underpopulated_rounds() {
    let (train, test) = make_data(106);
    let mut cfg = make_cfg(10);
    cfg.quorum_frac = 0.95;
    let plan = FaultPlan::new(FaultConfig {
        dropout: 0.6,
        ..FaultConfig::zero(0xD0)
    });
    let h = build_sim(&train, &test, cfg.clone())
        .with_fault_plan(plan)
        .run(&mut MiniMomentum::new());
    assert_eq!(h.records.len(), cfg.rounds);
    let skipped: Vec<_> = h
        .records
        .iter()
        .filter(|r| r.faults.quorum_failed)
        .collect();
    assert!(
        !skipped.is_empty(),
        "60% dropout against a 95% quorum must fail at least once"
    );
    for r in &skipped {
        assert_eq!(
            r.update_norm, 0.0,
            "a quorum-failed round must not move the model"
        );
    }
    // Some rounds still aggregate (dropout is probabilistic, not total).
    assert!(h.records.iter().any(|r| r.update_norm > 0.0));
}
