//! Integration tests for the pluggable aggregation cadences:
//!
//! * buffered-K with `K` = the full cohort is bitwise identical to the
//!   synchronous barrier on a fault-free run;
//! * buffered-K and fully-async runs are bitwise deterministic across
//!   thread counts, faults included;
//! * a buffered/async run killed mid-stream resumes bitwise identically
//!   through FWCK bytes, aggregation buffer included;
//! * resuming a checkpoint under a different cadence is refused.

mod support;

use fedwcm_fl::{Cadence, CheckpointError, FlConfig, ServerCheckpoint};
use support::{assert_bitwise_eq, build_sim, busy_plan, make_data, MiniMomentum};

/// The shared 3-client-cohort configuration under `cadence`.
fn make_cfg(rounds: usize, cadence: Cadence) -> FlConfig {
    let mut cfg = support::make_cfg(rounds);
    cfg.cadence = cadence;
    cfg
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
