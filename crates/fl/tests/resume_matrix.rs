//! Kill/resume at **every** round index: for the sync, buffered-K and
//! async cadences, under a busy fault plan *and* a lossy wire, at 1 and 2
//! worker threads, `run_until(k)` → FWCK bytes → `resume` must equal the
//! uninterrupted run — every record field and the metrics snapshot — for
//! every `k` in `0..=rounds`. Whatever server state a round can leave
//! behind (straggler buffer, aggregation buffer, replay cache, courier
//! clock, registry) is therefore checkpointed at some `k`.

mod support;

use fedwcm_fl::{Cadence, History, NetPlan, ServerCheckpoint, Simulation};
use fedwcm_trace::MetricsRegistry;
use std::sync::Arc;
use support::{
    assert_bitwise_eq, build_sim, busy_plan, lossy_cfg, make_cfg, make_data, MiniMomentum,
};

const ROUNDS: usize = 8;

#[test]
fn resume_from_every_round_matches_the_uninterrupted_run() {
    let (train, test) = make_data(301);
    for cadence in [
        Cadence::Sync,
        Cadence::BufferedK { k: 2 },
        Cadence::Async { max_in_flight: 2 },
    ] {
        for threads in [1usize, 2] {
            // A fresh simulation per run: each owns its registry, as a
            // restarted process would.
            let sim = || -> Simulation<'_> {
                let mut cfg = make_cfg(ROUNDS);
                cfg.cadence = cadence;
                cfg.threads = threads;
                // Under the barrier, let quorum fail so late arrivals
                // are re-queued across the kill point too.
                if cadence == Cadence::Sync {
                    cfg.quorum_frac = 0.5;
                }
                build_sim(&train, &test, cfg)
                    .with_fault_plan(busy_plan(0xC4))
                    .with_net_plan(NetPlan::new(lossy_cfg(0x1055)))
                    .with_metrics(Arc::new(MetricsRegistry::new()))
            };
            let full: History = sim().run(&mut MiniMomentum::new());
            assert_eq!(full.records.len(), ROUNDS);
            assert!(!full.metrics.is_empty());
            // Not vacuous: late merges, wire delays and retries all happen.
            let late: u32 = full.records.iter().map(|r| r.faults.late_merged).sum();
            let net = full.net_totals();
            assert!(late > 0 && net.delayed > 0 && net.retries > 0);

            for k in 0..=ROUNDS {
                let label = format!("{} at {threads} thread(s), killed at {k}", cadence.label());
                let bytes = sim()
                    .run_until(&mut MiniMomentum::new(), k)
                    .unwrap_or_else(|e| panic!("{label}: capture: {e}"))
                    .to_bytes();
                let ckpt = ServerCheckpoint::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{label}: parse: {e}"));
                assert_eq!(ckpt.next_round(), k, "{label}");
                let resumed = sim()
                    .resume(&mut MiniMomentum::new(), &ckpt)
                    .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
                assert_bitwise_eq(&full, &resumed, &label);
            }
        }
    }
}
