//! The replay-fault path under everything else a chaos run carries:
//! a plan that replays often (and drops, delays and corrupts), the lossy
//! wire and the buffered cadence. Whatever the server keeps for a later
//! replay, the run's bits are pinned — a CRC of every `RoundRecord`
//! field plus the final parameters, one value at 1 and 2 threads
//! (`replay_cache/run` in `results/golden.tsv`) — and a kill at
//! every round, resumed through FWCK bytes, must reproduce them.

mod support;

#[path = "../../../tests/support/record_digest.rs"]
mod record_digest;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::Golden;

use fedwcm_data::dataset::Dataset;
use fedwcm_faults::{FaultConfig, FaultKind, FaultPlan};
use fedwcm_fl::{sampled_clients_for, Cadence, FlConfig, NetPlan, ServerCheckpoint, Simulation};
use record_digest::record_digest;
use support::{assert_bitwise_eq, build_sim, lossy_cfg, make_cfg, make_data, MiniMomentum};

const ROUNDS: usize = 12;

fn cfg(threads: usize) -> FlConfig {
    let mut cfg = make_cfg(ROUNDS);
    cfg.cadence = Cadence::BufferedK { k: 4 };
    cfg.threads = threads;
    cfg
}

fn plan() -> FaultPlan {
    FaultPlan::new(FaultConfig {
        dropout: 0.1,
        straggler: 0.2,
        max_delay: 3,
        corruption: 0.05,
        replay: 0.35,
        ..FaultConfig::zero(0x5E91A7)
    })
}

fn sim<'a>(train: &'a Dataset, test: &'a Dataset, threads: usize) -> Simulation<'a> {
    build_sim(train, test, cfg(threads))
        .with_fault_plan(plan())
        .with_net_plan(NetPlan::new(lossy_cfg(0x91A7)))
}

/// Replays that read a slot some earlier round could have filled: the
/// client is sampled with a `Replay` fault and was sampled before.
#[test]
fn the_plan_replays_clients_sampled_earlier() {
    let cfg = cfg(1);
    let plan = plan();
    let mut seen = vec![false; cfg.clients];
    let mut hits = 0;
    for round in 0..ROUNDS {
        let sampled = sampled_clients_for(&cfg, round);
        for &k in &sampled {
            if plan.fault_for(round, k) == Some(FaultKind::Replay) && seen[k] {
                hits += 1;
            }
        }
        for k in sampled {
            seen[k] = true;
        }
    }
    assert!(hits >= 5, "{hits} replays of an earlier-sampled client");
}

#[test]
fn replay_run_matches_its_pinned_digest_and_resumes_from_every_round() {
    let (train, test) = make_data(0x9E91);
    let mut golden = Golden::new("replay_cache");
    for threads in [1usize, 2] {
        let mut last = Vec::new();
        let full = sim(&train, &test, threads)
            .run_with_observer(&mut MiniMomentum::new(), |_, global| last = global.to_vec());
        assert_eq!(full.records.len(), ROUNDS);
        let replays: u32 = full.records.iter().map(|r| r.faults.replays).sum();
        let late: u32 = full.records.iter().map(|r| r.faults.late_merged).sum();
        let net = full.net_totals();
        assert!(replays >= 5 && late > 0 && net.delayed > 0 && net.retries > 0);
        let crc = record_digest(&full.records, &last);
        golden.check("run", format!("{crc:#010X}"));

        for k in 0..=ROUNDS {
            let label = format!("{threads} thread(s), killed at {k}");
            let bytes = sim(&train, &test, threads)
                .run_until(&mut MiniMomentum::new(), k)
                .unwrap_or_else(|e| panic!("{label}: capture: {e}"))
                .to_bytes();
            let ckpt = ServerCheckpoint::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{label}: parse: {e}"));
            let mut resumed_last = ckpt.global().to_vec();
            let resumed = sim(&train, &test, threads)
                .resume_with_observer(&mut MiniMomentum::new(), &ckpt, |_, global| {
                    resumed_last = global.to_vec()
                })
                .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
            assert_bitwise_eq(&full, &resumed, &label);
            assert_eq!(
                resumed_last.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                last.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "{label}: final parameters"
            );
        }
    }
    golden.finish();
}
