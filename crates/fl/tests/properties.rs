//! Property-based tests for the FL engine: aggregation algebra,
//! convention invariants, and fault-plan determinism under arbitrary
//! inputs.

mod support;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::Golden;

use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::algorithm::{server_step, uniform_average, weighted_average};
use fedwcm_fl::client::ClientUpdate;
use fedwcm_fl::{
    Cadence, CheckpointError, FlConfig, NetConfig, NetPlan, ServerCheckpoint, Simulation,
};
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;
use proptest::prelude::*;

fn updates(deltas: Vec<Vec<f32>>) -> Vec<ClientUpdate> {
    deltas
        .into_iter()
        .enumerate()
        .map(|(k, delta)| ClientUpdate {
            client: k,
            delta,
            num_samples: 10,
            num_batches: 5,
            avg_loss: 1.0,
            extra: None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniform_average_bounded_by_extremes(
        n in 1usize..8, dim in 1usize..20, seed in any::<u64>(),
    ) {
        let deltas: Vec<Vec<f32>> = (0..n)
            .map(|k| (0..dim).map(|i| ((seed as usize + k * 31 + i) as f32).sin()).collect())
            .collect();
        let ups = updates(deltas.clone());
        let mut avg = vec![0.0f32; dim];
        uniform_average(&ups, &mut avg);
        for i in 0..dim {
            let min = deltas.iter().map(|d| d[i]).fold(f32::INFINITY, f32::min);
            let max = deltas.iter().map(|d| d[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[i] >= min - 1e-5 && avg[i] <= max + 1e-5);
        }
    }

    #[test]
    fn weighted_average_convexity(
        n in 2usize..6, dim in 1usize..15, seed in any::<u64>(),
        raw_w in prop::collection::vec(0.01f64..1.0, 2..6),
    ) {
        prop_assume!(raw_w.len() >= n);
        let total: f64 = raw_w[..n].iter().sum();
        let w: Vec<f64> = raw_w[..n].iter().map(|x| x / total).collect();
        let deltas: Vec<Vec<f32>> = (0..n)
            .map(|k| (0..dim).map(|i| ((seed as usize + k * 17 + i * 3) as f32).cos()).collect())
            .collect();
        let ups = updates(deltas.clone());
        let mut out = vec![0.0f32; dim];
        weighted_average(&ups, &w, &mut out);
        for i in 0..dim {
            let min = deltas.iter().map(|d| d[i]).fold(f32::INFINITY, f32::min);
            let max = deltas.iter().map(|d| d[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[i] >= min - 1e-4 && out[i] <= max + 1e-4);
        }
    }

    #[test]
    fn server_step_linear_in_lr(dim in 1usize..20, lr in 0.01f32..2.0, seed in any::<u64>()) {
        let dir: Vec<f32> = (0..dim).map(|i| ((seed as usize + i) as f32).sin()).collect();
        let base: Vec<f32> = (0..dim).map(|i| (i as f32) * 0.1).collect();
        let mut cfg = FlConfig::default_sim();
        cfg.global_lr = lr;
        cfg.local_lr = 0.1;
        let mut g1 = base.clone();
        server_step(&mut g1, &dir, &cfg, 4.0);
        cfg.global_lr = 2.0 * lr;
        let mut g2 = base.clone();
        server_step(&mut g2, &dir, &cfg, 4.0);
        // Displacement doubles with the global lr.
        for i in 0..dim {
            let d1 = g1[i] - base[i];
            let d2 = g2[i] - base[i];
            prop_assert!((d2 - 2.0 * d1).abs() < 1e-4);
        }
    }
}

fn plan_from(seed: u64, dropout: f64, straggler: f64, corruption: f64, replay: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        dropout,
        straggler,
        max_delay: 3,
        corruption,
        replay,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fault plan is a pure function: the schedule for any round is the
    /// same however and whenever it is queried, and the batch
    /// [`FaultPlan::schedule`] agrees element-wise with per-client
    /// [`FaultPlan::fault_for`] calls.
    #[test]
    fn fault_schedule_is_pure_and_consistent(
        seed in any::<u64>(),
        dropout in 0.0f64..0.35, straggler in 0.0f64..0.3,
        corruption in 0.0f64..0.2, replay in 0.0f64..0.1,
        round in 0usize..200, clients in 1usize..40,
    ) {
        let plan = plan_from(seed, dropout, straggler, corruption, replay);
        let ids: Vec<usize> = (0..clients).collect();
        let batch = plan.schedule(round, &ids);
        let singles: Vec<_> = ids
            .iter()
            .filter_map(|&c| plan.fault_for(round, c).map(|f| (c, f)))
            .collect();
        prop_assert_eq!(&batch, &singles, "batch vs per-client queries");
        prop_assert_eq!(&batch, &plan.schedule(round, &ids), "repeat query");
        // And a clone built from the same config agrees too.
        let again = plan_from(seed, dropout, straggler, corruption, replay);
        prop_assert_eq!(&batch, &again.schedule(round, &ids));
    }
}

/// Shared tiny federated task for the (expensive) end-to-end properties.
fn tiny_sim<'a>(
    train: &'a fedwcm_data::Dataset,
    test: &'a fedwcm_data::Dataset,
    threads: usize,
) -> Simulation<'a> {
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 4;
    cfg.participation = 0.5;
    cfg.rounds = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.eval_every = 3;
    cfg.seed = 55;
    cfg.threads = threads;
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
}

fn tiny_data() -> (fedwcm_data::Dataset, fedwcm_data::Dataset) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 40, 0.5);
    (spec.generate_train(&counts, 91), spec.generate_test(91))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any fault plan yields a bitwise-identical `History` at 1 and 4
    /// worker threads (the per-thread-count determinism the engine
    /// guarantees extends to the fault hook).
    #[test]
    fn faulted_history_identical_across_thread_counts(
        seed in any::<u64>(),
        dropout in 0.0f64..0.35, straggler in 0.0f64..0.3, corruption in 0.0f64..0.15,
    ) {
        let (train, test) = tiny_data();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let sim = tiny_sim(&train, &test, threads)
                .with_fault_plan(plan_from(seed, dropout, straggler, corruption, 0.0));
            let mut algo = support::StubAvg;
            runs.push(sim.run(&mut algo));
        }
        support::assert_bitwise_eq(&runs[0], &runs[1], "threads 1 vs 4");
    }

    /// The all-zero-rate plan is byte-identical to no plan at all: the
    /// serialized end-of-run server checkpoints match byte for byte.
    #[test]
    fn zero_rate_plan_checkpoint_bytes_match_no_plan(plan_seed in any::<u64>()) {
        let (train, test) = tiny_data();
        let without = tiny_sim(&train, &test, 1)
            .run_until(&mut support::StubAvg, 3)
            .expect("capture")
            .to_bytes();
        let with_zero = tiny_sim(&train, &test, 1)
            .with_fault_plan(FaultPlan::zero(plan_seed))
            .run_until(&mut support::StubAvg, 3)
            .expect("capture")
            .to_bytes();
        prop_assert_eq!(without, with_zero);
    }
}

/// A real chaos-run checkpoint: buffered cadence, every client-level
/// fault type, a lossy wire, killed at round 5 of 8 — so the straggler
/// buffer, the replay cache and the aggregation buffer are all non-empty
/// (seeds picked so two of the five pending uploads were delayed by the
/// wire, not by a straggler fault).
fn chaos_checkpoint() -> ServerCheckpoint {
    let (train, test) = tiny_data();
    let mut sim = tiny_sim(&train, &test, 1)
        .with_fault_plan(FaultPlan::new(FaultConfig {
            seed: 11,
            dropout: 0.1,
            straggler: 0.3,
            max_delay: 3,
            corruption: 0.1,
            replay: 0.2,
        }))
        .with_net_plan(NetPlan::new(NetConfig {
            drop: 0.1,
            corrupt: 0.05,
            delay: 0.3,
            max_delay_rounds: 2,
            ..NetConfig::zero(15)
        }));
    sim.cfg.rounds = 8;
    sim.cfg.participation = 0.75;
    sim.cfg.cadence = Cadence::BufferedK { k: 4 };
    sim.run_until(&mut support::StubAvg, 5).expect("capture")
}

/// The chaos checkpoint's FWCK bytes, computed once for the whole file.
fn chaos_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| chaos_checkpoint().to_bytes())
}

#[test]
fn chaos_checkpoint_exercises_every_buffer() {
    let dbg = format!("{:?}", chaos_checkpoint());
    for needle in [
        "pending: [PendingUpdate",
        "via_net: true",
        "agg_buffer: [BufferedUpdate",
        "Some([",
    ] {
        assert!(dbg.contains(needle), "checkpoint lacks `{needle}`");
    }
}

/// "Bytes unchanged" pinned, not asserted: the CRC32 of the chaos
/// checkpoint's FWCK bytes (`fl_properties/chaos_fwck`), taken at commit
/// fe5c3aa before the codec was rewritten around one field table, and
/// re-blessed (49,668 B) when the replay cache started holding only
/// uploads a later replay reads.
#[test]
fn chaos_checkpoint_bytes_match_the_golden_crc() {
    let crc = fedwcm_transport::frame::crc32(chaos_bytes());
    let mut golden = Golden::new("fl_properties");
    golden.check("chaos_fwck", format!("{crc:#010X}"));
    golden.finish();
}

/// Every strict prefix of a real checkpoint is `Malformed`: no field is
/// optional and the trailing-byte check is the only accepting state.
#[test]
fn every_strict_prefix_of_a_checkpoint_is_malformed() {
    let bytes = chaos_bytes();
    for keep in 0..bytes.len() {
        assert_eq!(
            ServerCheckpoint::from_bytes(&bytes[..keep]).err(),
            Some(CheckpointError::Malformed),
            "prefix of {keep} bytes"
        );
    }
}

/// A length field blown up to `u64::MAX` is rejected without
/// allocating — on the record-vector and blob paths too, not only the
/// f32 one. Every 8-byte window holding a small count is blown up in
/// turn: the parse must *return* (a decoder that reserved `u64::MAX`
/// elements would panic or abort instead), and the windows that hold the
/// parameter count — the global vector and every buffered delta — are
/// certainly lengths, so they must be `Malformed`.
#[test]
fn blown_up_length_fields_are_rejected_without_allocating() {
    let bytes = chaos_bytes();
    let ckpt = ServerCheckpoint::from_bytes(bytes).expect("own bytes parse");
    let n_params = ckpt.global().len() as u64;
    let mut vectors = 0usize;
    // Start past magic, version and the fingerprint (whose last word is
    // the parameter count as a plain number, not a length).
    for at in 40..bytes.len() - 8 {
        let word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if word == 0 || word > 1 << 20 {
            continue;
        }
        let mut bad = bytes.to_vec();
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let verdict = ServerCheckpoint::from_bytes(&bad);
        if word == n_params {
            assert_eq!(verdict.err(), Some(CheckpointError::Malformed), "at {at}");
            vectors += 1;
        }
    }
    assert!(vectors >= 4, "only {vectors} parameter-length fields found");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single-byte mutation parses to `Ok` or `Err`, never a panic;
    /// and whatever is accepted re-serializes to bytes that parse back
    /// to themselves (`from_bytes → to_bytes` is the identity on
    /// accepted input).
    #[test]
    fn single_byte_mutations_never_panic_and_accepted_input_is_canonical(
        pos in any::<usize>(), flip in 1u8..=255,
    ) {
        let mut bytes = chaos_bytes().to_vec();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        if let Ok(ckpt) = ServerCheckpoint::from_bytes(&bytes) {
            let again = ckpt.to_bytes();
            let reparsed = ServerCheckpoint::from_bytes(&again);
            prop_assert!(reparsed.is_ok(), "accepted input must re-parse (byte {at})");
            prop_assert_eq!(reparsed.map(|c| c.to_bytes()).ok(), Some(again));
        }
    }
}
