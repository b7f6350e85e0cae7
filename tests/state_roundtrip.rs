//! `save_state` → a fresh instance → `load_state` is the identity on what
//! comes next, for every method of the zoo (ROADMAP 4(b); SNIPPETS §2
//! invariant 4): stop a run after `STOP` rounds, carry the checkpoint
//! through bytes, resume it on an algorithm built from scratch, and the
//! rounds that follow — every `RoundRecord` column and the global
//! parameters after each — are bit for bit the uninterrupted run's.
//!
//! The checkpoint bytes at `STOP` are pinned per method (their CRC32),
//! so a refactor of the state codec cannot move a layout unnoticed, and
//! every method's `load_state` rejects its own blob with one byte too
//! many or one too few.
//!
//! Every method captures its state. An algorithm that implements neither
//! half of the pair says so both ways (the trait's defaults: `None` from
//! `save_state`, `Unsupported` from `load_state`), and a checkpoint of it
//! fails with `AlgorithmStateUnsupported`
//! (`crates/fl/tests/faults_and_resume.rs`).

use fedwcm_experiments::Method::{self, *};
use fedwcm_experiments::{build_method, ExpConfig, Scale};
use fedwcm_suite::data::synth::DatasetPreset;
use fedwcm_suite::fl::{
    ClientEnv, ClientUpdate, FederatedAlgorithm, RoundInput, RoundLog, ServerCheckpoint, StateError,
};
use fedwcm_transport::frame::crc32;

/// Rounds before the checkpoint: momentum buffers, control variates and
/// FedWCM's adaptive α have all moved off their initial values.
const STOP: usize = 3;

/// CRC32 of each method's `FWCK` bytes at `STOP`, in `Method::ALL` order.
const PINNED_CHECKPOINTS: [(Method, u32); 19] = [
    (FedAvg, 0x7E39_EB0D),
    (BalanceFl, 0x36A6_9A14),
    (FedGrab, 0xE688_3222),
    (FedCm, 0x7C8A_1E19),
    (FedCmFocal, 0x5E95_B4F9),
    (FedCmBalanceLoss, 0x67E2_B653),
    (FedCmBalanceSampler, 0xE88F_5BA5),
    (FedWcm, 0x3F27_33C2),
    (FedWcmX, 0xAB21_0B45),
    (FedProx, 0xCD16_337A),
    (Scaffold, 0xBBC5_B49F),
    (FedDyn, 0x4E57_5FB3),
    (FedAvgM, 0x232C_B61E),
    (FedSam, 0x4730_1507),
    (MoFedSam, 0xCFBF_043D),
    (FedSpeed, 0x7165_8342),
    (FedSmoo, 0x3B52_0D12),
    (FedLesam, 0x4ABF_0078),
    (MimeLite, 0xE220_69BB),
];

#[test]
fn every_method_resumes_bit_for_bit_or_says_unsupported() {
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4001);
    let task = exp.prepare();
    let sim = task.simulation();
    assert!(STOP + 2 <= sim.cfg.rounds, "rounds left to compare");
    assert_eq!(
        PINNED_CHECKPOINTS.map(|(m, _)| m),
        Method::ALL,
        "one row per method"
    );

    let mut moved = Vec::new();
    for (method, pinned) in PINNED_CHECKPOINTS {
        let label = method.label();
        let mut stopped = build_method(method, &task);
        let checkpoint = sim
            .run_until(&mut *stopped, STOP)
            .unwrap_or_else(|e| panic!("{label}: cannot checkpoint its state ({e})"));
        let crc = crc32(&checkpoint.to_bytes());
        if crc != pinned {
            moved.push(format!("{label}: {crc:#010X}, pinned {pinned:#010X}"));
        }

        // Its own blob, one byte longer or shorter, does not load.
        let blob = stopped.save_state().expect("it just saved");
        let mut long = blob.clone();
        long.push(0);
        let mut fresh = build_method(method, &task);
        assert_eq!(
            fresh.load_state(&long),
            Err(StateError::Malformed),
            "{label}: a trailing byte"
        );
        if let Some((_, short)) = blob.split_last() {
            assert_eq!(
                fresh.load_state(short),
                Err(StateError::Malformed),
                "{label}: a missing last byte"
            );
        }

        let mut whole_globals = Vec::new();
        let whole = sim.run_with_observer(&mut *build_method(method, &task), |_, g| {
            whole_globals.push(g.to_vec());
        });

        // Through bytes, onto an instance that has seen no round.
        let checkpoint = ServerCheckpoint::from_bytes(&checkpoint.to_bytes())
            .unwrap_or_else(|e| panic!("{label}: checkpoint bytes do not parse ({e})"));
        let at_stop = whole_globals[STOP - 1].iter().map(|x| x.to_bits());
        assert!(
            at_stop.eq(checkpoint.global().iter().map(|x| x.to_bits())),
            "{label}: checkpointed parameters"
        );
        let mut resumed_globals = whole_globals[..STOP].to_vec();
        let resumed = sim
            .resume_with_observer(&mut *build_method(method, &task), &checkpoint, |_, g| {
                resumed_globals.push(g.to_vec());
            })
            .unwrap_or_else(|e| panic!("{label}: cannot resume from its own state ({e})"));

        // "The same run": every record column, and the parameters after
        // each round.
        assert_eq!(resumed.records, whole.records, "{label}: records");
        assert_eq!(whole_globals.len(), whole.records.len());
        assert_eq!(resumed_globals.len(), whole_globals.len(), "{label}");
        let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (r, (w, g)) in whole_globals.iter().zip(&resumed_globals).enumerate() {
            assert!(bits(w) == bits(g), "{label}: parameters after round {r}");
        }
    }
    assert!(
        moved.is_empty(),
        "{} checkpoint CRC(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn the_default_state_pair_is_unsupported() {
    struct Bare;
    impl FederatedAlgorithm for Bare {
        fn name(&self) -> String {
            "bare".into()
        }
        fn local_train(&self, _: &ClientEnv<'_>, _: &[f32]) -> ClientUpdate {
            unreachable!("never trained")
        }
        fn aggregate(&mut self, _: &mut [f32], _: &RoundInput<'_>) -> RoundLog {
            unreachable!("never aggregated")
        }
    }
    assert!(Bare.save_state().is_none());
    assert_eq!(Bare.load_state(&[]), Err(StateError::Unsupported));
}
