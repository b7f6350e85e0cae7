//! `save_state` → a fresh instance → `load_state` is the identity on what
//! comes next, for every method of the zoo (ROADMAP 4(b); SNIPPETS §2
//! invariant 4): stop a run after `STOP` rounds, carry the checkpoint
//! through bytes, resume it on an algorithm built from scratch, and the
//! rounds that follow — every `RoundRecord` column and the global
//! parameters after each — are bit for bit the uninterrupted run's.
//!
//! The checkpoint bytes at `STOP` are pinned per method (their CRC32, as
//! `state_roundtrip/<method>` in `results/golden.tsv`), so a refactor of the state codec cannot move a layout unnoticed, and
//! every method's `load_state` rejects its own blob with one byte too
//! many or one too few.
//!
//! Every method captures its state. An algorithm that implements neither
//! half of the pair says so both ways (the trait's defaults: `None` from
//! `save_state`, `Unsupported` from `load_state`), and a checkpoint of it
//! fails with `AlgorithmStateUnsupported`
//! (`crates/fl/tests/faults_and_resume.rs`).

use fedwcm_experiments::Method::{self, *};
use fedwcm_experiments::{build_method, ExpConfig, PreparedTask, Scale};
use fedwcm_suite::data::synth::DatasetPreset;
use fedwcm_suite::fl::{
    ClientEnv, ClientUpdate, FederatedAlgorithm, RoundInput, RoundLog, ServerCheckpoint, StateError,
};
use fedwcm_transport::frame::crc32;

#[path = "support/golden.rs"]
mod golden;
use golden::Golden;

/// Rounds before the checkpoint: momentum buffers, control variates and
/// FedWCM's adaptive α have all moved off their initial values.
const STOP: usize = 3;

#[test]
fn every_method_resumes_bit_for_bit_or_says_unsupported() {
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4001);
    let task = exp.prepare();
    let sim = task.simulation();
    assert!(STOP + 2 <= sim.cfg.rounds, "rounds left to compare");

    let mut golden = Golden::new("state_roundtrip");
    for method in Method::ALL {
        let label = method.label();
        let mut stopped = build_method(method, &task);
        let checkpoint = sim
            .run_until(&mut *stopped, STOP)
            .unwrap_or_else(|e| panic!("{label}: cannot checkpoint its state ({e})"));
        let crc = crc32(&checkpoint.to_bytes());
        golden.check(&format!("{method:?}"), format!("{crc:#010X}"));

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
    golden.finish();
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

/// A checkpoint that parses can still carry a state no run could have
/// written: a per-client vector (a SCAFFOLD client control, a FedDyn
/// client state) of another length than the shared one, or a shared
/// vector (the server control, the mean state, a momentum buffer) of
/// another length than the model, with per-client vectors that agree
/// with it. Spliced into real `FWCK` bytes, such a blob must be refused
/// at resume, not panic at the first round that reads it.
#[test]
fn a_state_vector_of_another_length_is_refused_at_resume() {
    use fedwcm_suite::fl::codec::{decode_state, Wire};

    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4001);
    let task = exp.prepare();
    let sim = task.simulation();
    for method in [Scaffold, FedDyn] {
        let (bytes, blob) = stopped_at(method, &task);
        let (shared, per_client): (Vec<f32>, Vec<Vec<f32>>) =
            decode_state(&blob).expect("its own blob");
        // A client the next round samples, holding a full-length vector.
        let client = sim
            .sampled_clients(STOP)
            .into_iter()
            .find(|&k| per_client[k].len() == shared.len())
            .expect("a sampled client with a vector");
        let mut short_client = per_client.clone();
        short_client[client] = vec![0.5; 5];
        let mut short_shared = vec![Vec::new(); per_client.len()];
        short_shared[client] = vec![0.5; 5];
        for (what, shared, per_client) in [
            ("a client's vector", shared, short_client),
            ("the shared vector", vec![0.5; 5], short_shared),
        ] {
            let mut spliced = shared.encode();
            per_client.put(&mut spliced);
            let what = format!("{what} 5 floats long, client {client}");
            assert_refused(method, &task, &bytes, &blob, &spliced, &what);
        }
    }
    // A momentum buffer alone (FedCM, FedAvgM, Mime-lite), or behind
    // FedWCM's α.
    for method in [FedCm, FedWcm, FedAvgM, MimeLite] {
        let (bytes, blob) = stopped_at(method, &task);
        let mut spliced = Vec::new();
        if method == FedWcm {
            let (alpha, _): (f32, Vec<f32>) = decode_state(&blob).expect("its own blob");
            alpha.put(&mut spliced);
        }
        vec![0.5f32; 5].put(&mut spliced);
        assert_refused(
            method,
            &task,
            &bytes,
            &blob,
            &spliced,
            "momentum 5 floats long",
        );
    }
}

/// FedWCM's α is a momentum value, in `[0, 1]`: a state that carries
/// another, NaN included, is refused at resume, not at the first local
/// step that blends with it.
#[test]
fn a_fedwcm_alpha_outside_the_unit_interval_is_refused_at_resume() {
    use fedwcm_suite::fl::codec::{decode_state, Wire};

    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4001);
    let task = exp.prepare();
    let (bytes, blob) = stopped_at(FedWcm, &task);
    let (_, momentum): (f32, Vec<f32>) = decode_state(&blob).expect("its own blob");
    for alpha in [2.0f32, f32::NAN] {
        let mut spliced = alpha.encode();
        momentum.put(&mut spliced);
        assert_refused(
            FedWcm,
            &task,
            &bytes,
            &blob,
            &spliced,
            &format!("α {alpha}"),
        );
    }
}

/// `method` run to `STOP` on `task`: the checkpoint's bytes and the state
/// blob inside them.
fn stopped_at(method: Method, task: &PreparedTask) -> (Vec<u8>, Vec<u8>) {
    let mut stopped = build_method(method, task);
    let bytes = task
        .simulation()
        .run_until(&mut *stopped, STOP)
        .expect("checkpointable")
        .to_bytes();
    (bytes, stopped.save_state().expect("it just saved"))
}

/// The checkpoint `bytes` with its state `blob` replaced by `spliced`
/// parses, and resuming `method` from it is refused as a malformed state.
fn assert_refused(
    method: Method,
    task: &PreparedTask,
    bytes: &[u8],
    blob: &[u8],
    spliced: &[u8],
    what: &str,
) {
    use fedwcm_suite::fl::CheckpointError;

    let label = method.label();
    // The blob is a `u64` length, then its bytes, inside the FWCK.
    let at = bytes
        .windows(blob.len())
        .position(|w| w == blob)
        .expect("the state blob is in the checkpoint");
    let len_at = at - 8;
    assert_eq!(bytes[len_at..at], (blob.len() as u64).to_le_bytes());
    let mut edited = bytes[..len_at].to_vec();
    edited.extend_from_slice(&(spliced.len() as u64).to_le_bytes());
    edited.extend_from_slice(spliced);
    edited.extend_from_slice(&bytes[at + blob.len()..]);

    let checkpoint = ServerCheckpoint::from_bytes(&edited)
        .unwrap_or_else(|e| panic!("{label}: the spliced checkpoint parses ({e})"));
    let resumed = task
        .simulation()
        .resume(&mut *build_method(method, task), &checkpoint);
    assert_eq!(
        resumed.err(),
        Some(CheckpointError::State(StateError::Malformed)),
        "{label}: {what}"
    );
}
