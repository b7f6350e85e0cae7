//! `save_state` → a fresh instance → `load_state` is the identity on what
//! comes next, for every method of the zoo (ROADMAP 4(b); SNIPPETS §2
//! invariant 4): stop a run after `STOP` rounds, carry the checkpoint
//! through bytes, resume it on an algorithm built from scratch, and the
//! rounds that follow — every `RoundRecord` column and the global
//! parameters after each — are bit for bit the uninterrupted run's.
//!
//! Every method captures its state. An algorithm that implements neither
//! half of the pair says so both ways (the trait's defaults: `None` from
//! `save_state`, `Unsupported` from `load_state`), and a checkpoint of it
//! fails with `AlgorithmStateUnsupported`
//! (`crates/fl/tests/faults_and_resume.rs`).

use fedwcm_experiments::{build_method, ExpConfig, Method, Scale};
use fedwcm_suite::data::synth::DatasetPreset;
use fedwcm_suite::fl::{
    ClientEnv, ClientUpdate, FederatedAlgorithm, History, RoundInput, RoundLog, ServerCheckpoint,
    StateError,
};

/// Rounds before the checkpoint: momentum buffers, control variates and
/// FedWCM's adaptive α have all moved off their initial values.
const STOP: usize = 3;

/// Every column of every record, floats as bits, and the parameters
/// after each round: what "the same run" means here.
fn fingerprint(history: &History, globals: &[Vec<f32>]) -> Vec<(String, Vec<u32>)> {
    assert_eq!(history.records.len(), globals.len());
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    history
        .records
        .iter()
        .zip(globals)
        .map(|(r, g)| {
            let record = format!(
                "{} {:?} {} {:?} {:?} {} {} {:?} {:?}",
                r.round,
                bits(r.train_loss),
                r.update_norm.to_bits(),
                bits(r.test_acc),
                bits(r.alpha),
                r.aggregations,
                r.dropped_updates,
                r.faults,
                r.net,
            );
            (record, g.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

#[test]
fn every_method_resumes_bit_for_bit_or_says_unsupported() {
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4001);
    let task = exp.prepare();
    let sim = task.simulation();
    assert!(STOP + 2 <= sim.cfg.rounds, "rounds left to compare");

    for method in Method::ALL {
        let label = method.label();
        let checkpoint = sim
            .run_until(&mut *build_method(method, &task), STOP)
            .unwrap_or_else(|e| panic!("{label}: cannot checkpoint its state ({e})"));

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

        let (want, got) = (
            fingerprint(&whole, &whole_globals),
            fingerprint(&resumed, &resumed_globals),
        );
        for (round, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.0, g.0, "{label}: record of round {round}");
            assert!(w.1 == g.1, "{label}: parameters after round {round}");
        }
        assert_eq!(want.len(), got.len(), "{label}: rounds run");
    }
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
