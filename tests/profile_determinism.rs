//! Profile determinism: because JSONL traces are bitwise identical
//! across worker-thread counts (see `trace_determinism.rs`), every
//! artifact `flprof` derives from them — the `fedwcm-prof/v1` profile
//! document, the folded flame stacks — must be byte-identical too.
//! That is what lets one document be pinned by its CRC32: a changed
//! phase count, tick total, attribution or critical path is a real
//! behavioural change, never scheduling noise.

use fedwcm_algos::fedavg::FedAvg;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_fl::{FlConfig, Simulation};
use fedwcm_nn::models::mlp;
use fedwcm_obs::{analyze_text, folded_stacks};
use fedwcm_stats::{Rng, Xoshiro256pp};
use fedwcm_trace::{JsonlSink, LogicalClock, MetricsRegistry, SharedBuf, Tracer};
use std::sync::Arc;

#[path = "support/golden.rs"]
mod golden;
use golden::Golden;

/// Run a small traced CIFAR-10-preset simulation and return the raw
/// JSONL trace text.
fn traced_cifar10_run(threads: usize) -> String {
    let spec = DatasetPreset::Cifar10.spec();
    let counts = longtail_counts(spec.classes, 24, 0.5);
    let train = spec.generate_train(&counts, 55);
    let test = spec.generate_test(55);

    let mut cfg = FlConfig::default_sim();
    cfg.clients = 5;
    cfg.participation = 0.6;
    cfg.rounds = 3;
    cfg.eval_every = 2;
    cfg.threads = threads;

    let part = paper_partition(&train, cfg.clients, 0.5, cfg.seed);
    let views = part.views(&train);

    let buf = SharedBuf::new();
    let tracer = Tracer::new(
        Box::new(LogicalClock::new()),
        Arc::new(JsonlSink::new(buf.clone())),
    );
    let dim = train.dim();
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(move || {
            let mut rng = Xoshiro256pp::seed_from(9);
            mlp(dim, &[16], 10, &mut rng)
        }),
    )
    .with_tracer(tracer.clone())
    .with_metrics(Arc::new(MetricsRegistry::new()));

    let _history = sim.run(&mut FedAvg::new());
    tracer.flush();
    String::from_utf8(buf.contents()).expect("trace is UTF-8")
}

#[test]
fn cifar10_profiles_are_bitwise_identical_across_thread_counts() {
    let t1 = traced_cifar10_run(1);
    let t4 = traced_cifar10_run(4);
    assert_eq!(t1, t4, "traces must already be identical");

    let (p1, f1) = analyze_text(&t1).expect("1-thread trace analyzes");
    let (p4, f4) = analyze_text(&t4).expect("4-thread trace analyzes");

    // The profile documents and flame stacks are byte-identical.
    let json = |p: &fedwcm_obs::Profile| p.to_json().to_json_string_pretty();
    assert_eq!(json(&p1), json(&p4));
    assert_eq!(folded_stacks(&f1), folded_stacks(&f4));
    assert_eq!(p1.table(), p4.table());
}

#[test]
fn cifar10_profile_has_the_expected_shape() {
    let text = traced_cifar10_run(1);
    let (profile, _) = analyze_text(&text).expect("trace analyzes");
    assert_eq!(profile.rounds.len(), 3, "one RoundProfile per round");
    assert!(profile.phase("round").is_some());
    assert!(profile.phase("client_update").is_some());
    // Every tick is attributed exactly once.
    let a = profile.attribution;
    assert_eq!(
        a.compute_ticks + a.fault_ticks + a.wire_ticks + a.overhead_ticks,
        profile.total_ticks
    );
}

/// The pretty `fedwcm-prof/v1` document of the one-thread run, pinned
/// by its CRC32 (`profile_determinism/cifar10`): phase counts, total /
/// self / percentile ticks, the attribution and every round's label and
/// critical path, checked with exact equality. Taken at commit 420b8c7;
/// only a trace epoch re-blesses it, in a commit of its own.
#[test]
fn cifar10_profile_document_matches_its_golden_crc() {
    let (profile, _) = analyze_text(&traced_cifar10_run(1)).expect("trace analyzes");
    let doc = profile.to_json().to_json_string_pretty();
    let crc = fedwcm_transport::frame::crc32(doc.as_bytes());
    let mut golden = Golden::new("profile_determinism");
    golden.check("cifar10", format!("{crc:#010X}"));
    golden.finish();
}

#[test]
fn trace_reader_rejects_truncated_and_mutated_traces_without_panicking() {
    let text = traced_cifar10_run(1);
    assert!(
        text.is_ascii() && text.ends_with('\n'),
        "the sink's encoding"
    );
    // `analyze_text` is `parse_trace` → `build_forest` → `analyze`: each
    // input below comes back `Ok` or a typed `ObsError`; a panic anywhere
    // on the way fails the test.
    analyze_text(&text).expect("the untouched trace reads");

    // Every strict prefix. One that ends inside a record has lost its
    // closing brace, so it is always an error; one that ends after a
    // whole record (with or without its newline) parses and leaves spans
    // open, which the forest may accept or reject.
    let bytes = text.as_bytes();
    for cut in 0..text.len() {
        let result = analyze_text(&text[..cut]);
        let mid_line = cut > 0 && bytes[cut - 1] != b'\n' && bytes[cut] != b'\n';
        assert!(!mid_line || result.is_err(), "prefix of {cut} bytes read");
    }

    // One byte replaced by another ASCII byte (`parse_trace` takes a
    // `&str`, so nothing that is not UTF-8 reaches it) at a seeded sample
    // of offsets.
    let mut rng = Xoshiro256pp::seed_from(0x0B5E);
    let mut rejected = 0;
    for _ in 0..600 {
        let at = rng.index(bytes.len());
        let mut with = rng.next_below(127) as u8;
        with += u8::from(with >= bytes[at]);
        let mut mutated = bytes.to_vec();
        mutated[at] = with;
        let mutated = String::from_utf8(mutated).expect("ASCII stays UTF-8");
        rejected += usize::from(analyze_text(&mutated).is_err());
    }
    assert!(rejected >= 450, "only {rejected} of 600 mutations rejected");
}
