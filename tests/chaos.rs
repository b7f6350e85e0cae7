//! Chaos acceptance tests (ISSUE 3): FedWCM under realistic client
//! unreliability — 30% dropout plus 10% stragglers on the CIFAR-10-preset
//! synthetic task — must still converge, landing within 5 accuracy points
//! of the fault-free run; and checkpoint/resume must be bitwise exact for
//! the real algorithms, not just test stubs.

use fedwcm_suite::faults::FaultConfig;
use fedwcm_suite::prelude::*;

fn cifar_task(seed: u64) -> (Dataset, Dataset, FlConfig) {
    let spec = DatasetPreset::Cifar10.spec();
    let counts = longtail_counts(10, 60, 0.1);
    let train = spec.generate_train(&counts, seed);
    let test = spec.generate_test(seed);
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 8;
    cfg.participation = 0.5;
    cfg.rounds = 15;
    cfg.local_epochs = 2;
    cfg.batch_size = 20;
    cfg.eval_every = 5;
    cfg.seed = seed;
    (train, test, cfg)
}

fn sim<'a>(train: &'a Dataset, test: &'a Dataset, cfg: &FlConfig) -> Simulation<'a> {
    let views = paper_partition(train, cfg.clients, 0.3, cfg.seed).views(train);
    Simulation::new(
        cfg.clone(),
        train,
        test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(20_25);
            // 3×8×8 synthetic CIFAR-10 images, flattened.
            fedwcm_suite::nn::models::mlp(192, &[32], 10, &mut rng)
        }),
    )
}

/// 30% dropout + 10% stragglers (up to 3 rounds late).
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        dropout: 0.3,
        straggler: 0.1,
        max_delay: 3,
        ..FaultConfig::zero(seed)
    })
}

#[test]
fn fedwcm_converges_under_dropout_and_stragglers() {
    let (train, test, cfg) = cifar_task(2001);
    let clean = sim(&train, &test, &cfg).run(&mut FedWcm::new());
    let chaotic = sim(&train, &test, &cfg)
        .with_fault_plan(chaos_plan(0xC0A7))
        .run(&mut FedWcm::new());

    let clean_acc = clean.final_accuracy(2);
    let chaos_acc = chaotic.final_accuracy(2);
    assert!(
        chaos_acc > clean_acc - 0.05,
        "chaos run collapsed: {chaos_acc:.4} vs fault-free {clean_acc:.4}"
    );

    // The report must show the faults actually landed.
    let report = chaotic.resilience_report(Some(&clean));
    assert!(report.totals.dropouts > 0, "no dropouts injected");
    assert!(report.totals.stragglers > 0, "no stragglers injected");
    assert!(
        report.totals.late_merged > 0,
        "no straggler upload ever merged late"
    );
    assert!(report.baseline_accuracy.is_some());
    // And the fault-free run reports an all-zero tally.
    let clean_report = clean.resilience_report(None);
    assert_eq!(clean_report.totals.injected(), 0);
    assert_eq!(clean_report.quorum_failures, 0);
}

/// The same chaos acceptance bar, under the buffered-K and fully-async
/// cadences: FedWCM must still land within 5 points of the fault-free
/// synchronous baseline despite 30% dropout and 10% stragglers. `k` is
/// sized below the post-dropout arrival rate (~2.8 healthy uploads per
/// round) so the buffer keeps flushing; the async window covers the
/// whole 4-client cohort.
#[test]
fn buffered_and_async_cadences_survive_chaos() {
    let (train, test, cfg) = cifar_task(2004);
    let clean = sim(&train, &test, &cfg).run(&mut FedWcm::new());
    let clean_acc = clean.final_accuracy(2);

    for cadence in [
        Cadence::BufferedK { k: 2 },
        Cadence::Async { max_in_flight: 4 },
    ] {
        let mut c = cfg.clone();
        c.cadence = cadence;
        let chaotic = sim(&train, &test, &c)
            .with_fault_plan(chaos_plan(0xC0A7))
            .run(&mut FedWcm::new());
        let acc = chaotic.final_accuracy(2);
        assert!(
            acc > clean_acc - 0.05,
            "{} chaos run collapsed: {acc:.4} vs fault-free sync {clean_acc:.4}",
            cadence.label()
        );
        assert!(
            chaotic.records.iter().map(|r| r.aggregations).sum::<u32>() > 0,
            "{} never aggregated",
            cadence.label()
        );
    }
}

/// The transport chaos acceptance bar (ISSUE 8): stack a lossy wire —
/// 10% dropped frames, 5% corrupted frames, deliveries delayed up to 2
/// rounds — on top of the PR-3 fault plan. Retries and the straggler/
/// dropout degradation paths must keep FedWCM within 5 accuracy points
/// of the clean synchronous baseline.
#[test]
fn fedwcm_converges_over_a_lossy_wire() {
    let (train, test, cfg) = cifar_task(2005);
    let clean = sim(&train, &test, &cfg).run(&mut FedWcm::new());
    let net = NetConfig::parse("drop:0.1,corrupt:0.05,delay:2,seed:19991").unwrap_or_else(|e| {
        panic!("spec must parse: {e}");
    });
    let chaotic = sim(&train, &test, &cfg)
        .with_fault_plan(chaos_plan(0xC0A7))
        .with_net_plan(NetPlan::new(net))
        .run(&mut FedWcm::new());

    let clean_acc = clean.final_accuracy(2);
    let chaos_acc = chaotic.final_accuracy(2);
    assert!(
        chaos_acc > clean_acc - 0.05,
        "lossy-wire run collapsed: {chaos_acc:.4} vs clean {clean_acc:.4}"
    );

    let totals = chaotic.net_totals();
    assert!(totals.frames_sent > 0, "transport never engaged");
    assert!(
        totals.retries > 0,
        "a 10%-drop wire must force at least one retry over 15 rounds"
    );
    // The report surfaces the transport outcomes next to the faults.
    let report = chaotic.resilience_report(Some(&clean)).to_string();
    assert!(
        report.contains("network:"),
        "report must show the wire:\n{report}"
    );
    // The clean run's books stay silent.
    assert!(clean.net_totals().is_zero());
}

#[test]
fn fedwcm_crash_resume_matches_uninterrupted_run() {
    let (train, test, mut cfg) = cifar_task(2002);
    cfg.rounds = 8;
    cfg.eval_every = 2;
    let s = sim(&train, &test, &cfg).with_fault_plan(chaos_plan(0x5EED));

    let full = s.run(&mut FedWcm::new());

    // Kill at round 4, serialize, restart from bytes.
    let ckpt = s
        .run_until(&mut FedWcm::new(), 4)
        .expect("FedWCM checkpoints");
    let bytes = ckpt.to_bytes();
    let restored = ServerCheckpoint::from_bytes(&bytes).expect("parse");
    let resumed = s.resume(&mut FedWcm::new(), &restored).expect("resume");

    // Every column, the adapted α included, survives the resume.
    assert_eq!(full.records, resumed.records);
}

#[test]
fn momentum_baselines_checkpoint_too() {
    // Crash/resume bitwise equality for the baseline algorithms with
    // cross-round server state.
    let (train, test, mut cfg) = cifar_task(2003);
    cfg.rounds = 6;
    cfg.eval_every = 3;
    let s = sim(&train, &test, &cfg);

    type MakeAlgo = Box<dyn Fn() -> Box<dyn FederatedAlgorithm>>;
    let algos: Vec<(MakeAlgo, &str)> = vec![
        (Box::new(|| Box::new(FedAvg::new())), "FedAvg"),
        (Box::new(|| Box::new(FedCm::new(0.1))), "FedCM"),
        (Box::new(|| Box::new(Scaffold::new(8))), "SCAFFOLD"),
    ];
    for (make, label) in algos {
        let full = s.run(make().as_mut());
        let ckpt = s
            .run_until(make().as_mut(), 3)
            .unwrap_or_else(|e| panic!("{label} checkpoint failed: {e}"));
        let resumed = s
            .resume(make().as_mut(), &ckpt)
            .unwrap_or_else(|e| panic!("{label} resume failed: {e}"));
        assert_eq!(full.records, resumed.records, "{label}");
    }
}
