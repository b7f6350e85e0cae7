//! Cross-crate integration tests: the full pipeline from synthetic data
//! through partitioning, federated training, and evaluation.

use fedwcm_suite::prelude::*;

fn task(imbalance: f64, beta: f64, seed: u64) -> (Dataset, Dataset, FlConfig) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 80, imbalance);
    let train = spec.generate_train(&counts, seed);
    let test = spec.generate_test(seed);
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 10;
    cfg.participation = 0.4;
    cfg.rounds = 25;
    cfg.local_epochs = 2;
    cfg.batch_size = 20;
    cfg.eval_every = 5;
    cfg.seed = seed;
    let _ = beta;
    (train, test, cfg)
}

fn sim<'a>(train: &'a Dataset, test: &'a Dataset, cfg: &FlConfig, beta: f64) -> Simulation<'a> {
    let views = paper_partition(train, cfg.clients, beta, cfg.seed).views(train);
    Simulation::new(
        cfg.clone(),
        train,
        test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(31337);
            fedwcm_suite::nn::models::mlp(64, &[48], 10, &mut rng)
        }),
    )
}

#[test]
fn fedwcm_beats_fedcm_under_longtail() {
    // The paper's headline claim, end to end on the real pipeline.
    let (train, test, cfg) = task(0.05, 0.3, 1001);
    let s = sim(&train, &test, &cfg, 0.3);
    let wcm = s.run(&mut FedWcm::new()).final_accuracy(3);
    let cm = s.run(&mut FedCm::new(0.1)).final_accuracy(3);
    assert!(
        wcm > cm,
        "FedWCM ({wcm:.4}) must beat FedCM ({cm:.4}) at IF=0.05"
    );
}

#[test]
fn fedwcm_competitive_when_balanced() {
    // No long tail: FedWCM must not lose materially to FedAvg (its α
    // stays at the FedCM base and weighting is near-uniform).
    let (train, test, cfg) = task(1.0, 0.3, 1002);
    let s = sim(&train, &test, &cfg, 0.3);
    let wcm = s.run(&mut FedWcm::new()).final_accuracy(3);
    let avg = s.run(&mut FedAvg::new()).final_accuracy(3);
    assert!(
        wcm > avg - 0.05,
        "FedWCM ({wcm:.4}) must stay within 5pts of FedAvg ({avg:.4}) when balanced"
    );
}

#[test]
fn full_run_deterministic_across_thread_env() {
    let (train, test, cfg) = task(0.1, 0.3, 1003);
    let s = sim(&train, &test, &cfg, 0.3);
    let h1 = s.run(&mut FedWcm::new());
    let h2 = s.run(&mut FedWcm::new());
    for (a, b) in h1.records.iter().zip(&h2.records) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.alpha, b.alpha);
    }
}

#[test]
fn all_main_methods_produce_finite_trajectories() {
    let (train, test, mut cfg) = task(0.1, 0.3, 1004);
    cfg.rounds = 6;
    let s = sim(&train, &test, &cfg, 0.3);
    let algos: Vec<Box<dyn FederatedAlgorithm>> = vec![
        Box::new(FedAvg::new()),
        Box::new(FedCm::new(0.1)),
        Box::new(FedWcm::new()),
        Box::new(BalanceFl::new()),
        Box::new(FedGrab::new(train.class_counts())),
        Box::new(FedProx::new(0.01)),
        Box::new(Scaffold::new(10)),
    ];
    for mut algo in algos {
        let h = s.run(algo.as_mut());
        assert_eq!(h.records.len(), 6, "{}", h.name);
        for r in &h.records {
            assert!(
                r.train_loss.expect("every round reported").is_finite(),
                "{} loss diverged",
                h.name
            );
            assert!(r.update_norm.is_finite(), "{} update diverged", h.name);
        }
    }
}

#[test]
fn fedwcm_x_handles_quantity_skew() {
    let (train, test, cfg) = task(0.1, 0.3, 1005);
    let views = fedgrab_partition(&train, cfg.clients, 0.3, cfg.seed).views(&train);
    let s = Simulation::new(
        cfg.clone(),
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(31337);
            fedwcm_suite::nn::models::mlp(64, &[48], 10, &mut rng)
        }),
    );
    let b_hat =
        FedWcm::standard_batches_for(train.len(), cfg.clients, cfg.batch_size, cfg.local_epochs);
    let h = s.run(&mut FedWcm::x(b_hat));
    assert!(
        h.final_accuracy(3) > 0.3,
        "FedWCM-X acc {}",
        h.final_accuracy(3)
    );
}
