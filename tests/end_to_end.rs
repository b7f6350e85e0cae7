//! Cross-crate integration tests: the full pipeline from synthetic data
//! through partitioning, federated training, and evaluation. The paper's
//! claims are checked over paired seeds in `tests/claims.rs`.

use fedwcm_suite::prelude::*;

fn task(seed: u64, rounds: usize) -> (Dataset, Dataset, FlConfig) {
    let spec = DatasetPreset::FashionMnist.spec();
    let train = spec.generate_train(&longtail_counts(10, 80, 0.1), seed);
    let test = spec.generate_test(seed);
    let mut cfg = FlConfig::default_sim();
    (cfg.clients, cfg.participation, cfg.rounds) = (10, 0.4, rounds);
    (cfg.local_epochs, cfg.batch_size, cfg.eval_every, cfg.seed) = (2, 20, 5, seed);
    (train, test, cfg)
}

fn sim<'a>(train: &'a Dataset, test: &'a Dataset, cfg: &FlConfig) -> Simulation<'a> {
    let views = paper_partition(train, cfg.clients, 0.3, cfg.seed).views(train);
    let model =
        || fedwcm_suite::nn::models::mlp(64, &[48], 10, &mut Xoshiro256pp::seed_from(31337));
    Simulation::new(cfg.clone(), train, test, views, Box::new(model))
}

#[test]
fn full_run_deterministic_across_thread_env() {
    let (train, test, mut cfg) = task(1003, 25);
    let mut run = |threads| {
        cfg.threads = threads;
        sim(&train, &test, &cfg).run(&mut FedWcm::new()).records
    };
    assert_eq!(run(1), run(3));
}

#[test]
fn all_main_methods_produce_finite_trajectories() {
    let (train, test, cfg) = task(1004, 6);
    let s = sim(&train, &test, &cfg);
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
            let loss = r.train_loss.expect("every round reported");
            assert!(loss.is_finite(), "{} loss diverged", h.name);
            assert!(r.update_norm.is_finite(), "{} update diverged", h.name);
        }
    }
}
