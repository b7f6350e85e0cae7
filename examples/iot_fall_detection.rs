//! IoT scenario from the paper's introduction: activity recognition where
//! common activities (sitting, walking…) dominate and critical events
//! (falls, medical anomalies) are rare — an extreme long tail — across a
//! fleet of home devices, each seeing its own skewed slice of activities.
//!
//! Beyond overall accuracy, what matters here is *tail recall*: does the
//! model still detect the rare critical classes? This example reports
//! head/tail accuracy for FedAvg, FedCM, and FedWCM.
//!
//! ```sh
//! cargo run --release --example iot_fall_detection
//! ```

use fedwcm_experiments::analysis::per_class::head_tail_summary;
use fedwcm_suite::prelude::*;

const ACTIVITY_NAMES: [&str; 10] = [
    "sitting",
    "walking",
    "standing",
    "lying",
    "cooking",
    "cleaning",
    "stairs",
    "stumble",
    "fall",
    "medical-alert",
];

fn main() {
    // Severe long tail: falls/alerts are ~5% as common as sitting. Each
    // sample is an IMU "spectrogram window" (3 channels × 8×8 bins), so
    // the devices train the residual CNN backbone.
    let spec = DatasetPreset::Cifar10.spec();
    let counts = longtail_counts(10, 470, 0.1);
    println!("samples per activity:");
    for (name, n) in ACTIVITY_NAMES.iter().zip(&counts) {
        println!("  {name:<14} {n}");
    }
    let train = spec.generate_train(&counts, 2026);
    let test = spec.generate_test(2026);

    // 20 homes, each with its own activity mix; only a few report per
    // round (realistic duty-cycled IoT uplinks) — the low-participation
    // regime where client momentum is most fragile.
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 20;
    cfg.participation = 0.25;
    cfg.rounds = 80;
    cfg.local_epochs = 5;
    cfg.batch_size = 20;
    cfg.eval_every = 8;
    let views = paper_partition(&train, cfg.clients, 0.6, cfg.seed).views(&train);

    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(99);
            fedwcm_suite::nn::models::res_lite(3, 8, 8, 10, 12, &mut rng)
        }),
    );

    println!(
        "\n{:<8} {:>8} {:>8} {:>8} {:>10}",
        "method", "overall", "head", "tail", "fall-acc"
    );
    for algo in [
        Box::new(FedAvg::new()) as Box<dyn FederatedAlgorithm>,
        Box::new(FedCm::new(0.1)),
        Box::new(FedWcm::new()),
    ] {
        let mut algo = algo;
        let (history, mut model) = sim.run_returning_model(algo.as_mut());
        let summary = head_tail_summary(&mut model, &test, &counts);
        println!(
            "{:<8} {:>8.4} {:>8.4} {:>8.4} {:>10.4}",
            history.name,
            history.final_accuracy(2),
            summary.head_accuracy,
            summary.tail_accuracy,
            summary.per_class[8], // "fall"
        );
    }
    println!("\nThe point: under a severe activity long tail, FedWCM keeps\nrare-event (tail) accuracy up where plain client momentum collapses.");
}
