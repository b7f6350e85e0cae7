//! Privacy-preserving global-distribution gathering (paper §5.5 /
//! Appendix C): clients encrypt their local class counts with the RLWE
//! additively-homomorphic scheme; the server aggregates ciphertexts
//! without decrypting; a designated key-holder recovers only the global
//! distribution — from which each client scores its own counts. The
//! experiments build every FedWCM's prior through this exchange
//! (`PreparedTask::class_prior`).
//!
//! ```sh
//! cargo run --release --example private_distribution
//! ```

use fedwcm_suite::core::{ClassPrior, ScoreForm};
use fedwcm_suite::he::protocol::aggregate_distributions;
use fedwcm_suite::he::rlwe::RlweParams;
use fedwcm_suite::prelude::*;

fn main() {
    // A federated task whose clients hold skewed slices of a long tail.
    let spec = DatasetPreset::Cifar10.spec();
    let counts = longtail_counts(10, 150, 0.1);
    let train = spec.generate_train(&counts, 7);
    let partition = paper_partition(&train, 10, 0.1, 7);

    // Each client's private payload: its local class-count vector.
    let client_counts = partition.counts_matrix(&train);
    println!(
        "client 0 local counts (stays private): {:?}",
        client_counts[0]
    );

    // Run the protocol.
    let params = RlweParams::default_params();
    let (global, report) = aggregate_distributions(&client_counts, params, 7);

    // The server/key-holder learns only the aggregate.
    println!("\nrecovered global counts: {global:?}");
    let truth = train.class_counts();
    assert_eq!(global, truth, "HE aggregation must be exact");
    println!("matches ground truth: true");

    println!("\nprotocol accounting (Table 6 quantities):");
    println!("  clients:                 {}", report.clients);
    println!("  plaintext per client:    {} B", report.plaintext_bytes);
    println!("  ciphertext per client:   {} B", report.ciphertext_bytes);
    println!(
        "  total upload:            {:.2} MB",
        report.total_upload_bytes as f64 / 1e6
    );
    println!(
        "  encrypt time per client: {:.4} ms",
        report.encrypt_seconds_per_client * 1e3
    );
    println!(
        "  aggregate+decrypt time:  {:.4} ms",
        report.aggregate_seconds * 1e3
    );

    // Each client scores its own counts against the decrypted aggregate.
    let clients = client_counts.iter().map(Vec::as_slice);
    let prior = ClassPrior::new(&global, clients, ScoreForm::Rectified);
    println!("\nFedWCM scarcity scores derived from the private aggregate:");
    for (k, s) in prior.scores().iter().enumerate() {
        println!("  client {k}: {s:.4}");
    }
}
