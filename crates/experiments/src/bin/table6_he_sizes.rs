//! Table 6: homomorphic-encryption overhead — plaintext vs ciphertext
//! sizes for {10, 20, 50, 100} classes, plus per-client encryption time
//! and the 100-client total-communication figure from Appendix C.

use fedwcm_experiments::parse_args;
use fedwcm_he::protocol::aggregate_distributions;
use fedwcm_he::rlwe::RlweParams;
use fedwcm_stats::rng::{Rng, Xoshiro256pp};

fn main() {
    let cli = parse_args(std::env::args());
    let params = RlweParams::default_params();
    println!("# Table 6 — HE distribution-aggregation overhead");
    println!(
        "# ring degree N={}, plaintext modulus t=2^20, q=2^62",
        params.degree
    );
    println!(
        "\n| {:>8} | {:>16} | {:>17} | {:>20} | {:>14} |",
        "classes", "plaintext (B)", "ciphertext (B)", "enc time/client (s)", "exact result"
    );

    let clients = 100usize;
    let mut rng = Xoshiro256pp::seed_from(cli.seed);
    for classes in [10usize, 20, 50, 100] {
        // Random per-client class counts (as a partition would produce).
        let counts: Vec<Vec<usize>> = (0..clients)
            .map(|_| (0..classes).map(|_| rng.index(60)).collect())
            .collect();
        let mut expected = vec![0usize; classes];
        for row in &counts {
            for (e, &c) in expected.iter_mut().zip(row) {
                *e += c;
            }
        }
        let (global, report) = aggregate_distributions(&counts, params, cli.seed);
        let exact = global == expected;
        println!(
            "| {:>8} | {:>16} | {:>17} | {:>20.6} | {:>14} |",
            classes,
            report.plaintext_bytes,
            report.ciphertext_bytes,
            report.encrypt_seconds_per_client,
            exact
        );
        if classes == 10 {
            println!(
                "# 100-client total upload: {:.2} MB (paper: 13.05 MB with BFV/TenSEAL)",
                report.total_upload_bytes as f64 / 1e6
            );
        }
        assert!(exact, "protocol must aggregate exactly");
    }
}
