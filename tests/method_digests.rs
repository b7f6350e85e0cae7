//! Pinned digests of every method's smoke run: the judge for refactors of
//! the algorithm layer (client loops, server steps, constructors) that
//! must not move a bit.
//!
//! Each method of `Method::ALL` runs the smoke-scale FashionMNIST task on
//! the paper partition and on the FedGrab (quantity-skewed) partition, at
//! 1 and 2 worker threads. The digest is the CRC32 of every
//! `RoundRecord` field (floats as bit patterns) followed by the final
//! global parameters' bits, and at both thread counts it must equal the
//! value `results/golden.tsv` pins as `method_digests/<method>/<partition>`.
//! Every record must also carry a finite training loss and a finite
//! update norm.

use fedwcm_experiments::Method;
use fedwcm_experiments::{build_method, ExpConfig, Scale};
use fedwcm_suite::data::synth::DatasetPreset;

#[path = "support/record_digest.rs"]
mod record_digest;
use record_digest::record_digest;

#[path = "support/golden.rs"]
mod golden;
use golden::Golden;

/// CRC32 of one run: every record field, then the final parameters.
fn digest(exp: &ExpConfig, method: Method, threads: usize) -> u32 {
    let task = exp.prepare();
    let mut sim = task.simulation();
    sim.cfg.threads = threads;
    let (history, model) = sim.run_returning_model(build_method(method, &task).as_mut());
    for r in &history.records {
        assert!(
            r.train_loss.is_some_and(f64::is_finite) && r.update_norm.is_finite(),
            "{} round {}: loss {:?}, update norm {}",
            method.label(),
            r.round,
            r.train_loss,
            r.update_norm
        );
    }
    record_digest(&history.records, model.params())
}

#[test]
fn every_method_matches_its_pinned_digest_on_both_partitions_and_thread_counts() {
    let paper = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    let fedgrab = ExpConfig {
        fedgrab_partition: true,
        ..paper.clone()
    };
    let mut golden = Golden::new("method_digests");
    for method in Method::ALL {
        for (exp, partition) in [(&paper, "paper"), (&fedgrab, "FedGrab")] {
            for threads in [1, 2] {
                let got = digest(exp, method, threads);
                golden.check(&format!("{method:?}/{partition}"), format!("{got:#010X}"));
            }
        }
    }
    golden.finish();
}

/// The judge for refactors of how a condition reaches its engine
/// configuration: every field of the `FlConfig` the simulation runs
/// under must stay as pinned, with and without command-line overrides.
/// The pins are `conditions/<preset>/<scale>[/cli]`: the `Debug` text of
/// each default condition at IF 0.1, β 0.3, seed 3001, as
/// `ExpConfig::prepare` builds it and as `--rounds 7 --cadence
/// buffered:3` overrides it.
#[test]
fn default_conditions_reach_the_engine_with_their_pinned_config() {
    use fedwcm_experiments::Cli;
    use fedwcm_suite::fl::Cadence;
    let cli = Cli {
        rounds: Some(7),
        cadence: Cadence::BufferedK { k: 3 },
        ..Cli::default()
    };
    let mut golden = Golden::new("conditions");
    for preset in [DatasetPreset::FashionMnist, DatasetPreset::Cifar100] {
        for scale in [Scale::Smoke, Scale::Quick] {
            let exp = ExpConfig::new(preset, 0.1, 0.3, scale, 3001);
            let name = format!("{preset:?}/{scale:?}");
            golden.check(&name, format!("{:?}", exp.prepare().simulation().cfg));
            let cfg = cli.prepare(&exp).simulation().cfg;
            golden.check(&format!("{name}/cli"), format!("{cfg:?}"));
        }
    }
    golden.finish();
}
