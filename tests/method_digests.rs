//! Pinned digests of every method's smoke run: the judge for refactors of
//! the algorithm layer (client loops, server steps, constructors) that
//! must not move a bit.
//!
//! Each method of `Method::ALL` runs the smoke-scale FashionMNIST task on
//! the paper partition and on the FedGrab (quantity-skewed) partition, at
//! 1 and 2 worker threads. The digest is the CRC32 of every
//! `RoundRecord` field (floats as bit patterns) followed by the final
//! global parameters' bits, and it must equal the pinned value at both
//! thread counts. Every record must also carry a finite training loss and
//! a finite update norm.

use fedwcm_experiments::Method::{self, *};
use fedwcm_experiments::{build_method, ExpConfig, Scale};
use fedwcm_suite::data::synth::DatasetPreset;
use fedwcm_transport::frame::crc32;

/// `(method, paper-partition digest, FedGrab-partition digest)`.
const PINNED: [(Method, u32, u32); 19] = [
    (FedAvg, 0x4E61_32C5, 0x2B54_A83A),
    (BalanceFl, 0xE96A_DB7D, 0xFB55_4DFC),
    (FedGrab, 0x0D6D_E763, 0xAEF4_D398),
    (FedCm, 0x8860_EB83, 0x9ADC_EDAC),
    (FedCmFocal, 0xF409_6871, 0x0473_6F05),
    (FedCmBalanceLoss, 0x9C91_369C, 0x2382_6327),
    (FedCmBalanceSampler, 0x321F_01B8, 0x64FB_F986),
    (FedWcm, 0x9237_0D53, 0xF8CD_9320),
    (FedWcmX, 0x4578_7B52, 0x9D5D_9815),
    (FedProx, 0x7D9B_2970, 0xDAA8_4249),
    (Scaffold, 0x5ABD_6665, 0xF2BC_C7E0),
    (FedDyn, 0x5095_99DC, 0xDE6A_4193),
    (FedAvgM, 0x0DA1_21A1, 0x139F_4B79),
    (FedSam, 0xCE6F_2A36, 0x3EC3_BDDB),
    (MoFedSam, 0xD4E9_7534, 0xA425_666C),
    (FedSpeed, 0xD1F8_FA75, 0x91A0_C4A0),
    (FedSmoo, 0x4002_6C03, 0xA213_43F7),
    (FedLesam, 0xE872_2BB3, 0x9585_690A),
    (MimeLite, 0x43DB_C155, 0xC1B0_77A1),
];

/// CRC32 of one run: every record field, then the final parameters.
fn digest(exp: &ExpConfig, method: Method, threads: usize) -> u32 {
    let task = exp.prepare();
    let mut sim = task.simulation();
    sim.cfg.threads = threads;
    let (history, model) = sim.run_returning_model(build_method(method, &task).as_mut());
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let mut bytes = Vec::new();
    for r in &history.records {
        assert!(
            r.train_loss.is_some_and(f64::is_finite) && r.update_norm.is_finite(),
            "{} round {}: loss {:?}, update norm {}",
            method.label(),
            r.round,
            r.train_loss,
            r.update_norm
        );
        let line = format!(
            "{} {:?} {} {:?} {:?} {} {} {:?} {:?}\n",
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
        bytes.extend_from_slice(line.as_bytes());
    }
    for p in model.params() {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

#[test]
fn every_method_matches_its_pinned_digest_on_both_partitions_and_thread_counts() {
    assert_eq!(PINNED.map(|(m, _, _)| m), Method::ALL, "one row per method");
    let paper = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    let fedgrab = ExpConfig {
        fedgrab_partition: true,
        ..paper.clone()
    };
    let mut mismatches = Vec::new();
    for (method, want_paper, want_fedgrab) in PINNED {
        for (exp, want, partition) in [
            (&paper, want_paper, "paper"),
            (&fedgrab, want_fedgrab, "FedGrab"),
        ] {
            for threads in [1, 2] {
                let got = digest(exp, method, threads);
                if got != want {
                    mismatches.push(format!(
                        "{} ({partition}, {threads} thread(s)): {got:#010X}, pinned {want:#010X}",
                        method.label()
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} digest(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// `FlConfig` of each default condition at IF 0.1, β 0.3, seed 3001, for
/// FashionMNIST then CIFAR-100, each at smoke then quick scale: as
/// `ExpConfig::prepare` builds it, then as `--rounds 7 --cadence
/// buffered:3` overrides it.
const PINNED_CONFIGS: [&str; 8] = [
    "FlConfig { clients: 8, participation: 0.5, rounds: 8, local_epochs: 1, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: Sync }",
    "FlConfig { clients: 8, participation: 0.5, rounds: 7, local_epochs: 1, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: BufferedK { k: 3 } }",
    "FlConfig { clients: 20, participation: 0.25, rounds: 100, local_epochs: 5, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 5, quorum_frac: 0.0, cadence: Sync }",
    "FlConfig { clients: 20, participation: 0.25, rounds: 7, local_epochs: 5, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: BufferedK { k: 3 } }",
    "FlConfig { clients: 8, participation: 0.5, rounds: 8, local_epochs: 1, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: Sync }",
    "FlConfig { clients: 8, participation: 0.5, rounds: 7, local_epochs: 1, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: BufferedK { k: 3 } }",
    "FlConfig { clients: 12, participation: 0.34, rounds: 60, local_epochs: 3, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 3, quorum_frac: 0.0, cadence: Sync }",
    "FlConfig { clients: 12, participation: 0.34, rounds: 7, local_epochs: 3, batch_size: 20, local_lr: 0.1, global_lr: 1.0, seed: 3001, threads: 0, eval_every: 1, quorum_frac: 0.0, cadence: BufferedK { k: 3 } }",
];

/// The judge for refactors of how a condition reaches its engine
/// configuration: every field of the `FlConfig` the simulation runs
/// under must stay as pinned, with and without command-line overrides.
#[test]
fn default_conditions_reach_the_engine_with_their_pinned_config() {
    use fedwcm_experiments::Cli;
    use fedwcm_suite::fl::Cadence;
    let cli = Cli {
        rounds: Some(7),
        cadence: Cadence::BufferedK { k: 3 },
        ..Cli::default()
    };
    let mut got = Vec::new();
    for preset in [DatasetPreset::FashionMnist, DatasetPreset::Cifar100] {
        for scale in [Scale::Smoke, Scale::Quick] {
            let exp = ExpConfig::new(preset, 0.1, 0.3, scale, 3001);
            got.push(format!("{:?}", exp.prepare().simulation().cfg));
            got.push(format!("{:?}", cli.prepare(&exp).simulation().cfg));
        }
    }
    assert_eq!(got, PINNED_CONFIGS);
}
