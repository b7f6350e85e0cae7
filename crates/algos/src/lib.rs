//! Baseline federated-learning algorithms: every method the paper
//! compares FedWCM against.
//!
//! * [`fedavg::FedAvg`] — McMahan et al., plain model averaging;
//! * [`fedprox::FedProx`] — proximal local objective;
//! * [`scaffold::Scaffold`] — control variates correcting client drift;
//! * [`feddyn::FedDyn`] — dynamic regularisation;
//! * [`fedcm::FedCm`] — client-level momentum (the method FedWCM repairs),
//!   with pluggable loss and sampler for the paper's "+Focal / +Balance
//!   Loss / +Balance Sampler" variants;
//! * [`balancefl::BalanceFl`] — balanced local update scheme (class-
//!   balanced resampling + knowledge inheritance for locally-absent
//!   classes), following Shuai et al. (IPSN 2022);
//! * [`fedgrab::FedGrab`] — self-adjusting gradient balancer + direct
//!   prior analysis, following Xiao et al. (NeurIPS 2024);
//! * [`fedavgm::FedAvgM`] — server momentum (SlowMo-style);
//! * [`mime::MimeLite`] — frozen-server-momentum local steps (Mime);
//! * [`sam`] — the sharpness-aware family used in Appendix D: FedSAM,
//!   MoFedSAM, and mechanism-faithful "lite" variants of FedSpeed,
//!   FedSMOO, and FedLESAM.
//!
//! The long-tail methods keep each original's defining mechanism and are
//! documented where they simplify secondary machinery (DESIGN.md §1).

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists and no unused
// dependency outside test code, no panicking shortcut anywhere; an
// exemption is an `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod balancefl;
pub mod fedavg;
pub mod fedavgm;
pub mod fedcm;
pub mod feddyn;
pub mod fedgrab;
pub mod fedprox;
pub mod mime;
pub mod sam;
pub mod scaffold;

pub use balancefl::BalanceFl;
pub use fedavg::FedAvg;
pub use fedavgm::FedAvgM;
pub use fedcm::FedCm;
pub use feddyn::FedDyn;
pub use fedgrab::FedGrab;
pub use fedprox::FedProx;
pub use mime::MimeLite;
pub use sam::{FedLesam, FedSam, FedSmoo, FedSpeed, MoFedSam};
pub use scaffold::Scaffold;

#[cfg(test)]
pub(crate) mod testutil {
    use fedwcm_data::dataset::Dataset;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::{FederatedAlgorithm, FlConfig, Simulation};
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::Xoshiro256pp;

    /// A small balanced federated task every baseline should learn.
    pub fn small_task(seed: u64, imbalance: f64) -> (Dataset, Dataset, FlConfig) {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 70, imbalance);
        let train = spec.generate_train(&counts, seed);
        let test = spec.generate_test(seed);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 8;
        cfg.participation = 0.5;
        cfg.rounds = 12;
        cfg.local_epochs = 2;
        cfg.batch_size = 20;
        cfg.eval_every = 4;
        cfg.seed = seed;
        (train, test, cfg)
    }

    pub fn build_sim<'a>(
        train: &'a Dataset,
        test: &'a Dataset,
        cfg: FlConfig,
        beta: f64,
    ) -> Simulation<'a> {
        let part = paper_partition(train, cfg.clients, beta, cfg.seed);
        let views = part.views(train);
        Simulation::new(
            cfg,
            train,
            test,
            views,
            Box::new(|| {
                let mut rng = Xoshiro256pp::seed_from(2024);
                mlp(64, &[32], 10, &mut rng)
            }),
        )
    }

    /// Run `algo` and FedAvg on `sim`; every record and the final
    /// parameters must agree bit for bit. α is blanked on both sides:
    /// FedCM(1) and FedAvgM(0) log the α they ran at, FedAvg logs none.
    pub fn assert_is_fedavg(sim: &Simulation<'_>, algo: &mut dyn FederatedAlgorithm) {
        let run = |algo: &mut dyn FederatedAlgorithm| {
            let (mut h, model) = sim.run_returning_model(algo);
            h.records.iter_mut().for_each(|r| r.alpha = None);
            let params: Vec<u32> = model.params().iter().map(|p| p.to_bits()).collect();
            (h.records, params)
        };
        let (want_records, want_params) = run(&mut crate::FedAvg::new());
        let (records, params) = run(algo);
        assert_eq!(records, want_records);
        assert_eq!(params, want_params, "final parameters");
    }
}
