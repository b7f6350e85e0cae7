//! Baseline federated-learning algorithms.
//!
//! Every method the paper compares against (outside the long-tail-specific
//! ones in `fedwcm-longtail`):
//!
//! * [`fedavg::FedAvg`] — McMahan et al., plain model averaging;
//! * [`fedprox::FedProx`] — proximal local objective;
//! * [`scaffold::Scaffold`] — control variates correcting client drift;
//! * [`feddyn::FedDyn`] — dynamic regularisation;
//! * [`fedcm::FedCm`] — client-level momentum (the method FedWCM repairs),
//!   with pluggable loss and sampler for the paper's "+Focal / +Balance
//!   Loss / +Balance Sampler" variants;
//! * [`fedavgm::FedAvgM`] — server momentum (SlowMo-style);
//! * [`mime::MimeLite`] — frozen-server-momentum local steps (Mime);
//! * [`sam`] — the sharpness-aware family used in Appendix D: FedSAM,
//!   MoFedSAM, and mechanism-faithful "lite" variants of FedSpeed,
//!   FedSMOO, and FedLESAM.

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists outside test
// code and no panicking shortcut anywhere; an exemption is an
// `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod fedavg;
pub mod fedavgm;
pub mod fedcm;
pub mod feddyn;
pub mod fedprox;
pub mod mime;
pub mod sam;
pub mod scaffold;

pub use fedavg::FedAvg;
pub use fedavgm::FedAvgM;
pub use fedcm::FedCm;
pub use feddyn::FedDyn;
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
    use fedwcm_fl::{FlConfig, Simulation};
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

    /// Run `algo` and FedAvg on `sim`; every round's loss, update norm
    /// and accuracy, and the final parameters, must agree bit for bit.
    pub fn assert_is_fedavg(sim: &Simulation<'_>, algo: &mut dyn fedwcm_fl::FederatedAlgorithm) {
        let (h, model) = sim.run_returning_model(algo);
        let (h_avg, model_avg) = sim.run_returning_model(&mut crate::FedAvg::new());
        assert_eq!(h.records.len(), h_avg.records.len());
        let bits = |r: &fedwcm_fl::RoundRecord| {
            (
                r.train_loss.map(f64::to_bits),
                r.update_norm.to_bits(),
                r.test_acc.map(f64::to_bits),
            )
        };
        for (a, b) in h.records.iter().zip(&h_avg.records) {
            assert_eq!(bits(a), bits(b), "round {}", a.round);
        }
        let param_bits =
            |m: &fedwcm_nn::Model| m.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(param_bits(&model), param_bits(&model_avg));
    }
}
