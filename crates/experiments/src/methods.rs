//! Method registry: build any algorithm the paper evaluates by name.

use crate::setup::PreparedTask;
use fedwcm_algos::{
    BalanceFl, FedAvg, FedAvgM, FedCm, FedDyn, FedGrab, FedLesam, FedProx, FedSam, FedSmoo,
    FedSpeed, MoFedSam,
};
use fedwcm_core::{FedWcm, ScoreForm};
use fedwcm_fl::FederatedAlgorithm;
use fedwcm_nn::loss::{BalancedSoftmax, FocalLoss};
use std::sync::Arc;

/// FedCM's paper-default momentum value.
pub const FEDCM_ALPHA: f32 = 0.1;

/// Every method appearing in the paper's tables and figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Method {
    FedAvg,
    BalanceFl,
    FedGrab,
    FedCm,
    FedCmFocal,
    FedCmBalanceLoss,
    FedCmBalanceSampler,
    FedWcm,
    FedWcmX,
    FedProx,
    Scaffold,
    FedDyn,
    FedAvgM,
    FedSam,
    MoFedSam,
    FedSpeed,
    FedSmoo,
    FedLesam,
    MimeLite,
}

impl Method {
    /// Every method, in declaration order: what a test that must hold
    /// for the whole zoo iterates.
    pub const ALL: [Method; 19] = [
        Method::FedAvg,
        Method::BalanceFl,
        Method::FedGrab,
        Method::FedCm,
        Method::FedCmFocal,
        Method::FedCmBalanceLoss,
        Method::FedCmBalanceSampler,
        Method::FedWcm,
        Method::FedWcmX,
        Method::FedProx,
        Method::Scaffold,
        Method::FedDyn,
        Method::FedAvgM,
        Method::FedSam,
        Method::MoFedSam,
        Method::FedSpeed,
        Method::FedSmoo,
        Method::FedLesam,
        Method::MimeLite,
    ];

    /// The heterogeneous-FL lineup of Figs. 18/19.
    pub fn hetero_panel() -> [Method; 10] {
        [
            Method::FedAvg,
            Method::FedCm,
            Method::Scaffold,
            Method::FedDyn,
            Method::FedProx,
            Method::FedSam,
            Method::MoFedSam,
            Method::FedSpeed,
            Method::FedSmoo,
            Method::FedLesam,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::BalanceFl => "BalanceFL",
            Method::FedGrab => "FedGrab",
            Method::FedCm => "FedCM",
            Method::FedCmFocal => "FedCM+FocalLoss",
            Method::FedCmBalanceLoss => "FedCM+BalanceLoss",
            Method::FedCmBalanceSampler => "FedCM+BalanceSampler",
            Method::FedWcm => "FedWCM",
            Method::FedWcmX => "FedWCM-X",
            Method::FedProx => "FedProx",
            Method::Scaffold => "SCAFFOLD",
            Method::FedDyn => "FedDyn",
            Method::FedAvgM => "FedAvgM",
            Method::FedSam => "FedSAM",
            Method::MoFedSam => "MoFedSAM",
            Method::FedSpeed => "FedSpeed-lite",
            Method::FedSmoo => "FedSMOO-lite",
            Method::FedLesam => "FedLESAM-lite",
            Method::MimeLite => "Mime-lite",
        }
    }
}

/// Instantiate a method for the given task (some need global counts or
/// client counts from the task; FedWCM and FedWCM-X train on
/// [`PreparedTask::class_prior`]).
pub fn build_method(method: Method, task: &PreparedTask) -> Box<dyn FederatedAlgorithm> {
    match method {
        Method::FedAvg => Box::new(FedAvg::new()),
        Method::BalanceFl => Box::new(BalanceFl::new()),
        Method::FedGrab => Box::new(FedGrab::new(task.global_counts())),
        Method::FedCm => Box::new(FedCm::new(FEDCM_ALPHA)),
        // The paper's "naive integration" baselines: FedCM's chassis with a
        // long-tail loss (Focal, γ = 2; Balanced-Softmax on the global
        // prior) or the class-balanced sampler.
        Method::FedCmFocal => Box::new(FedCm::with_loss(
            FEDCM_ALPHA,
            Arc::new(FocalLoss { gamma: 2.0 }),
            "FedCM+FocalLoss",
        )),
        Method::FedCmBalanceLoss => Box::new(FedCm::with_loss(
            FEDCM_ALPHA,
            Arc::new(BalancedSoftmax::from_counts(&task.global_counts())),
            "FedCM+BalanceLoss",
        )),
        Method::FedCmBalanceSampler => Box::new(FedCm::with_balanced_sampler(FEDCM_ALPHA)),
        Method::FedWcm => {
            Box::new(FedWcm::new().with_prior(task.class_prior(ScoreForm::Rectified)))
        }
        Method::FedWcmX => Box::new(
            FedWcm::x(task.standard_batches()).with_prior(task.class_prior(ScoreForm::Rectified)),
        ),
        Method::FedProx => Box::new(FedProx::new(0.01)),
        Method::Scaffold => Box::new(fedwcm_algos::Scaffold::new(task.exp.fl.clients)),
        Method::FedDyn => Box::new(FedDyn::new(0.1, task.exp.fl.clients)),
        Method::FedAvgM => Box::new(FedAvgM::new(0.9)),
        Method::FedSam => Box::new(FedSam::new(0.05)),
        Method::MoFedSam => Box::new(MoFedSam::new(0.05, FEDCM_ALPHA)),
        Method::FedSpeed => Box::new(FedSpeed::new(0.05, 0.01)),
        Method::FedSmoo => Box::new(FedSmoo::new(0.05, 0.01, task.exp.fl.clients)),
        Method::FedLesam => Box::new(FedLesam::new(0.05)),
        Method::MimeLite => Box::new(fedwcm_algos::MimeLite::new(0.9, FEDCM_ALPHA)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Scale;
    use crate::setup::ExpConfig;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::algorithm::RoundInput;
    use fedwcm_fl::client::ClientUpdate;

    #[test]
    fn every_method_instantiates_and_labels() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.5, 0.6, Scale::Smoke, 9);
        let task = exp.prepare();
        for m in Method::ALL {
            // The built method names itself by the paper's legend, or by the
            // legend and its parameters (`FedProx(mu=0.01)`).
            let name = build_method(m, &task).name();
            let rest = name.strip_prefix(m.label());
            assert!(
                rest.is_some_and(|r| r.is_empty() || r.starts_with('(')),
                "{m:?} builds {name:?}, legend {:?}",
                m.label()
            );
        }
    }

    #[test]
    fn fedwcm_builds_aggregate_a_round_without_views() {
        // Both builds carry the HE-built prior, so no experiment reaches
        // the lazy path that reads `RoundInput::views`.
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 9);
        let task = exp.prepare();
        let update = |client| ClientUpdate {
            client,
            delta: vec![1.0; 4],
            num_samples: 10,
            num_batches: 1,
            avg_loss: 0.0,
            extra: None,
        };
        for m in [Method::FedWcm, Method::FedWcmX] {
            let updates = vec![update(1), update(4)];
            let input = RoundInput {
                round: 0,
                cfg: &task.exp.fl,
                updates,
                views: &[],
            };
            let mut global = vec![0.0f32; 4];
            let log = build_method(m, &task).aggregate(&mut global, &input);
            assert_eq!(log.weights.map(|w| w.len()), Some(2), "{}", m.label());
            assert!(global.iter().all(|g| g.is_finite() && *g != 0.0));
        }
    }
}
