//! Method registry: build any algorithm the paper evaluates by name.

use crate::setup::PreparedTask;
use fedwcm_algos::{
    FedAvg, FedAvgM, FedCm, FedDyn, FedLesam, FedProx, FedSam, FedSmoo, FedSpeed, MoFedSam,
};
use fedwcm_core::{FedWcm, FedWcmOptions};
use fedwcm_fl::FederatedAlgorithm;
use fedwcm_longtail::{fedcm_balance_loss, fedcm_balance_sampler, fedcm_focal, BalanceFl, FedGrab};

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
/// client counts from the task).
pub fn build_method(method: Method, task: &PreparedTask) -> Box<dyn FederatedAlgorithm> {
    match method {
        Method::FedAvg => Box::new(FedAvg::new()),
        Method::BalanceFl => Box::new(BalanceFl::new()),
        Method::FedGrab => Box::new(FedGrab::new(task.global_counts())),
        Method::FedCm => Box::new(FedCm::new(FEDCM_ALPHA)),
        Method::FedCmFocal => Box::new(fedcm_focal(FEDCM_ALPHA)),
        Method::FedCmBalanceLoss => {
            Box::new(fedcm_balance_loss(FEDCM_ALPHA, &task.global_counts()))
        }
        Method::FedCmBalanceSampler => Box::new(fedcm_balance_sampler(FEDCM_ALPHA)),
        Method::FedWcm => Box::new(FedWcm::with_options(FedWcmOptions::default())),
        Method::FedWcmX => Box::new(FedWcm::x(task.standard_batches())),
        Method::FedProx => Box::new(FedProx::new(0.01)),
        Method::Scaffold => Box::new(fedwcm_algos::Scaffold::new(task.fl.clients)),
        Method::FedDyn => Box::new(FedDyn::new(0.1, task.fl.clients)),
        Method::FedAvgM => Box::new(FedAvgM::new(0.9)),
        Method::FedSam => Box::new(FedSam::new(0.05)),
        Method::MoFedSam => Box::new(MoFedSam::new(0.05, FEDCM_ALPHA)),
        Method::FedSpeed => Box::new(FedSpeed::new(0.05, 0.01)),
        Method::FedSmoo => Box::new(FedSmoo::new(0.05, 0.01, task.fl.clients)),
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

    #[test]
    fn every_method_instantiates_and_labels() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.5, 0.6, Scale::Smoke, 9);
        let task = exp.prepare();
        for m in Method::ALL {
            let algo = build_method(m, &task);
            assert!(!algo.name().is_empty());
            assert!(!m.label().is_empty());
        }
    }
}
