//! FedAvg (McMahan et al., 2017): local SGD + model averaging.

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};
use std::sync::Arc;

/// Plain federated averaging. With the engine's delta convention and
/// `η_g = 1`, one aggregation step is exactly the average of the sampled
/// clients' final local models.
pub struct FedAvg {
    loss: Arc<dyn Loss>,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedAvg {
    /// FedAvg with cross-entropy.
    pub fn new() -> Self {
        Self::with_loss(Arc::new(CrossEntropy))
    }

    /// FedAvg with a custom loss.
    pub fn with_loss(loss: Arc<dyn Loss>) -> Self {
        FedAvg {
            loss,
            dir: Vec::new(),
        }
    }
}

impl Default for FedAvg {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedAlgorithm for FedAvg {
    fn name(&self) -> String {
        "FedAvg".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: self.loss.as_ref(),
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        run_local_sgd(env, global, &spec, |_, _, _| {})
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // FedAvg carries no cross-round state; an empty blob is the whole of it.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(().encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        decode_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_sim, small_task};

    #[test]
    fn learns_balanced_task() {
        let (train, test, cfg) = small_task(31, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = FedAvg::new();
        let h = sim.run(&mut algo);
        assert!(h.final_accuracy(1) > 0.55, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn stable_under_longtail() {
        // FedAvg degrades but does not collapse under IF=0.1 (the paper's
        // "stable baseline" role).
        let (train, test, cfg) = small_task(32, 0.1);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut FedAvg::new());
        assert!(h.final_accuracy(1) > 0.3, "acc {}", h.final_accuracy(1));
    }
}
