//! FedAvgM / SlowMo-style server momentum (Wang et al., 2019; Reddi et
//! al., 2020): clients run plain local SGD, the server applies a
//! heavy-ball update over the aggregated deltas.

use fedwcm_fl::algorithm::{
    server_step, uniform_average, FederatedAlgorithm, RoundInput, RoundLog, StateError,
};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::opt::server_momentum;

/// Server-side momentum: `m ← β·m + Δ̄`, step along `m`.
pub struct FedAvgM {
    /// Server momentum coefficient β (typical 0.9).
    pub beta: f32,
    buffer: Vec<f32>,
}

impl FedAvgM {
    /// New server-momentum algorithm.
    pub fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "beta must be in [0,1)");
        FedAvgM {
            beta,
            buffer: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedAvgM {
    fn name(&self) -> String {
        format!("FedAvgM(beta={})", self.beta)
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        run_local_sgd(env, global, &spec, |_, _, _| {})
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let mut dir = vec![0.0f32; global.len()];
        uniform_average(&input.updates, &mut dir);
        if self.buffer.is_empty() {
            self.buffer = vec![0.0f32; global.len()];
        }
        server_momentum(&mut self.buffer, &dir, self.beta);
        // Scale by (1−β) so the stationary step size matches FedAvg's.
        let step_dir: Vec<f32> = self.buffer.iter().map(|&m| m * (1.0 - self.beta)).collect();
        server_step(global, &step_dir, input.cfg, input.mean_batches());
        RoundLog::default()
    }

    // β is construction-time configuration; the heavy-ball buffer is the
    // only cross-round state.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.buffer.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.buffer = decode_state(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_is_fedavg, build_sim, small_task};

    #[test]
    fn learns_balanced_task() {
        let (train, test, cfg) = small_task(51, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut FedAvgM::new(0.9));
        assert!(h.final_accuracy(1) > 0.5, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn beta_zero_equals_fedavg() {
        let (train, test, cfg) = small_task(52, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        assert_is_fedavg(&sim, &mut FedAvgM::new(0.0));
    }
}
