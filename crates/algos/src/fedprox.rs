//! FedProx (Li et al., 2020): proximal regularisation towards the global
//! model during local training.

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::CrossEntropy;

/// FedProx: each local step adds `μ (x − x_r)` to the gradient, pulling
/// the local iterate towards the round-start global model.
pub struct FedProx {
    /// Proximal coefficient μ (paper-typical 0.01–0.1).
    pub mu: f32,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedProx {
    /// FedProx with the given proximal coefficient.
    pub fn new(mu: f32) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        FedProx {
            mu,
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedProx {
    fn name(&self) -> String {
        format!("FedProx(mu={})", self.mu)
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let mu = self.mu;
        run_local_sgd(env, global, &spec, |grad, params, _| {
            for ((g, p), x0) in grad.iter_mut().zip(params).zip(global) {
                *g += mu * (p - x0);
            }
        })
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // μ is construction-time configuration; nothing crosses rounds.
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
    fn learns_heterogeneous_task() {
        let (train, test, cfg) = small_task(33, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.1); // strong skew
        let h = sim.run(&mut FedProx::new(0.01));
        assert!(h.final_accuracy(1) > 0.45, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn zero_mu_matches_fedavg() {
        let (train, test, cfg) = small_task(34, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let hp = sim.run(&mut FedProx::new(0.0));
        let ha = sim.run(&mut crate::FedAvg::new());
        // Identical trajectories: same seeds, same directions.
        assert_eq!(hp.records, ha.records);
    }

    #[test]
    fn large_mu_restrains_local_drift() {
        // With huge μ the local models barely move ⇒ tiny server updates.
        let (train, test, cfg) = small_task(35, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        // μ must respect lr·μ < 1 for the prox step to contract.
        let h_small = sim.run(&mut FedProx::new(0.0));
        let h_big = sim.run(&mut FedProx::new(5.0));
        let n_small: f64 = h_small.records.iter().map(|r| r.update_norm).sum();
        let n_big: f64 = h_big.records.iter().map(|r| r.update_norm).sum();
        assert!(n_big < n_small * 0.5, "big-mu norm {n_big} vs {n_small}");
    }
}
