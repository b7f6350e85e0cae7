//! FedCM (Xu et al., 2021): client-level momentum.
//!
//! Every local step blends the mini-batch gradient with the previous
//! round's aggregated direction: `v = α·g + (1−α)·Δ_r` (Eq. 2/6). This is
//! the method whose long-tail failure motivates FedWCM; it is also the
//! chassis for the paper's "+Focal Loss / +Balance Loss / +Balance
//! Sampler" variants, exposed here via [`FedCm::with_loss`] and
//! [`FedCm::with_balanced_sampler`].

use fedwcm_fl::algorithm::{
    server_step, uniform_average, FederatedAlgorithm, RoundInput, RoundLog, StateError,
};
use fedwcm_fl::client::{momentum_direction, run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};
use std::sync::Arc;

/// Client-momentum federated learning with a fixed momentum value α.
pub struct FedCm {
    /// Momentum value α (paper default 0.1): weight on the *local*
    /// gradient; `1 − α` goes to the global momentum.
    pub alpha: f32,
    momentum: Vec<f32>,
    loss: Arc<dyn Loss>,
    balanced_sampler: bool,
    label: String,
}

impl FedCm {
    /// Standard FedCM with cross-entropy and α = 0.1.
    pub fn new(alpha: f32) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        FedCm {
            alpha,
            momentum: Vec::new(),
            loss: Arc::new(CrossEntropy),
            balanced_sampler: false,
            label: "FedCM".into(),
        }
    }

    /// FedCM with a custom loss ("+Focal Loss", "+Balance Loss").
    pub fn with_loss(alpha: f32, loss: Arc<dyn Loss>, label: impl Into<String>) -> Self {
        let mut s = Self::new(alpha);
        s.loss = loss;
        s.label = label.into();
        s
    }

    /// FedCM with the class-balanced local sampler ("+Balance Sampler").
    pub fn with_balanced_sampler(alpha: f32) -> Self {
        let mut s = Self::new(alpha);
        s.balanced_sampler = true;
        s.label = "FedCM+BalanceSampler".into();
        s
    }

    /// Current global momentum (empty before the first aggregation).
    pub fn momentum(&self) -> &[f32] {
        &self.momentum
    }
}

impl FederatedAlgorithm for FedCm {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: self.loss.as_ref(),
            balanced_sampler: self.balanced_sampler,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let direction = momentum_direction(&self.momentum, self.alpha);
        run_local_sgd(env, global, &spec, direction)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }
        uniform_average(&input.updates, &mut self.momentum);
        server_step(global, &self.momentum, input.cfg, input.mean_batches());
        RoundLog {
            alpha: Some(self.alpha as f64),
            weights: None,
        }
    }

    // α, loss, and sampler are construction-time configuration; the global
    // momentum buffer is the only cross-round state.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.momentum.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.momentum = decode_state(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_is_fedavg, build_sim, small_task};
    use fedwcm_nn::loss::FocalLoss;

    #[test]
    fn learns_balanced_task_fast() {
        let (train, test, cfg) = small_task(41, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.1);
        let h = sim.run(&mut FedCm::new(0.1));
        assert!(h.final_accuracy(1) > 0.5, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn momentum_buffer_updates_each_round() {
        let (train, test, cfg) = small_task(42, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = FedCm::new(0.1);
        assert!(algo.momentum().is_empty());
        let _ = sim.run(&mut algo);
        assert!(!algo.momentum().is_empty());
        let norm: f32 = algo.momentum().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 0.0, "momentum never populated");
    }

    #[test]
    fn alpha_one_is_fedavg() {
        // α = 1 means v = g every step: the run is FedAvg's, bit for bit.
        let (train, test, cfg) = small_task(43, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        assert_is_fedavg(&sim, &mut FedCm::new(1.0));
    }

    #[test]
    fn variant_constructors_label_correctly() {
        let f = FedCm::with_loss(0.1, Arc::new(FocalLoss { gamma: 2.0 }), "FedCM+Focal");
        assert_eq!(f.name(), "FedCM+Focal");
        let b = FedCm::with_balanced_sampler(0.1);
        assert_eq!(b.name(), "FedCM+BalanceSampler");
        assert!(b.balanced_sampler);
    }

    #[test]
    fn round_log_reports_alpha() {
        let (train, test, mut cfg) = small_task(44, 1.0);
        cfg.rounds = 2;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut FedCm::new(0.3));
        assert_eq!(h.records[0].alpha, Some(0.3f32 as f64));
    }
}
