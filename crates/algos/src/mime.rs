//! Mime-lite (Karimireddy et al., 2020): mimicking centralized momentum.
//!
//! Mime keeps the optimizer state (a momentum buffer) at the **server**
//! and freezes it during local steps: every client's update direction is
//! `d = a·g_i(y) + (1−a)·m`, with `m` refreshed at the server from the
//! aggregated *round-start* gradients. The difference from FedCM is where
//! the momentum is measured: Mime's `m` tracks gradients at the global
//! iterate `x_r` (clients send them separately), not the average local
//! update direction.
//!
//! "Lite" simplification (documented): the full Mime also applies an
//! SVRG-style correction `g_i(y) − g_i(x) + ḡ(x)`; we keep the defining
//! frozen-server-momentum mechanism and approximate the round-start
//! gradient by each client's first-step mini-batch gradient (payload in
//! `ClientUpdate::extra`).

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::CrossEntropy;

/// Mime-lite with momentum coefficient `beta` (buffer decay) and local
/// blend `a` (weight on the fresh local gradient).
pub struct MimeLite {
    /// Server-momentum decay β (typical 0.9).
    pub beta: f32,
    /// Local blend weight on the fresh gradient (typical 0.1, as FedCM).
    pub a: f32,
    momentum: Vec<f32>,
    /// Work space of the round's mean gradient, then of
    /// [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl MimeLite {
    /// New Mime-lite.
    pub fn new(beta: f32, a: f32) -> Self {
        assert!((0.0..1.0).contains(&beta) && (0.0..=1.0).contains(&a));
        MimeLite {
            beta,
            a,
            momentum: Vec::new(),
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for MimeLite {
    fn name(&self) -> String {
        "Mime-lite".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let a = self.a;
        let momentum = &self.momentum;
        // Capture the first-step gradient as the round-start gradient
        // estimate for the server's momentum refresh.
        let mut first_grad: Vec<f32> = Vec::new();
        let mut update = run_local_sgd(env, global, &spec, |grad, _, step| {
            if step == 0 {
                first_grad = grad.to_vec();
            }
            if !momentum.is_empty() {
                for (g, m) in grad.iter_mut().zip(momentum) {
                    *g = a * *g + (1.0 - a) * m;
                }
            }
        });
        update.extra = Some(first_grad);
        update
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let dim = global.len();
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; dim];
        }
        // Server momentum from round-start gradients: m ← β m + (1−β) ḡ(x_r).
        let inv = 1.0 / input.updates.len() as f32;
        let gbar = &mut self.dir;
        gbar.clear();
        gbar.resize(dim, 0.0);
        for u in &input.updates {
            #[expect(
                clippy::expect_used,
                reason = "protocol contract: Mime's own client_update always attaches \
                          the round-start gradient; its absence means mismatched \
                          algorithm wiring"
            )]
            let g = u
                .extra
                .as_ref()
                .expect("Mime update missing gradient payload");
            fedwcm_tensor::ops::axpy(inv, g, gbar);
        }
        for (m, g) in self.momentum.iter_mut().zip(gbar.iter()) {
            *m = self.beta * *m + (1.0 - self.beta) * g;
        }
        // Model update: plain averaging of local deltas.
        average_step(global, input, &mut self.dir);
        RoundLog {
            alpha: Some(self.a as f64),
            weights: None,
        }
    }

    // β and a are construction-time configuration; the frozen server
    // momentum is the only cross-round state.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.momentum.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.momentum = decode_state(bytes)?;
        Ok(())
    }

    fn shared_len(&self) -> Option<usize> {
        (!self.momentum.is_empty()).then_some(self.momentum.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_sim, small_task};

    #[test]
    fn learns_heterogeneous_task() {
        let (train, test, cfg) = small_task(141, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.1);
        let h = sim.run(&mut MimeLite::new(0.9, 0.1));
        assert!(h.final_accuracy(1) > 0.4, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn momentum_tracks_round_start_gradients() {
        let (train, test, mut cfg) = small_task(142, 1.0);
        cfg.rounds = 3;
        cfg.participation = 1.0;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = MimeLite::new(0.9, 0.1);
        let _ = sim.run(&mut algo);
        let norm: f32 = algo.momentum.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 0.0, "server momentum never refreshed");
    }

    #[test]
    fn a_one_with_beta_zero_still_trains() {
        let (train, test, cfg) = small_task(143, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut MimeLite::new(0.0, 1.0));
        assert!(h.final_accuracy(1) > 0.4, "acc {}", h.final_accuracy(1));
    }
}
