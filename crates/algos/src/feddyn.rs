//! FedDyn (Acar et al., 2021): dynamic regularisation.
//!
//! Each client keeps a Lagrangian-style state `h_i`; the local objective
//! is `f_i(x) − ⟨h_i, x⟩ + (λ/2)‖x − x_r‖²`, so the local gradient is
//! `g − h_i + λ(x − x_r)`. After local training `h_i ← h_i − λ(x_B − x_r)`,
//! and the server sets `x_{r+1} = mean(x_B) − h̄/λ` with `h̄` the mean
//! state over *all* clients.

use fedwcm_fl::algorithm::{FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::CrossEntropy;

/// FedDyn with regularisation coefficient λ.
pub struct FedDyn {
    /// Dynamic-regularisation coefficient λ (typical 0.01–0.1).
    pub lambda: f32,
    states: Vec<Vec<f32>>,
    mean_state: Vec<f32>,
    num_clients: usize,
    /// Work space of the mean final model, kept across rounds; not state.
    mean_final: Vec<f32>,
}

impl FedDyn {
    /// New FedDyn for `num_clients` clients.
    pub fn new(lambda: f32, num_clients: usize) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        FedDyn {
            lambda,
            states: vec![Vec::new(); num_clients],
            mean_state: Vec::new(),
            num_clients,
            mean_final: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedDyn {
    fn name(&self) -> String {
        format!("FedDyn(lambda={})", self.lambda)
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let lambda = self.lambda;
        let h = &self.states[env.id];
        run_local_sgd(env, global, &spec, |grad, params, _| {
            if h.is_empty() {
                for ((g, p), x0) in grad.iter_mut().zip(params).zip(global) {
                    *g += lambda * (p - x0);
                }
            } else {
                for (((g, p), x0), hi) in grad.iter_mut().zip(params).zip(global).zip(h) {
                    *g += lambda * (p - x0) - hi;
                }
            }
        })
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let dim = global.len();
        if self.mean_state.is_empty() {
            self.mean_state = vec![0.0f32; dim];
        }
        let lr = input.cfg.local_lr;

        // Mean of final local models, and per-client state refresh.
        let mean_final = &mut self.mean_final;
        mean_final.clear();
        mean_final.resize(dim, 0.0);
        let inv = 1.0 / input.updates.len() as f32;
        for u in &input.updates {
            let steps = lr * u.num_batches as f32;
            let h = &mut self.states[u.client];
            if h.is_empty() {
                *h = vec![0.0f32; dim];
            }
            for (j, ((m, d), x0)) in mean_final
                .iter_mut()
                .zip(&u.delta)
                .zip(global.iter())
                .enumerate()
            {
                let x_final = x0 - steps * d;
                *m += inv * x_final;
                // h_i ← h_i − λ(x_B − x_r) = h_i + λ·steps·delta
                let dh = self.lambda * steps * d;
                h[j] += dh;
                self.mean_state[j] += dh / self.num_clients as f32;
            }
        }

        // Server: x = mean(x_B) − h̄/λ, tempered by the global lr.
        let gl = input.cfg.global_lr;
        for ((x, m), hbar) in global.iter_mut().zip(&*mean_final).zip(&self.mean_state) {
            let target = m - hbar / self.lambda;
            *x = *x + gl * (target - *x);
        }
        RoundLog::default()
    }

    // Cross-round state: per-client Lagrangian states and their mean.
    fn save_state(&self) -> Option<Vec<u8>> {
        let (mean, states) = (&self.mean_state, &self.states);
        let mut out = Vec::with_capacity(mean.wire_len() + states.wire_len());
        mean.put(&mut out);
        states.put(&mut out);
        Some(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let (mean_state, states): (Vec<f32>, Vec<Vec<f32>>) = decode_state(bytes)?;
        // A client state is empty (never sampled) or as long as the mean:
        // `aggregate` indexes both by the same parameter.
        let foreign = |h: &Vec<f32>| !h.is_empty() && h.len() != mean_state.len();
        if states.len() != self.num_clients || states.iter().any(foreign) {
            return Err(StateError::Malformed);
        }
        self.mean_state = mean_state;
        self.states = states;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_sim, small_task};

    #[test]
    fn learns_heterogeneous_task() {
        let (train, test, cfg) = small_task(71, 1.0);
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.1);
        let h = sim.run(&mut FedDyn::new(0.1, clients));
        assert!(h.final_accuracy(1) > 0.4, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn states_accumulate() {
        let (train, test, mut cfg) = small_task(72, 1.0);
        cfg.rounds = 3;
        cfg.participation = 1.0;
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = FedDyn::new(0.1, clients);
        let _ = sim.run(&mut algo);
        assert!(algo.states.iter().all(|h| !h.is_empty()));
        let norm: f32 = algo.mean_state.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 0.0, "mean state never moved");
    }
}
