//! Sharpness-aware-minimisation family (Appendix D baselines).
//!
//! All five methods train through the shared client loop
//! (`fedwcm_fl::client::run_local`) with one step hook ([`run_local_sam`])
//! that differs from plain SGD in computing the gradient at an
//! *ascent-perturbed* point `x + ρ·ε̂`. The variants differ in how `ε̂` is
//! chosen and what is mixed into the final direction:
//!
//! | method        | perturbation `ε̂`            | direction extras            |
//! |---------------|------------------------------|-----------------------------|
//! | FedSAM        | local gradient               | —                           |
//! | MoFedSAM      | local gradient               | momentum blend (as FedCM)   |
//! | FedSpeed-lite | local gradient               | prox pull to `x_r`          |
//! | FedSMOO-lite  | local gradient               | FedDyn-style state `h_i`    |
//! | FedLESAM-lite | previous global direction Δ  | —                           |
//!
//! The "-lite" suffix marks mechanism-faithful simplifications of the
//! published methods (documented in DESIGN.md): they keep the defining
//! correction but omit secondary machinery (e.g. FedSMOO's dual updates on
//! the perturbation itself).

use fedwcm_fl::algorithm::{
    average_step, server_step, uniform_average, FederatedAlgorithm, RoundInput, RoundLog,
    StateError,
};
use fedwcm_fl::client::{run_local, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};
use fedwcm_tensor::ops;

/// Options for the SAM step; the default is plain FedSAM at `ρ = 0`.
#[derive(Default)]
pub struct SamSpec<'a> {
    /// Ascent radius ρ.
    pub rho: f32,
    /// Momentum blend `(α, Δ)` — MoFedSAM.
    pub blend: Option<(f32, &'a [f32])>,
    /// Proximal coefficient μ — FedSpeed-lite.
    pub prox: Option<f32>,
    /// FedDyn-style state `h_i` subtracted from the direction — FedSMOO-lite.
    pub dyn_state: Option<&'a [f32]>,
    /// Perturb along this fixed direction instead of the local gradient —
    /// FedLESAM-lite (uses the previous global direction).
    pub global_perturbation: Option<&'a [f32]>,
}

/// SAM local training: per step, (optionally) compute the local gradient,
/// ascend by `ρ` along the normalised perturbation, take the gradient
/// there, apply extras, and hand the direction to the client loop. The
/// step books the loss at the base point, or at the perturbed point when
/// the perturbation is fixed (FedLESAM-lite computes no base gradient).
pub fn run_local_sam(
    env: &ClientEnv<'_>,
    global: &[f32],
    loss: &dyn Loss,
    spec: &SamSpec<'_>,
) -> ClientUpdate {
    assert!(spec.rho >= 0.0);
    let sgd = LocalSgdSpec {
        loss,
        balanced_sampler: false,
        lr: env.cfg.local_lr,
        epochs: env.cfg.local_epochs,
    };
    let mut base = vec![0.0f32; global.len()];
    let mut perturbed = vec![0.0f32; global.len()];
    run_local(env, global, &sgd, |model, x, y, grads, _| {
        // Choose the perturbation direction.
        base.copy_from_slice(model.params());
        let (eps_dir, base_loss): (&[f32], _) = match spec.global_perturbation {
            Some(gdir) => (gdir, None),
            None => {
                let l = model.loss_grad(x, y, loss, grads);
                (grads, Some(l))
            }
        };
        let norm = ops::norm(eps_dir);
        if norm > 1e-12 {
            perturbed.copy_from_slice(&base);
            ops::axpy(spec.rho / norm, eps_dir, &mut perturbed);
            model.set_params(&perturbed);
        }
        // Gradient at the perturbed point.
        let l = model.loss_grad(x, y, loss, grads);
        model.set_params(&base);

        // Extras.
        if let Some((alpha, momentum)) = spec.blend {
            if !momentum.is_empty() {
                for (d, m) in grads.iter_mut().zip(momentum) {
                    *d = alpha * *d + (1.0 - alpha) * m;
                }
            } else {
                for d in grads.iter_mut() {
                    *d *= alpha;
                }
            }
        }
        if let Some(mu) = spec.prox {
            for ((d, p), x0) in grads.iter_mut().zip(&base).zip(global) {
                *d += mu * (p - x0);
            }
        }
        if let Some(h) = spec.dyn_state {
            if !h.is_empty() {
                for (d, hi) in grads.iter_mut().zip(h) {
                    *d -= hi;
                }
            }
        }
        base_loss.unwrap_or(l)
    })
}

/// FedSAM: sharpness-aware local steps, plain averaging.
pub struct FedSam {
    /// Ascent radius ρ.
    pub rho: f32,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedSam {
    /// New FedSAM.
    pub fn new(rho: f32) -> Self {
        assert!(rho > 0.0);
        FedSam {
            rho,
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedSam {
    fn name(&self) -> String {
        "FedSAM".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = SamSpec {
            rho: self.rho,
            ..SamSpec::default()
        };
        run_local_sam(env, global, &CrossEntropy, &spec)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // ρ is construction-time configuration; nothing crosses rounds.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(().encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        decode_state(bytes)
    }
}

/// MoFedSAM: FedSAM locally + FedCM-style client momentum.
pub struct MoFedSam {
    /// Ascent radius ρ.
    pub rho: f32,
    /// Momentum value α.
    pub alpha: f32,
    momentum: Vec<f32>,
}

impl MoFedSam {
    /// New MoFedSAM.
    pub fn new(rho: f32, alpha: f32) -> Self {
        assert!(rho > 0.0 && (0.0..=1.0).contains(&alpha));
        MoFedSam {
            rho,
            alpha,
            momentum: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for MoFedSam {
    fn name(&self) -> String {
        "MoFedSAM".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = SamSpec {
            rho: self.rho,
            blend: Some((self.alpha, &self.momentum)),
            ..SamSpec::default()
        };
        run_local_sam(env, global, &CrossEntropy, &spec)
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

    // As FedCM: the global momentum buffer is the only cross-round state.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.momentum.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.momentum = decode_state(bytes)?;
        Ok(())
    }
}

/// FedSpeed-lite: SAM ascent + proximal pull to the round-start model.
pub struct FedSpeed {
    /// Ascent radius ρ.
    pub rho: f32,
    /// Proximal coefficient μ.
    pub mu: f32,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedSpeed {
    /// New FedSpeed-lite.
    pub fn new(rho: f32, mu: f32) -> Self {
        assert!(rho > 0.0 && mu >= 0.0);
        FedSpeed {
            rho,
            mu,
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedSpeed {
    fn name(&self) -> String {
        "FedSpeed-lite".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = SamSpec {
            rho: self.rho,
            prox: Some(self.mu),
            ..SamSpec::default()
        };
        run_local_sam(env, global, &CrossEntropy, &spec)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // ρ and μ are construction-time configuration; nothing crosses rounds.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(().encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        decode_state(bytes)
    }
}

/// FedSMOO-lite: SAM ascent + FedDyn-style per-client correction state.
pub struct FedSmoo {
    /// Ascent radius ρ.
    pub rho: f32,
    /// State coefficient λ.
    pub lambda: f32,
    states: Vec<Vec<f32>>,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedSmoo {
    /// New FedSMOO-lite for `num_clients` clients.
    pub fn new(rho: f32, lambda: f32, num_clients: usize) -> Self {
        assert!(rho > 0.0 && lambda > 0.0);
        FedSmoo {
            rho,
            lambda,
            states: vec![Vec::new(); num_clients],
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedSmoo {
    fn name(&self) -> String {
        "FedSMOO-lite".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = SamSpec {
            rho: self.rho,
            prox: Some(self.lambda),
            dyn_state: Some(&self.states[env.id]),
            ..SamSpec::default()
        };
        run_local_sam(env, global, &CrossEntropy, &spec)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let dim = global.len();
        let lr = input.cfg.local_lr;
        for u in &input.updates {
            let h = &mut self.states[u.client];
            if h.is_empty() {
                *h = vec![0.0f32; dim];
            }
            let steps = lr * u.num_batches as f32;
            for (hj, d) in h.iter_mut().zip(&u.delta) {
                *hj += self.lambda * steps * d;
            }
        }
        average_step(global, input, &mut self.dir)
    }

    // Cross-round state: every client's correction state `h_i`.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.states.encode())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let states: Vec<Vec<f32>> = decode_state(bytes)?;
        if states.len() != self.states.len() {
            return Err(StateError::Malformed);
        }
        self.states = states;
        Ok(())
    }
}

/// FedLESAM-lite: perturb along the *previous global direction* instead of
/// the local gradient — one gradient evaluation per step.
pub struct FedLesam {
    /// Ascent radius ρ.
    pub rho: f32,
    momentum: Vec<f32>,
}

impl FedLesam {
    /// New FedLESAM-lite.
    pub fn new(rho: f32) -> Self {
        assert!(rho > 0.0);
        FedLesam {
            rho,
            momentum: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedLesam {
    fn name(&self) -> String {
        "FedLESAM-lite".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = SamSpec {
            rho: self.rho,
            global_perturbation: (!self.momentum.is_empty()).then_some(&self.momentum[..]),
            ..SamSpec::default()
        };
        run_local_sam(env, global, &CrossEntropy, &spec)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }
        uniform_average(&input.updates, &mut self.momentum);
        server_step(global, &self.momentum, input.cfg, input.mean_batches());
        RoundLog::default()
    }

    // The previous global direction is the only cross-round state.
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
    use crate::testutil::{build_sim, small_task};

    #[test]
    fn fedsam_learns() {
        let (train, test, cfg) = small_task(81, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut FedSam::new(0.05));
        assert!(h.final_accuracy(1) > 0.5, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn mofedsam_learns() {
        let (train, test, cfg) = small_task(82, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.1);
        let h = sim.run(&mut MoFedSam::new(0.05, 0.1));
        assert!(h.final_accuracy(1) > 0.45, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn fedspeed_and_fedsmoo_learn() {
        let (train, test, cfg) = small_task(83, 1.0);
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h1 = sim.run(&mut FedSpeed::new(0.05, 0.01));
        assert!(
            h1.final_accuracy(1) > 0.45,
            "FedSpeed acc {}",
            h1.final_accuracy(1)
        );
        let h2 = sim.run(&mut FedSmoo::new(0.05, 0.01, clients));
        assert!(
            h2.final_accuracy(1) > 0.45,
            "FedSMOO acc {}",
            h2.final_accuracy(1)
        );
    }

    #[test]
    fn fedlesam_learns() {
        let (train, test, cfg) = small_task(84, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h = sim.run(&mut FedLesam::new(0.05));
        assert!(h.final_accuracy(1) > 0.5, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn sam_perturbation_changes_trajectory() {
        let (train, test, cfg) = small_task(85, 1.0);
        let sim = build_sim(&train, &test, cfg, 0.6);
        let h_small = sim.run(&mut FedSam::new(1e-6));
        let h_big = sim.run(&mut FedSam::new(0.5));
        let diverged = h_small
            .records
            .iter()
            .zip(&h_big.records)
            .any(|(a, b)| a.train_loss != b.train_loss);
        assert!(diverged, "rho had no effect");
    }
}
