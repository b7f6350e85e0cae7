//! BalanceFL (Shuai et al., IPSN 2022) — balanced local update scheme.
//!
//! The defining mechanism: make each client's local update behave as if it
//! were computed on a class-uniform distribution. Reproduced with the two
//! core ingredients:
//!
//! 1. **class-balanced resampling** over the client's locally-present
//!    classes (oversampling local tails);
//! 2. **knowledge inheritance** for locally-absent classes: the local
//!    model's logits on absent classes are pulled towards the (frozen)
//!    global model's logits, so locally-missing knowledge is not destroyed
//!    by the local update.

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};

/// BalanceFL with inheritance strength `lambda`.
pub struct BalanceFl {
    /// Weight of the absent-class logit-inheritance penalty.
    pub lambda: f32,
    /// Per-step gradient-norm clip. Balanced resampling repeats scarce
    /// samples many times per epoch, which can destabilise local SGD on
    /// tiny tail pools; clipping keeps the local update bounded (the
    /// original trains with standard stabilisation too).
    pub grad_clip: f32,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl BalanceFl {
    /// Standard configuration (λ = 1, clip = 10).
    pub fn new() -> Self {
        Self::with_lambda(1.0)
    }

    /// Custom inheritance strength.
    pub fn with_lambda(lambda: f32) -> Self {
        assert!(lambda >= 0.0);
        BalanceFl {
            lambda,
            grad_clip: 10.0,
            dir: Vec::new(),
        }
    }
}

impl Default for BalanceFl {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedAlgorithm for BalanceFl {
    fn name(&self) -> String {
        "BalanceFL".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: true,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        // Locally-absent classes (inheritance targets).
        let absent: Vec<usize> = env
            .view
            .class_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(c, _)| c)
            .collect();
        // The frozen global model, when it has logits to hand down.
        let mut teacher = (!absent.is_empty() && self.lambda > 0.0).then(|| env.model_from(global));

        run_local(env, global, &spec, |model, x, y, grads, _| {
            let logits = model.forward(x, true);
            let (ce, mut dlogits) = CrossEntropy.loss_and_grad(&logits, y);

            if let Some(teacher) = teacher.as_mut() {
                // Inheritance: ½‖z_c − z̄_c‖² mean over batch and absent
                // classes ⇒ dL/dz_c = λ(z_c − z̄_c)/(batch·|absent|).
                let targets = teacher.forward(x, false);
                let scale = self.lambda / (x.rows() * absent.len()) as f32;
                for r in 0..x.rows() {
                    for &c in &absent {
                        let diff = logits.at(r, c) - targets.at(r, c);
                        *dlogits.at_mut(r, c) += scale * diff;
                    }
                }
            }
            grads.fill(0.0);
            model.backward(&dlogits, grads);
            fedwcm_tensor::ops::clip_norm(grads, self.grad_clip);
            ce
        })
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // λ and the clip are construction-time configuration; nothing crosses
    // rounds.
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

    fn run_task(imb: f64, seed: u64, lambda: f32) -> f64 {
        let (train, test, cfg) = small_task(seed, imb);
        build_sim(&train, &test, cfg, 0.3)
            .run(&mut BalanceFl::with_lambda(lambda))
            .final_accuracy(1)
    }

    #[test]
    fn learns_longtail_task() {
        let acc = run_task(0.1, 111, 1.0);
        assert!(acc > 0.35, "acc {acc}");
    }

    #[test]
    fn learns_balanced_task() {
        let acc = run_task(1.0, 112, 1.0);
        assert!(acc > 0.5, "acc {acc}");
    }

    #[test]
    fn inheritance_changes_trajectory_under_skew() {
        // With strong class skew some clients miss classes entirely, so
        // λ=0 vs λ=5 must diverge.
        let with_inherit = run_task(0.1, 113, 5.0);
        let without = run_task(0.1, 113, 0.0);
        assert_ne!(with_inherit, without);
    }
}
