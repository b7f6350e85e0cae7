//! The [`FederatedAlgorithm`] trait: the plug-in point for every method.

use crate::client::{ClientEnv, ClientUpdate};
use crate::config::FlConfig;
use fedwcm_data::dataset::ClientView;

/// Everything an algorithm's aggregation step can see about a round.
pub struct RoundInput<'a> {
    /// Round index `r`.
    pub round: usize,
    /// Simulation configuration.
    pub cfg: &'a FlConfig,
    /// Updates from the sampled clients, in client-id order.
    pub updates: Vec<ClientUpdate>,
    /// All client views (indexable by client id). Only a FedWCM built
    /// without a class prior reads them, to build one in the clear on its
    /// first aggregation.
    pub views: &'a [ClientView],
}

impl RoundInput<'_> {
    /// Mean local step count `B̄` over the sampled clients. The server step
    /// `x ← x − η_g·η_l·B̄·Δ` uses this to restore model-averaging scale.
    pub fn mean_batches(&self) -> f32 {
        if self.updates.is_empty() {
            return 1.0;
        }
        let total: usize = self.updates.iter().map(|u| u.num_batches).sum();
        total as f32 / self.updates.len() as f32
    }
}

/// Per-round diagnostic output recorded into the history.
#[derive(Clone, Debug, Default)]
pub struct RoundLog {
    /// Momentum value used this round (FedCM/FedWCM).
    pub alpha: Option<f64>,
    /// Aggregation weights used this round (FedWCM).
    pub weights: Option<Vec<f64>>,
}

/// Why an algorithm state blob could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The algorithm does not implement state capture, so a checkpointed
    /// run cannot be resumed with it.
    Unsupported,
    /// The blob does not parse as this algorithm's state (truncated,
    /// wrong version, or produced by a different algorithm).
    Malformed,
}

/// A federated-learning algorithm: local training + server aggregation.
///
/// `local_train` is called concurrently for the round's sampled clients
/// (hence `&self`); all mutable algorithm state (momentum buffers, control
/// variates, adaptive parameters) updates inside `aggregate`, which the
/// engine calls once per round with the collected updates.
pub trait FederatedAlgorithm: Send + Sync {
    /// Display name used in tables and legends.
    fn name(&self) -> String;

    /// Train one sampled client from the current global parameters.
    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate;

    /// Aggregate the round's updates into the global parameters and update
    /// internal state. Returns diagnostics for the history.
    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog;

    /// Serialize every piece of internal state that influences future
    /// rounds (momentum buffers, control variates, adaptive parameters),
    /// such that a fresh instance fed this blob via
    /// [`FederatedAlgorithm::load_state`] continues the run **bitwise
    /// identically**. Returns `None` when the algorithm does not support
    /// state capture — the conservative default, so checkpointing an
    /// unprepared algorithm fails loudly instead of resuming from a
    /// silently reset state. The blob is the state's
    /// [`Wire::encode`](crate::codec::Wire::encode) (`()` for a stateless
    /// algorithm: the empty blob).
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state captured by [`FederatedAlgorithm::save_state`]:
    /// [`decode_state`](crate::codec::decode_state) at the state's type.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), StateError> {
        Err(StateError::Unsupported)
    }

    /// The length of the vector the server keeps beside the model
    /// (SCAFFOLD's server control, FedDyn's mean state, a momentum
    /// buffer), if it holds a non-empty one: a checkpoint's restore
    /// refuses a loaded state where it is not the model's length. `None`
    /// by default: nothing to check.
    fn shared_len(&self) -> Option<usize> {
        None
    }
}

/// Uniform average of update deltas (the FedAvg aggregation), written into
/// `out` (overwriting), four updates to a pass: each element is the chain
/// of per-update `axpy`s into zero ([`fedwcm_tensor::ops::axpy_sum`]).
/// Panics on empty updates.
pub fn uniform_average(updates: &[ClientUpdate], out: &mut [f32]) {
    assert!(!updates.is_empty(), "no updates to aggregate");
    let w = 1.0 / updates.len() as f32;
    fedwcm_tensor::ops::axpy_sum(out, updates.len(), |k| (w, &updates[k].delta));
}

/// Weighted average of update deltas with the given per-update weights
/// (need not sum to one; caller controls normalisation), four updates to
/// a pass like [`uniform_average`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "a weight is rounded to the f32 the kernels compute in; that rounding is the point"
)]
pub fn weighted_average(updates: &[ClientUpdate], weights: &[f64], out: &mut [f32]) {
    assert_eq!(
        updates.len(),
        weights.len(),
        "weights/updates length mismatch"
    );
    assert!(!updates.is_empty(), "no updates to aggregate");
    fedwcm_tensor::ops::axpy_sum(out, updates.len(), |k| {
        (weights[k] as f32, &updates[k].delta)
    });
}

/// Apply the server step `x ← x − η_g·η_l·B̄·Δ` (see crate docs).
pub fn server_step(global: &mut [f32], direction: &[f32], cfg: &FlConfig, mean_batches: f32) {
    let step = cfg.global_lr * cfg.local_lr * mean_batches;
    fedwcm_tensor::ops::axpy(-step, direction, global);
}

/// The FedAvg server step: step along the uniform average of the round's
/// deltas. The whole of `aggregate` for a method whose server keeps no
/// state, and the model half of one that keeps it beside the model.
///
/// The average goes through `dir`, work space the caller owns and keeps
/// across rounds (sized to `global` on first use), so that a round
/// allocates nothing parameter-sized. It carries nothing from one round
/// to the next: it is not algorithm state.
pub fn average_step(global: &mut [f32], input: &RoundInput<'_>, dir: &mut Vec<f32>) -> RoundLog {
    dir.resize(global.len(), 0.0);
    uniform_average(&input.updates, dir);
    server_step(global, dir, input.cfg, input.mean_batches());
    RoundLog::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, delta: Vec<f32>, batches: usize) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: 10,
            num_batches: batches,
            avg_loss: 1.0,
            extra: None,
        }
    }

    #[test]
    fn uniform_average_is_mean() {
        let updates = vec![upd(0, vec![1.0, 2.0], 5), upd(1, vec![3.0, 4.0], 5)];
        let mut out = vec![9.0; 2];
        uniform_average(&updates, &mut out);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn weighted_average_applies_weights() {
        let updates = vec![upd(0, vec![1.0, 0.0], 5), upd(1, vec![0.0, 1.0], 5)];
        let mut out = vec![0.0; 2];
        weighted_average(&updates, &[0.25, 0.75], &mut out);
        assert_eq!(out, vec![0.25, 0.75]);
    }

    /// Both averages are, element by element, the chain of per-update
    /// `axpy`s into a zeroed buffer — bit for bit, NaN payloads, signed
    /// zeros, infinities and subnormals included, whatever `out` held.
    #[test]
    fn averages_are_the_per_update_axpy_chain_bitwise() {
        let n = 5_003;
        let special = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let updates: Vec<ClientUpdate> = (0..7)
            .map(|k| {
                let delta = (0..n)
                    .map(|i| match (i * 7 + k * 13) % 97 {
                        s if s < special.len() => special[(s + k) % special.len()],
                        s => {
                            (i as f32 * 0.37 + s as f32).sin() * [1e-4, 1e-2, 1.0, 1e2, 1e4][s % 5]
                        }
                    })
                    .collect();
                upd(k, delta, 1)
            })
            .collect();
        let weights = [0.3, -0.0, 1e-40, 2.5, -1.75, 1.0 / 3.0, 7e30];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let chain = |w: &dyn Fn(usize) -> f32| {
            let mut out = vec![0.0f32; n];
            for (k, u) in updates.iter().enumerate() {
                fedwcm_tensor::ops::axpy(w(k), &u.delta, &mut out);
            }
            bits(&out)
        };

        let mut out = vec![f32::NAN; n];
        uniform_average(&updates, &mut out);
        assert_eq!(bits(&out), chain(&|_| 1.0 / 7.0), "uniform");

        let mut out = vec![-0.0f32; n];
        #[expect(clippy::cast_possible_truncation, reason = "the kernels' f32 weight")]
        let expected = chain(&|k| weights[k] as f32);
        weighted_average(&updates, &weights, &mut out);
        assert_eq!(bits(&out), expected, "weighted");
    }

    #[test]
    fn server_step_recovers_model_averaging() {
        // One client, identity aggregation: the server step must land the
        // global model exactly on the client's final local model.
        let cfg = FlConfig {
            global_lr: 1.0,
            local_lr: 0.1,
            ..FlConfig::default_sim()
        };
        let global_before = vec![1.0f32, -1.0];
        // Client moved to [0.5, -0.8] over B=4 steps at lr=0.1:
        let local_final = [0.5f32, -0.8];
        let delta: Vec<f32> = global_before
            .iter()
            .zip(&local_final)
            .map(|(g, p)| (g - p) / (0.1 * 4.0))
            .collect();
        let mut global = global_before.clone();
        server_step(&mut global, &delta, &cfg, 4.0);
        for (g, l) in global.iter().zip(&local_final) {
            assert!((g - l).abs() < 1e-6);
        }
    }

    #[test]
    fn mean_batches_handles_mixed_sizes() {
        let cfg = FlConfig::default_sim();
        let input = RoundInput {
            round: 0,
            cfg: &cfg,
            updates: vec![upd(0, vec![], 2), upd(1, vec![], 6)],
            views: &[],
        };
        assert_eq!(input.mean_batches(), 4.0);
    }
}
