//! FedGrab (Xiao et al., NeurIPS 2024) — self-adjusting gradient balancer
//! with direct prior analysis.
//!
//! Reproduced mechanisms:
//!
//! 1. **Prior analyzer**: the server knows the global class prior (here
//!    from the aggregated class counts, as the original estimates it) and
//!    clients train with prior-adjusted logits (Balanced-Softmax);
//! 2. **Self-adjusting gradient balancer**: per class, an EMA of the
//!    classifier-row gradient energy is maintained during local training;
//!    each row's gradient is rescaled by `(mean/​energy_c)^τ`, so classes
//!    whose classifier rows have absorbed more gradient get damped and
//!    starved rows get boosted.
//!
//! Simplification vs. the original (documented): the balancer state is
//! per-client-per-round rather than persisted server-side, and operates on
//! the final linear layer only (where minority collapse manifests).

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::BalancedSoftmax;

/// FedGrab with balancer exponent τ.
pub struct FedGrab {
    /// Balancer strength τ ∈ [0, 1]; 0 disables rebalancing.
    pub tau: f32,
    /// EMA factor for per-class gradient energy.
    pub ema: f32,
    global_counts: Vec<usize>,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl FedGrab {
    /// New FedGrab given the global class counts (the prior analyzer's
    /// output).
    pub fn new(global_counts: Vec<usize>) -> Self {
        assert!(!global_counts.is_empty());
        FedGrab {
            tau: 0.5,
            ema: 0.9,
            global_counts,
            dir: Vec::new(),
        }
    }
}

impl FederatedAlgorithm for FedGrab {
    fn name(&self) -> String {
        "FedGrab".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let loss = BalancedSoftmax::from_counts(&self.global_counts);
        let spec = LocalSgdSpec {
            loss: &loss,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let classes = self.global_counts.len();
        let mut energy = vec![1e-8f64; classes];
        run_local(env, global, &spec, |model, x, y, grads, _| {
            // Classifier layer: the model's last layer (weights then biases).
            let (clf_off, clf_len) = model.layer_param_range(model.num_layers() - 1);
            assert!(clf_len > classes, "classifier layer too small");
            let feat = (clf_len - classes) / classes;
            assert_eq!(
                feat * classes + classes,
                clf_len,
                "unexpected classifier layout"
            );
            let l = model.loss_grad(x, y, &loss, grads);

            // Gradient balancer on the classifier rows.
            if self.tau > 0.0 {
                let rows = &mut grads[clf_off..clf_off + classes * feat];
                // Update energies.
                for c in 0..classes {
                    let row = &rows[c * feat..(c + 1) * feat];
                    let e: f64 = row.iter().map(|&g| (g * g) as f64).sum();
                    energy[c] = self.ema as f64 * energy[c] + (1.0 - self.ema as f64) * e;
                }
                let mean_e: f64 = energy.iter().sum::<f64>() / classes as f64;
                for c in 0..classes {
                    let s = (mean_e / energy[c].max(1e-12)).powf(self.tau as f64) as f32;
                    // Clamp so one dead class cannot explode a row.
                    let s = s.clamp(0.1, 10.0);
                    for g in &mut rows[c * feat..(c + 1) * feat] {
                        *g *= s;
                    }
                }
            }
            l
        })
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        average_step(global, input, &mut self.dir)
    }

    // τ, the EMA factor and the prior are construction-time configuration;
    // the balancer's energies live for one client update.
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
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::{FlConfig, Simulation};
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::Xoshiro256pp;

    fn run_task(imb: f64, seed: u64, tau: f32) -> f64 {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 70, imb);
        let train = spec.generate_train(&counts, seed);
        let test = spec.generate_test(seed);
        let global_counts = train.class_counts();
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 8;
        cfg.participation = 0.5;
        cfg.rounds = 12;
        cfg.local_epochs = 2;
        cfg.batch_size = 20;
        cfg.eval_every = 4;
        cfg.seed = seed;
        let part = paper_partition(&train, cfg.clients, 0.3, cfg.seed);
        let views = part.views(&train);
        let sim = Simulation::new(
            cfg,
            &train,
            &test,
            views,
            Box::new(|| {
                let mut rng = Xoshiro256pp::seed_from(2024);
                mlp(64, &[32], 10, &mut rng)
            }),
        );
        let mut algo = FedGrab::new(global_counts);
        algo.tau = tau;
        sim.run(&mut algo).final_accuracy(1)
    }

    #[test]
    fn learns_moderate_longtail() {
        let acc = run_task(0.5, 121, 0.5);
        assert!(acc > 0.45, "acc {acc}");
    }

    #[test]
    fn balancer_changes_trajectory() {
        let with_b = run_task(0.1, 122, 0.5);
        let without = run_task(0.1, 122, 0.0);
        assert_ne!(with_b, without);
    }

    #[test]
    fn learns_balanced_task() {
        let acc = run_task(1.0, 123, 0.5);
        assert!(acc > 0.5, "acc {acc}");
    }
}
