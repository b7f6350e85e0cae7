//! Algorithm 3: FedWCM-X — the quantity-skew generalisation.
//!
//! Two changes over FedWCM (Appendix A.2):
//!
//! 1. weights gain a data-volume factor `w'_k ∝ w_k · n_k` (renormalised);
//! 2. the local learning rate is rescaled per client,
//!    `η'_l = η_l · B̂ / B_k`, where `B̂` is the step count a client would
//!    run under an equal split — large clients take proportionally smaller
//!    steps so their many batches do not dominate.
//!
//! With the engine's normalised-delta convention, `η'_l · B_k = η_l · B̂`
//! for every client, which is exactly Algorithm 3's `1/(η_l B̂)`
//! normalisation — the deltas arrive pre-normalised.

use crate::adaptive::{adaptive_alpha, score_ratio, ALPHA_MIN};
use crate::algorithm::FedWcmOptions;
use crate::score::{client_scores, global_distribution, imbalance_degree, temperature};
use crate::weighting::{aggregation_weights, volume_adjusted_weights};
use fedwcm_fl::algorithm::{
    server_step, weighted_average, FederatedAlgorithm, RoundInput, RoundLog,
};
use fedwcm_fl::client::{momentum_direction, run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_nn::loss::CrossEntropy;

/// FedWCM-X (Algorithm 3).
pub struct FedWcmX {
    options: FedWcmOptions,
    momentum: Vec<f32>,
    alpha: f32,
    scores: Vec<f64>,
    mean_score: f64,
    imbalance: f64,
    temp: f64,
    classes: usize,
    /// Reference batch count `B̂` per round (equal-split steps).
    standard_batches: usize,
    prepared: bool,
}

impl FedWcmX {
    /// New FedWCM-X. `standard_batches` is `B̂`: the local step count of a
    /// client under an equal data split (computed by
    /// [`FedWcmX::standard_batches_for`]).
    pub fn new(standard_batches: usize) -> Self {
        assert!(standard_batches >= 1);
        FedWcmX {
            options: FedWcmOptions::default(),
            momentum: Vec::new(),
            alpha: ALPHA_MIN as f32,
            scores: Vec::new(),
            mean_score: 0.0,
            imbalance: 0.0,
            temp: 1.0,
            classes: 0,
            standard_batches,
            prepared: false,
        }
    }

    /// `B̂` for a dataset of `total` samples split over `clients` clients
    /// with the given batch size and local epochs.
    pub fn standard_batches_for(
        total: usize,
        clients: usize,
        batch_size: usize,
        local_epochs: usize,
    ) -> usize {
        let per_client = (total / clients.max(1)).max(1);
        per_client.div_ceil(batch_size).max(1) * local_epochs
    }

    /// Momentum value to be used next round.
    pub fn current_alpha(&self) -> f32 {
        self.alpha
    }

    fn prepare(&mut self, views: &[fedwcm_data::dataset::ClientView], classes: usize) {
        let global = global_distribution(views, classes);
        let target = self
            .options
            .target
            .clone()
            .unwrap_or_else(|| vec![1.0 / classes as f64; classes]);
        self.scores = client_scores(views, &global, &target);
        self.mean_score = self.scores.iter().sum::<f64>() / self.scores.len().max(1) as f64;
        self.imbalance = imbalance_degree(&global, &target);
        self.temp = temperature(&global, &target);
        self.classes = classes;
        self.prepared = true;
    }
}

impl FederatedAlgorithm for FedWcmX {
    fn name(&self) -> String {
        "FedWCM-X".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        // η'_l = η_l · B̂ / B_k  (equalises total local displacement).
        let b_k = (env.batches_per_epoch() * env.cfg.local_epochs).max(1);
        let lr = env.cfg.local_lr * self.standard_batches as f32 / b_k as f32;
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr,
            epochs: env.cfg.local_epochs,
        };
        let direction = momentum_direction(&self.momentum, self.alpha);
        run_local_sgd(env, global, &spec, direction)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        if !self.prepared {
            let classes = input.views[0].class_counts().len();
            self.prepare(input.views, classes);
        }
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }
        let used_alpha = self.alpha as f64;

        // Eq. (4) weights × data volume, renormalised.
        let sampled_scores: Vec<f64> = input
            .updates
            .iter()
            .map(|u| self.scores[u.client])
            .collect();
        let base = aggregation_weights(&sampled_scores, self.temp);
        let sizes: Vec<usize> = input.updates.iter().map(|u| u.num_samples).collect();
        let w = volume_adjusted_weights(&base, &sizes);
        weighted_average(&input.updates, &w, &mut self.momentum);

        // Server step uses B̂ (deltas are normalised by η_l·B̂ already).
        server_step(
            global,
            &self.momentum,
            input.cfg,
            self.standard_batches as f32,
        );

        // Eq. (5).
        let q = score_ratio(&sampled_scores, self.mean_score);
        self.alpha = adaptive_alpha(self.imbalance, self.classes, q) as f32;

        RoundLog {
            alpha: Some(used_alpha),
            weights: Some(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::fedgrab_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::{FlConfig, Simulation};
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::Xoshiro256pp;

    fn skewed_task(seed: u64, imb: f64) -> (fedwcm_data::Dataset, fedwcm_data::Dataset, FlConfig) {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 80, imb);
        let train = spec.generate_train(&counts, seed);
        let test = spec.generate_test(seed);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 8;
        cfg.participation = 0.5;
        cfg.rounds = 12;
        cfg.local_epochs = 2;
        cfg.batch_size = 20;
        cfg.eval_every = 4;
        cfg.seed = seed;
        (train, test, cfg)
    }

    #[test]
    fn standard_batches_formula() {
        assert_eq!(FedWcmX::standard_batches_for(800, 8, 20, 2), 10);
        assert_eq!(FedWcmX::standard_batches_for(10, 20, 50, 3), 3);
    }

    #[test]
    fn learns_under_quantity_skew() {
        let (train, test, cfg) = skewed_task(101, 0.5);
        // FedGrab partition ⇒ heavy quantity skew (the FedWCM-X regime).
        let part = fedgrab_partition(&train, cfg.clients, 0.5, cfg.seed);
        let views = part.views(&train);
        let b_hat = FedWcmX::standard_batches_for(
            train.len(),
            cfg.clients,
            cfg.batch_size,
            cfg.local_epochs,
        );
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
        let h = sim.run(&mut FedWcmX::new(b_hat));
        assert!(h.final_accuracy(1) > 0.35, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn lr_rescaling_equalises_displacement_scale() {
        // Two clients with very different B_k must produce deltas of the
        // same normalisation (checked via the identity η'_l·B_k = η_l·B̂).
        let b_hat = 10usize;
        for b_k in [2usize, 10, 40] {
            let lr_scaled = 0.1 * b_hat as f32 / b_k as f32;
            assert!((lr_scaled * b_k as f32 - 0.1 * b_hat as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_logged_and_normalised() {
        let (train, test, mut cfg) = skewed_task(102, 0.5);
        cfg.rounds = 2;
        let part = fedgrab_partition(&train, cfg.clients, 0.5, cfg.seed);
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
        let mut algo = FedWcmX::new(5);
        let _ = sim.run(&mut algo);
        assert!(algo.current_alpha() >= ALPHA_MIN as f32);
    }
}
