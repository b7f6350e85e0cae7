//! Algorithm 1: FedWCM, and Algorithm 3: FedWCM-X, its quantity-skew
//! generalisation (Appendix A.2), which is FedWCM with two changes:
//!
//! 1. weights gain a data-volume factor `w'_k ∝ w_k · n_k` (renormalised);
//! 2. the local learning rate is rescaled per client,
//!    `η'_l = η_l · B̂ / B_k`, where `B̂` is the step count a client would
//!    run under an equal split — large clients take proportionally smaller
//!    steps so their many batches do not dominate.
//!
//! With the engine's normalised-delta convention, `η'_l · B_k = η_l · B̂`
//! for every client, which is exactly Algorithm 3's `1/(η_l B̂)`
//! normalisation — the deltas arrive pre-normalised, and the server step
//! uses `B̂` in place of the cohort's mean step count.

use crate::adaptive::{adaptive_alpha, score_ratio, ALPHA_MIN};
use crate::prior::ClassPrior;
use crate::score::ScoreForm;
use crate::weighting::{aggregation_weights, volume_adjusted_weights};
use fedwcm_data::dataset::ClientView;
use fedwcm_fl::algorithm::{
    server_step, uniform_average, weighted_average, FederatedAlgorithm, RoundInput, RoundLog,
    StateError,
};
use fedwcm_fl::client::{momentum_direction, run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};
use std::sync::Arc;

/// The temperature Eq. (4) runs at when `adaptive_temperature` is off.
pub const FIXED_TEMPERATURE: f64 = 0.05;

/// Configuration / ablation switches for FedWCM.
#[derive(Clone, Debug)]
pub struct FedWcmOptions {
    /// Adapt the momentum value per Eq. (5); `false` pins α = 0.1
    /// (ablation 1 in DESIGN.md).
    pub adaptive_alpha: bool,
    /// Weight the momentum aggregation per Eq. (4); `false` averages
    /// uniformly (ablation 2).
    pub weighted_aggregation: bool,
    /// Adapt the temperature to global imbalance; `false` uses
    /// [`FIXED_TEMPERATURE`] (ablation 3).
    pub adaptive_temperature: bool,
}

impl Default for FedWcmOptions {
    fn default() -> Self {
        FedWcmOptions {
            adaptive_alpha: true,
            weighted_aggregation: true,
            adaptive_temperature: true,
        }
    }
}

impl FedWcmOptions {
    /// Eq. (4)'s temperature: the prior's, or [`FIXED_TEMPERATURE`] under
    /// ablation 3.
    fn temperature(&self, prior: &ClassPrior) -> f64 {
        if self.adaptive_temperature {
            prior.temperature()
        } else {
            FIXED_TEMPERATURE
        }
    }
}

/// FedWCM (Algorithm 1): weighted, adaptively-damped client momentum;
/// FedWCM-X (Algorithm 3) when built by [`FedWcm::x`].
pub struct FedWcm {
    options: FedWcmOptions,
    loss: Arc<dyn Loss>,
    momentum: Vec<f32>,
    alpha: f32,
    /// The paper's "global information gathering" phase (§5.1).
    prior: Option<ClassPrior>,
    /// FedWCM-X's `B̂`: the equal-split local step count.
    standard_batches: Option<usize>,
}

impl FedWcm {
    /// FedWCM with default options and cross-entropy loss.
    pub fn new() -> Self {
        Self::with_options(FedWcmOptions::default())
    }

    /// FedWCM with explicit options.
    pub fn with_options(options: FedWcmOptions) -> Self {
        FedWcm {
            options,
            loss: Arc::new(CrossEntropy),
            momentum: Vec::new(),
            alpha: ALPHA_MIN as f32,
            prior: None,
            standard_batches: None,
        }
    }

    /// FedWCM-X (Algorithm 3). `standard_batches` is `B̂`: the local step
    /// count of a client under an equal data split
    /// ([`FedWcm::standard_batches_for`]).
    pub fn x(standard_batches: usize) -> Self {
        assert!(standard_batches >= 1);
        FedWcm {
            standard_batches: Some(standard_batches),
            ..Self::new()
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

    /// Replace the local loss (compositional experiments).
    pub fn with_loss(mut self, loss: Arc<dyn Loss>) -> Self {
        self.loss = loss;
        self
    }

    /// Train on `prior`, e.g. the one §5.5's encrypted exchange returns.
    pub fn with_prior(mut self, prior: ClassPrior) -> Self {
        self.prior = Some(prior);
        self
    }

    /// The class prior this FedWCM trains on, once it has one.
    pub fn prior(&self) -> Option<&ClassPrior> {
        self.prior.as_ref()
    }

    /// The momentum value α that will be used in the **next** round.
    pub fn current_alpha(&self) -> f32 {
        self.alpha
    }

    /// Build the rectified prior from every client's class counts, read
    /// in the clear. A FedWCM built without [`FedWcm::with_prior`] does
    /// this on its first aggregation, from the round's views.
    pub fn prepare(&mut self, views: &[ClientView], classes: usize) {
        self.prior = Some(plaintext_prior(views, classes));
    }
}

/// The rectified prior of the views' summed class counts.
fn plaintext_prior(views: &[ClientView], classes: usize) -> ClassPrior {
    let mut global = vec![0usize; classes];
    for v in views {
        global
            .iter_mut()
            .zip(v.class_counts())
            .for_each(|(g, &n)| *g += n);
    }
    let clients = views.iter().map(ClientView::class_counts);
    ClassPrior::new(&global, clients, ScoreForm::Rectified)
}

impl Default for FedWcm {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedAlgorithm for FedWcm {
    fn name(&self) -> String {
        if self.standard_batches.is_some() {
            "FedWCM-X".into()
        } else {
            "FedWCM".into()
        }
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let lr = match self.standard_batches {
            // FedWCM-X: η'_l = η_l · B̂ / B_k (equalises total local
            // displacement).
            Some(b_hat) => {
                let b_k = (env.batches_per_epoch() * env.cfg.local_epochs).max(1);
                env.cfg.local_lr * b_hat as f32 / b_k as f32
            }
            None => env.cfg.local_lr,
        };
        let spec = LocalSgdSpec {
            loss: self.loss.as_ref(),
            balanced_sampler: false,
            lr,
            epochs: env.cfg.local_epochs,
        };
        let direction = momentum_direction(&self.momentum, self.alpha);
        run_local_sgd(env, global, &spec, direction)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let prior = self.prior.get_or_insert_with(|| {
            plaintext_prior(input.views, input.views[0].class_counts().len())
        });
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }

        let used_alpha = self.alpha as f64;
        let sampled: Vec<f64> = input
            .updates
            .iter()
            .map(|u| prior.scores()[u.client])
            .collect();

        // Eq. (4): weighted momentum aggregation over the sampled cohort.
        let weights = if self.options.weighted_aggregation {
            let mut w = aggregation_weights(&sampled, self.options.temperature(prior));
            if self.standard_batches.is_some() {
                // FedWCM-X: × data volume, renormalised.
                let sizes: Vec<usize> = input.updates.iter().map(|u| u.num_samples).collect();
                w = volume_adjusted_weights(&w, &sizes);
            }
            weighted_average(&input.updates, &w, &mut self.momentum);
            Some(w)
        } else {
            uniform_average(&input.updates, &mut self.momentum);
            None
        };

        // Server step along the fresh balanced momentum; FedWCM-X's deltas
        // are normalised by η_l·B̂ already.
        let batches = self
            .standard_batches
            .map_or_else(|| input.mean_batches(), |b_hat| b_hat as f32);
        server_step(global, &self.momentum, input.cfg, batches);

        // Eq. (5): momentum value for the next round.
        if self.options.adaptive_alpha {
            let q = score_ratio(&sampled, prior.mean_score());
            self.alpha = adaptive_alpha(prior.imbalance(), prior.global().len(), q) as f32;
        }

        RoundLog {
            alpha: Some(used_alpha),
            weights,
        }
    }

    // Cross-round state is the momentum buffer and the adapted α. The
    // class prior is set-up input (the builder's, or the one the first
    // post-resume aggregation rebuilds from the views) and FedWCM-X's `B̂`
    // is construction-time configuration, so neither is serialized.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.alpha.wire_len() + self.momentum.wire_len());
        self.alpha.put(&mut out);
        self.momentum.put(&mut out);
        Some(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        (self.alpha, self.momentum) = decode_state(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::{fedgrab_partition, paper_partition};
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::{FlConfig, Simulation};
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::Xoshiro256pp;

    fn task(seed: u64, imb: f64) -> (fedwcm_data::Dataset, fedwcm_data::Dataset, FlConfig) {
        sized_task(70, seed, imb)
    }

    fn sized_task(
        per_class: usize,
        seed: u64,
        imb: f64,
    ) -> (fedwcm_data::Dataset, fedwcm_data::Dataset, FlConfig) {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, per_class, imb);
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

    fn sim<'a>(
        train: &'a fedwcm_data::Dataset,
        test: &'a fedwcm_data::Dataset,
        cfg: FlConfig,
        beta: f64,
    ) -> Simulation<'a> {
        let views = paper_partition(train, cfg.clients, beta, cfg.seed).views(train);
        sim_on(train, test, cfg, views)
    }

    fn sim_on<'a>(
        train: &'a fedwcm_data::Dataset,
        test: &'a fedwcm_data::Dataset,
        cfg: FlConfig,
        views: Vec<fedwcm_data::dataset::ClientView>,
    ) -> Simulation<'a> {
        Simulation::new(
            cfg,
            train,
            test,
            views,
            Box::new(|| {
                let mut rng = Xoshiro256pp::seed_from(2024);
                mlp(64, &[32], 10, &mut rng)
            }),
        )
    }

    #[test]
    fn learns_balanced_task() {
        let (train, test, cfg) = task(91, 1.0);
        let s = sim(&train, &test, cfg, 0.6);
        let h = s.run(&mut FedWcm::new());
        assert!(h.final_accuracy(1) > 0.5, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn learns_longtail_task() {
        let (train, test, cfg) = task(92, 0.1);
        let s = sim(&train, &test, cfg, 0.6);
        let h = s.run(&mut FedWcm::new());
        assert!(h.final_accuracy(1) > 0.3, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn alpha_stays_base_when_balanced() {
        let (train, test, mut cfg) = task(93, 1.0);
        cfg.rounds = 3;
        let s = sim(&train, &test, cfg, 0.6);
        let mut algo = FedWcm::new();
        let _ = s.run(&mut algo);
        // Synthetic label flips leave the global distribution essentially
        // uniform; α must stay at (or very near) the FedCM base.
        assert!(
            algo.current_alpha() < 0.4,
            "alpha {} on balanced data",
            algo.current_alpha()
        );
    }

    #[test]
    fn alpha_rises_under_longtail() {
        let (train, test, mut cfg) = task(94, 0.05);
        cfg.rounds = 3;
        let s = sim(&train, &test, cfg, 0.6);
        let mut algo = FedWcm::new();
        let _ = s.run(&mut algo);
        assert!(
            algo.current_alpha() > 0.5,
            "alpha {} under IF=0.05",
            algo.current_alpha()
        );
    }

    #[test]
    fn round_log_carries_weights() {
        let (train, test, mut cfg) = task(95, 0.1);
        cfg.rounds = 2;
        let s = sim(&train, &test, cfg, 0.6);
        let h = s.run(&mut FedWcm::new());
        // Engine stores alpha; weights live in the RoundLog (exercised via
        // direct aggregate call below).
        assert!(h.records[0].alpha.is_some());
    }

    #[test]
    fn ablations_change_behaviour() {
        let (train, test, cfg) = task(96, 0.05);
        let s = sim(&train, &test, cfg, 0.6);
        let full = s.run(&mut FedWcm::new());
        let mut no_adapt = FedWcm::with_options(FedWcmOptions {
            adaptive_alpha: false,
            ..FedWcmOptions::default()
        });
        let fixed = s.run(&mut no_adapt);
        assert_eq!(no_adapt.current_alpha(), ALPHA_MIN as f32);
        // Trajectories must differ (the adaptive α matters).
        let differ = full
            .records
            .iter()
            .zip(&fixed.records)
            .any(|(a, b)| a.train_loss != b.train_loss);
        assert!(differ);
    }

    #[test]
    fn prepare_computes_scores_for_all_clients() {
        let (train, _, cfg) = task(97, 0.1);
        let part = paper_partition(&train, cfg.clients, 0.6, cfg.seed);
        let views = part.views(&train);
        let mut algo = FedWcm::new();
        algo.prepare(&views, 10);
        let prior = algo.prior().unwrap();
        assert_eq!(prior.scores().len(), cfg.clients);
        assert!(prior.imbalance() > 0.1, "IF=0.1 should register imbalance");
        assert!(prior.temperature() < 1.0, "temperature should sharpen");
    }

    #[test]
    fn ablation_3_runs_at_the_paper_temperature() {
        // Ablation 3: with the adaptive temperature off, Eq. (4) runs at
        // τ = 0.05 exactly; the adaptive default derives another τ from the
        // long-tailed global distribution.
        let (train, _, cfg) = task(99, 0.1);
        let views = paper_partition(&train, cfg.clients, 0.6, cfg.seed).views(&train);
        let mut fixed = FedWcm::with_options(FedWcmOptions {
            adaptive_temperature: false,
            ..Default::default()
        });
        fixed.prepare(&views, 10);
        let mut adaptive = FedWcm::new();
        adaptive.prepare(&views, 10);
        let fixed_t = fixed.options.temperature(fixed.prior().unwrap());
        let adaptive_t = adaptive.options.temperature(adaptive.prior().unwrap());
        assert_eq!(fixed_t.to_bits(), 0.05f64.to_bits());
        assert_ne!(adaptive_t.to_bits(), fixed_t.to_bits());
    }

    #[test]
    fn standard_batches_formula() {
        assert_eq!(FedWcm::standard_batches_for(800, 8, 20, 2), 10);
        assert_eq!(FedWcm::standard_batches_for(10, 20, 50, 3), 3);
    }

    #[test]
    fn fedwcm_x_learns_under_quantity_skew() {
        let (train, test, cfg) = sized_task(80, 101, 0.5);
        // FedGrab partition ⇒ heavy quantity skew (the FedWCM-X regime).
        let views = fedgrab_partition(&train, cfg.clients, 0.5, cfg.seed).views(&train);
        let b_hat = FedWcm::standard_batches_for(
            train.len(),
            cfg.clients,
            cfg.batch_size,
            cfg.local_epochs,
        );
        let s = sim_on(&train, &test, cfg, views);
        let mut algo = FedWcm::x(b_hat);
        assert_eq!(algo.name(), "FedWCM-X");
        let h = s.run(&mut algo);
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
    fn fedwcm_x_adapts_alpha() {
        let (train, test, mut cfg) = sized_task(80, 102, 0.5);
        cfg.rounds = 2;
        let views = fedgrab_partition(&train, cfg.clients, 0.5, cfg.seed).views(&train);
        let s = sim_on(&train, &test, cfg, views);
        let mut algo = FedWcm::x(5);
        let _ = s.run(&mut algo);
        assert!(algo.current_alpha() >= ALPHA_MIN as f32);
    }
}
