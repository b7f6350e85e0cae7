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
use crate::score::{client_scores, global_distribution, imbalance_degree, temperature};
use crate::weighting::{aggregation_weights, volume_adjusted_weights};
use fedwcm_fl::algorithm::{
    server_step, uniform_average, weighted_average, FederatedAlgorithm, RoundInput, RoundLog,
    StateError,
};
use fedwcm_fl::client::{momentum_direction, run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::{CrossEntropy, Loss};
use std::sync::Arc;

/// Configuration / ablation switches for FedWCM.
#[derive(Clone, Debug)]
pub struct FedWcmOptions {
    /// Target distribution `p̂` (None = uniform, the paper default).
    pub target: Option<Vec<f64>>,
    /// Adapt the momentum value per Eq. (5); `false` pins α = 0.1
    /// (ablation 1 in DESIGN.md).
    pub adaptive_alpha: bool,
    /// Weight the momentum aggregation per Eq. (4); `false` averages
    /// uniformly (ablation 2).
    pub weighted_aggregation: bool,
    /// Adapt the temperature to global imbalance; `false` uses
    /// `fixed_temperature` (ablation 3).
    pub adaptive_temperature: bool,
    /// Temperature used when `adaptive_temperature` is off.
    pub fixed_temperature: f64,
    /// Use the literal Eq. (3) absolute deviation instead of the rectified
    /// scarcity score (ablation; see `score::client_scores`).
    pub literal_scores: bool,
}

impl Default for FedWcmOptions {
    fn default() -> Self {
        FedWcmOptions {
            target: None,
            adaptive_alpha: true,
            weighted_aggregation: true,
            adaptive_temperature: true,
            fixed_temperature: 0.05,
            literal_scores: false,
        }
    }
}

/// State computed once from the client views (the paper's "global
/// information gathering" phase, §5.1).
struct GlobalInfo {
    scores: Vec<f64>,
    mean_score: f64,
    imbalance: f64,
    temperature: f64,
    classes: usize,
}

/// FedWCM (Algorithm 1): weighted, adaptively-damped client momentum;
/// FedWCM-X (Algorithm 3) when built by [`FedWcm::x`].
pub struct FedWcm {
    options: FedWcmOptions,
    loss: Arc<dyn Loss>,
    momentum: Vec<f32>,
    alpha: f32,
    info: Option<GlobalInfo>,
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
            info: None,
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

    /// The momentum value α that will be used in the **next** round.
    pub fn current_alpha(&self) -> f32 {
        self.alpha
    }

    /// Precompute scores/temperature from the client views. Called lazily
    /// on the first aggregation; exposed for tests and analysis.
    pub fn prepare(&mut self, views: &[fedwcm_data::dataset::ClientView], classes: usize) {
        let global = global_distribution(views, classes);
        let target = self
            .options
            .target
            .clone()
            .unwrap_or_else(|| vec![1.0 / classes as f64; classes]);
        assert_eq!(target.len(), classes, "target distribution arity");
        let scores = if self.options.literal_scores {
            crate::score::client_scores_literal(views, &global, &target)
        } else {
            client_scores(views, &global, &target)
        };
        let mean_score = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        let imbalance = imbalance_degree(&global, &target);
        let temp = if self.options.adaptive_temperature {
            temperature(&global, &target)
        } else {
            self.options.fixed_temperature
        };
        self.info = Some(GlobalInfo {
            scores,
            mean_score,
            imbalance,
            temperature: temp,
            classes,
        });
    }

    #[expect(
        clippy::expect_used,
        reason = "documented trait contract: the engine always calls prepare_round \
                  before any accessor; a cold call is a harness sequencing bug \
                  worth crashing on"
    )]
    fn info(&self) -> &GlobalInfo {
        self.info
            .as_ref()
            .expect("FedWCM used before prepare/aggregate")
    }
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
        if self.info.is_none() {
            let classes = input.views[0].class_counts().len();
            self.prepare(input.views, classes);
        }
        if self.momentum.is_empty() {
            self.momentum = vec![0.0f32; global.len()];
        }

        let used_alpha = self.alpha as f64;

        // Eq. (4): weighted momentum aggregation over the sampled cohort.
        let weights = if self.options.weighted_aggregation {
            let sampled: Vec<f64> = input
                .updates
                .iter()
                .map(|u| self.info().scores[u.client])
                .collect();
            let mut w = aggregation_weights(&sampled, self.info().temperature);
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
            let info = self.info();
            let sampled: Vec<f64> = input
                .updates
                .iter()
                .map(|u| info.scores[u.client])
                .collect();
            let q = score_ratio(&sampled, info.mean_score);
            self.alpha = adaptive_alpha(info.imbalance, info.classes, q) as f32;
        }

        RoundLog {
            alpha: Some(used_alpha),
            weights,
        }
    }

    // Cross-round state is the momentum buffer and the adapted α. The
    // `GlobalInfo` cache is a pure function of the client views and is
    // recomputed lazily on the first post-resume aggregation, so it is
    // deliberately not serialized; FedWCM-X's `B̂` is construction-time
    // configuration.
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
    fn custom_target_distribution_changes_scoring() {
        // §5.1: "users can adjust [the target] based on the prior
        // distribution relevant to their specific application scenarios".
        // With the target set to the actual global distribution, the
        // imbalance vanishes and FedWCM degenerates to FedCM behaviour.
        let (train, _, cfg) = task(98, 0.05);
        let part = paper_partition(&train, cfg.clients, 0.6, cfg.seed);
        let views = part.views(&train);
        let global = crate::score::global_distribution(&views, 10);

        let mut uniform_target = FedWcm::new();
        uniform_target.prepare(&views, 10);
        let mut matched_target = FedWcm::with_options(FedWcmOptions {
            target: Some(global.clone()),
            ..FedWcmOptions::default()
        });
        matched_target.prepare(&views, 10);

        let u = uniform_target.info.as_ref().unwrap();
        let m = matched_target.info.as_ref().unwrap();
        assert!(u.imbalance > 0.2, "uniform target sees the long tail");
        assert!(m.imbalance < 1e-9, "matched target sees no imbalance");
        assert!(m.scores.iter().all(|&s| s < 1e-9));
        assert!(m.temperature > u.temperature);
    }

    #[test]
    fn prepare_computes_scores_for_all_clients() {
        let (train, _, cfg) = task(97, 0.1);
        let part = paper_partition(&train, cfg.clients, 0.6, cfg.seed);
        let views = part.views(&train);
        let mut algo = FedWcm::new();
        algo.prepare(&views, 10);
        let info = algo.info.as_ref().unwrap();
        assert_eq!(info.scores.len(), cfg.clients);
        assert!(info.imbalance > 0.1, "IF=0.1 should register imbalance");
        assert!(info.temperature < 1.0, "temperature should sharpen");
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
