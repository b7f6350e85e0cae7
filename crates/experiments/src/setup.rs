//! Task construction: dataset generation, partitioning, model factory,
//! and the FL configuration — per preset and scale.

use crate::cli::Scale;
use fedwcm_core::{ClassPrior, ScoreForm};
use fedwcm_data::dataset::Dataset;
use fedwcm_data::longtail::longtail_counts_with_total;
use fedwcm_data::partition::{fedgrab_partition, paper_partition, Partition};
use fedwcm_data::synth::{DatasetPreset, FeatureShape};
use fedwcm_fl::client::ModelFactory;
use fedwcm_fl::{FlConfig, Simulation};
use fedwcm_he::protocol::aggregate_distributions;
use fedwcm_he::rlwe::RlweParams;
use fedwcm_nn::models::{mlp, res_lite};
use fedwcm_stats::Xoshiro256pp;

/// Full description of one experimental condition.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Dataset preset (paper dataset stand-in).
    pub preset: DatasetPreset,
    /// Imbalance factor `IF ∈ (0, 1]`.
    pub imbalance: f64,
    /// Dirichlet heterogeneity `β`.
    pub beta: f64,
    /// Total training samples (split into the long-tail profile).
    pub train_total: usize,
    /// Use the FedGrab (quantity-skewed) partition instead of the paper's
    /// equal-quantity partition.
    pub fedgrab_partition: bool,
    /// The engine configuration the condition runs under: clients `K`,
    /// participation, rounds, local epochs, batch size, seed (also the
    /// data, partition and HE seed) and cadence. [`ExpConfig::prepare`]
    /// derives `eval_every` from `rounds`, so a value set here is
    /// overwritten.
    pub fl: FlConfig,
}

impl ExpConfig {
    /// Default condition at the given scale for one preset.
    ///
    /// The paper defaults are β=0.1, IF=0.1, 100 clients at 10%
    /// participation, 500 rounds (40 clients / 300 rounds for the
    /// 100-class presets); smoke/quick shrink everything proportionally.
    pub fn new(preset: DatasetPreset, imbalance: f64, beta: f64, scale: Scale, seed: u64) -> Self {
        let many_classes = preset.spec().classes > 10;
        let (clients, participation, rounds, train_total, epochs, batch) = match scale {
            Scale::Smoke => (8, 0.5, 8, 800, 1, 20),
            Scale::Quick => {
                if many_classes {
                    (12, 0.34, 60, 3_000, 3, 20)
                } else {
                    (20, 0.25, 100, 2_000, 5, 20)
                }
            }
            Scale::Paper => {
                if many_classes {
                    (40, 0.1, 300, preset.spec().default_train_total, 5, 50)
                } else {
                    (100, 0.1, 500, preset.spec().default_train_total, 5, 50)
                }
            }
        };
        ExpConfig {
            preset,
            imbalance,
            beta,
            train_total,
            fedgrab_partition: false,
            fl: FlConfig {
                clients,
                participation,
                rounds,
                local_epochs: epochs,
                batch_size: batch,
                seed,
                ..FlConfig::default_sim()
            },
        }
    }

    /// Materialise the datasets, partition, and model factory.
    pub fn prepare(&self) -> PreparedTask {
        assert!(self.imbalance > 0.0 && self.imbalance <= 1.0);
        let (clients, seed) = (self.fl.clients, self.fl.seed);
        let spec = self.preset.spec();
        let counts = longtail_counts_with_total(spec.classes, self.train_total, self.imbalance);
        let train = spec.generate_train(&counts, seed);
        let test = spec.generate_test(seed);
        let partition = if self.fedgrab_partition {
            fedgrab_partition(&train, clients, self.beta, seed)
        } else {
            paper_partition(&train, clients, self.beta, seed)
        };
        let mut exp = self.clone();
        exp.fl.eval_every = (exp.fl.rounds / 20).max(1);
        PreparedTask {
            exp,
            train,
            test,
            partition,
            factory: model_factory(self.preset),
        }
    }
}

/// A fully materialised federated task, ready to run algorithms on.
pub struct PreparedTask {
    /// The condition this task realises; its `fl` is the engine
    /// configuration [`PreparedTask::simulation`] runs.
    pub exp: ExpConfig,
    /// Training dataset (long-tailed).
    pub train: Dataset,
    /// Balanced test dataset.
    pub test: Dataset,
    /// Client partition.
    pub partition: Partition,
    /// Model constructor.
    pub factory: Box<ModelFactory>,
}

impl PreparedTask {
    /// Build the engine simulation (borrows the task's datasets).
    pub fn simulation(&self) -> Simulation<'_> {
        let views = self.partition.views(&self.train);
        let factory = model_factory(self.exp.preset);
        Simulation::new(self.exp.fl.clone(), &self.train, &self.test, views, factory)
    }

    /// Global training class counts (prior analyzers, Balance Loss).
    pub fn global_counts(&self) -> Vec<usize> {
        self.train.class_counts()
    }

    /// FedWCM's class prior through §5.5's exchange: the clients' counts
    /// are encrypted, summed and decrypted under the task seed (on the HE
    /// stream, so no training draw moves), and each client scores its own.
    pub fn class_prior(&self, form: ScoreForm) -> ClassPrior {
        let counts = self.partition.counts_matrix(&self.train);
        let (global, _) =
            aggregate_distributions(&counts, RlweParams::default_params(), self.exp.fl.seed);
        ClassPrior::new(&global, counts.iter().map(Vec::as_slice), form)
    }

    /// The reference local step count `B̂` for FedWCM-X.
    pub fn standard_batches(&self) -> usize {
        fedwcm_core::FedWcm::standard_batches_for(
            self.train.len(),
            self.exp.fl.clients,
            self.exp.fl.batch_size,
            self.exp.fl.local_epochs,
        )
    }
}

/// The preset's model constructor: an MLP on flat features, ResLite on
/// images; the initialisation seed is a constant of the class count.
fn model_factory(preset: DatasetPreset) -> Box<ModelFactory> {
    Box::new(move || {
        let mut rng = Xoshiro256pp::seed_from(0xF_AC70 ^ preset.spec().classes as u64);
        match preset.spec().shape {
            FeatureShape::Flat(d) => mlp(d, &[64], preset.spec().classes, &mut rng),
            FeatureShape::Image(c, h, w) => {
                let width = if preset.spec().classes > 10 { 16 } else { 12 };
                res_lite(c, h, w, preset.spec().classes, width, &mut rng)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_smoke_task() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.1, Scale::Smoke, 1);
        let task = exp.prepare();
        assert_eq!(task.train.len(), 800);
        assert_eq!(task.partition.num_clients(), 8);
        assert_eq!(task.test.classes(), 10);
        let sim = task.simulation();
        assert_eq!(sim.cfg.clients, 8);
    }

    #[test]
    fn factory_is_deterministic() {
        let exp = ExpConfig::new(DatasetPreset::Cifar10, 0.5, 0.6, Scale::Smoke, 2);
        let task = exp.prepare();
        let m1 = (task.factory)();
        let m2 = (task.factory)();
        assert_eq!(m1.params(), m2.params());
        assert_eq!(m1.out_features(), 10);
    }

    #[test]
    fn hundred_class_preset_uses_wider_model() {
        let exp = ExpConfig::new(DatasetPreset::Cifar100, 0.1, 0.1, Scale::Smoke, 3);
        let task = exp.prepare();
        let m = (task.factory)();
        assert_eq!(m.out_features(), 100);
    }

    #[test]
    fn fedgrab_partition_flag_changes_partition() {
        let mut exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.1, Scale::Smoke, 4);
        let equal = exp.prepare();
        exp.fedgrab_partition = true;
        let skewed = exp.prepare();
        let equal_sizes: Vec<f64> = equal
            .partition
            .client_sizes()
            .iter()
            .map(|&s| s as f64)
            .collect();
        let skewed_sizes: Vec<f64> = skewed
            .partition
            .client_sizes()
            .iter()
            .map(|&s| s as f64)
            .collect();
        assert!(
            fedwcm_stats::describe::gini(&skewed_sizes)
                > fedwcm_stats::describe::gini(&equal_sizes)
        );
    }

    #[test]
    fn standard_batches_positive() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 5);
        let task = exp.prepare();
        assert!(task.standard_batches() >= 1);
    }
}
