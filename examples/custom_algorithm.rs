//! Extending the framework: implement a custom federated algorithm
//! against the `FederatedAlgorithm` trait and benchmark it in-place.
//!
//! The example builds "FedWCM-Lite": score-weighted aggregation (Eq. 4)
//! without the adaptive momentum, on top of plain local SGD — showing how
//! the library's pieces (scores, weights, engine hooks) compose.
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use fedwcm_suite::core::{aggregation_weights, ClassPrior, ScoreForm};
use fedwcm_suite::data::dataset::ClientView;
use fedwcm_suite::fl::algorithm::{server_step, weighted_average, RoundInput, RoundLog};
use fedwcm_suite::fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_suite::nn::loss::CrossEntropy;
use fedwcm_suite::prelude::*;

/// Score-weighted FedAvg: Eq. (3)/(4) weighting, no momentum.
struct WeightedFedAvg {
    prior: ClassPrior,
}

impl FederatedAlgorithm for WeightedFedAvg {
    fn name(&self) -> String {
        "WeightedFedAvg".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        // Identity direction transform = plain local SGD.
        run_local_sgd(env, global, &spec, |_, _, _| {})
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let sampled: Vec<f64> = input
            .updates
            .iter()
            .map(|u| self.prior.scores()[u.client])
            .collect();
        let w = aggregation_weights(&sampled, self.prior.temperature());
        let mut dir = vec![0.0f32; global.len()];
        weighted_average(&input.updates, &w, &mut dir);
        server_step(global, &dir, input.cfg, input.mean_batches());
        RoundLog {
            alpha: None,
            weights: Some(w),
        }
    }
}

fn main() {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 150, 0.05);
    let train = spec.generate_train(&counts, 11);
    let test = spec.generate_test(11);
    let mut cfg = FlConfig::default_sim();
    cfg.clients = 10;
    cfg.participation = 0.4;
    cfg.rounds = 30;
    cfg.eval_every = 6;
    let views = paper_partition(&train, cfg.clients, 0.3, cfg.seed).views(&train);
    // The global counts here are the dataset's; in the paper's protocol
    // they come out of the encrypted exchange (`private_distribution`).
    let clients = views.iter().map(ClientView::class_counts);
    let prior = ClassPrior::new(&train.class_counts(), clients, ScoreForm::Rectified);
    let sim = Simulation::new(
        cfg,
        &train,
        &test,
        views,
        Box::new(|| {
            let mut rng = Xoshiro256pp::seed_from(5);
            fedwcm_suite::nn::models::mlp(64, &[64], 10, &mut rng)
        }),
    );

    for algo in [
        Box::new(FedAvg::new()) as Box<dyn FederatedAlgorithm>,
        Box::new(WeightedFedAvg {
            prior: prior.clone(),
        }),
        Box::new(FedWcm::new().with_prior(prior)),
    ] {
        let mut algo = algo;
        let h = sim.run(algo.as_mut());
        println!("{:<16} final accuracy {:.4}", h.name, h.final_accuracy(3));
    }
    println!("\nWeightedFedAvg isolates Eq. (4)'s contribution; FedWCM adds\nthe adaptive momentum on top.");
}
