//! Theorem 6.1 rate check on the shipped path: the averaged squared
//! gradient norm `(1/R)Σ_{r<R}‖∇f(x_r)‖²` of FedCM (α ∈ {0.1, 0.5}) and
//! FedWCM must decay like `R^{-1/2}` (noise-dominated) to `R^{-1}`
//! (noiseless). `algos::FedCm` and `core::FedWcm` run through the engine
//! on the Fashion-MNIST preset's MLP with cross-entropy, the setup
//! `tests/theorem61.rs` checks: eight clients of 40–52 samples, all
//! sampled every round, K = 4 local steps of full-batch (noiseless) or
//! 13-sample mini-batch (noisy) gradients. One 320-round run per (method,
//! regime) gives every `R` of the grid as a prefix mean. The size is
//! fixed; only `--seed` applies.

use fedwcm_algos::FedCm;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::analysis::rate::{fit_power_law, grad_norms, mean_grad_norm};
use fedwcm_experiments::{build_method, parse_args, ExpConfig, Method, Scale};
use fedwcm_fl::FederatedAlgorithm;
use fedwcm_nn::loss::CrossEntropy;

const SAMPLES: usize = 400;
const GRID: [usize; 5] = [20, 40, 80, 160, 320];

fn main() {
    let cli = parse_args(std::env::args());
    println!("# Theorem 6.1 rate check (Fashion-MNIST MLP, N=8 clients, K=4 local steps)");
    for (regime, batch, epochs) in [("full-batch", SAMPLES, 4), ("13-sample mini-batch", 13, 1)] {
        let mut exp = ExpConfig::new(
            DatasetPreset::FashionMnist,
            0.1,
            0.3,
            Scale::Smoke,
            cli.seed,
        );
        exp.train_total = SAMPLES;
        exp.participation = 1.0;
        exp.rounds = GRID[GRID.len() - 1];
        exp.batch_size = batch;
        exp.local_epochs = epochs;
        let task = exp.prepare();
        let sim = task.simulation();
        let methods: [(&str, Box<dyn FederatedAlgorithm>); 3] = [
            ("FedCM alpha=0.1", Box::new(FedCm::new(0.1))),
            ("FedCM alpha=0.5", Box::new(FedCm::new(0.5))),
            ("FedWCM", build_method(Method::FedWcm, &task)),
        ];
        for (label, mut algo) in methods {
            let norms = grad_norms(&sim, algo.as_mut(), &CrossEntropy);
            let means = GRID.map(|r| mean_grad_norm(&norms[..r]));
            let (b, _) = fit_power_law(&GRID.map(|r| r as f64), &means);
            println!("\n## {regime}, {label} — fitted exponent b = {b:.3}");
            println!("R,avg_grad_norm_sq");
            for (r, v) in GRID.iter().zip(means) {
                println!("{r},{v:.6e}");
            }
        }
    }
}
