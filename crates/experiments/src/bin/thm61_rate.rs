//! Theorem 6.1 rate check on the shipped path: the averaged squared
//! gradient norm `(1/R)Σ_{r<R}‖∇f(x_r)‖²` of FedCM (α ∈ {0.1, 0.5}) and
//! FedWCM must decay like `R^{-1/2}` (noise-dominated) to `R^{-1}`
//! (noiseless). `algos::FedCm` and `core::FedWcm` run through the engine
//! with cross-entropy on `analysis::rate::condition`'s task in both its
//! regimes, the setup `tests/theorem61.rs` checks. One 320-round run per
//! (method, regime) gives every `R` of the grid as a prefix mean. The
//! size is fixed; only `--seed` applies.

use fedwcm_algos::FedCm;
use fedwcm_experiments::analysis::rate::{
    condition, fit_power_law, grad_norms, mean_grad_norm, GRID,
};
use fedwcm_experiments::{build_method, parse_args, Method};
use fedwcm_fl::FederatedAlgorithm;
use fedwcm_nn::loss::CrossEntropy;

fn main() {
    let cli = parse_args(std::env::args());
    println!("# Theorem 6.1 rate check (Fashion-MNIST MLP, N=8 clients, K=4 local steps)");
    for (regime, mini_batch) in [("full-batch", false), ("13-sample mini-batch", true)] {
        let task = condition(cli.seed, mini_batch).prepare();
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
