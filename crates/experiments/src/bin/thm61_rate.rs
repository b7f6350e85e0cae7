//! Theorem 6.1 empirical rate check: on the convex quadratic testbed,
//! the averaged squared gradient norm `(1/R)Σ‖∇f(x_r)‖²` must decay like
//! `R^{-1/2}` (noise-dominated) to `R^{-1}` (noiseless). What runs is
//! the fixed-α FedCM rule, α ∈ {0.1, 0.5}, through
//! `fl::quadratic::run_quadratic_fedcm` — a standalone f64 loop, not
//! `algos::FedCm` under the engine, and not FedWCM's adaptive-α
//! schedule (ROADMAP item 4(a) is the rerun on the shipped path).

use fedwcm_analysis::rate::{fit_power_law, mean_grad_norm};
use fedwcm_experiments::parse_args;
use fedwcm_fl::quadratic::{run_quadratic_fedcm, QuadRunConfig, QuadraticProblem};

fn sweep(
    problem: &QuadraticProblem,
    alpha: f64,
    rounds_grid: &[usize],
    seed: u64,
) -> (f64, Vec<(usize, f64)>) {
    let mut points = Vec::new();
    for &rounds in rounds_grid {
        let cfg = QuadRunConfig {
            local_steps: 4,
            rounds,
            local_lr: 0.03,
            alpha,
            seed,
        };
        let norms = run_quadratic_fedcm(problem, &cfg);
        points.push((rounds, mean_grad_norm(&norms)));
    }
    let xs: Vec<f64> = points.iter().map(|&(r, _)| r as f64).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
    let (b, _) = fit_power_law(&xs, &ys);
    (b, points)
}

fn main() {
    let cli = parse_args(std::env::args());
    let grid = [20usize, 40, 80, 160, 320, 640];
    println!("# Theorem 6.1 rate check on the quadratic testbed (N=8 clients, K=4 local steps)");
    for (label, sigma) in [("noiseless", 0.0), ("noisy (sigma=0.5)", 0.5)] {
        let problem = QuadraticProblem::random(8, 10, 1.5, sigma, cli.seed);
        for alpha in [0.1f64, 0.5] {
            let (b, points) = sweep(&problem, alpha, &grid, cli.seed);
            println!("\n## {label}, alpha={alpha} — fitted exponent b = {b:.3}");
            println!("R,avg_grad_norm_sq");
            for (r, v) in points {
                println!("{r},{v:.6e}");
            }
        }
    }
    println!(
        "\nExpected shape (Theorem 6.1): exponents in roughly [-1.6, -0.35],\n\
         i.e. between the O(1/R) optimisation term and the O(1/sqrt(R))\n\
         statistical term."
    );
}
