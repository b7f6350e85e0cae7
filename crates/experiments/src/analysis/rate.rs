//! The Theorem 6.1 convergence-rate check.
//!
//! The theorem bounds `(1/R) Σ_r E‖∇f(x_r)‖² ≲ √(LΔσ²/NKR) + LΔ/R`: in
//! the noise-dominated regime the average gradient norm decays like
//! `R^{−1/2}`, in the noiseless one like `R^{−1}`. [`grad_norms`] records
//! `‖∇f(x_r)‖²` along a run of any shipped algorithm, and fitting
//! `log y = a + b·log x` to its prefix means at several `R` recovers `b`.
//! [`condition`] is the task `thm61_rate` and `tests/theorem61.rs` run.

use crate::cli::Scale;
use crate::setup::ExpConfig;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_fl::{FederatedAlgorithm, Simulation};
use fedwcm_nn::loss::Loss;
use fedwcm_nn::model::Model;

/// Training samples of the Theorem 6.1 task.
pub const SAMPLES: usize = 400;
/// The `R` at which the averaged gradient norm is read; one run of the
/// last gives every other as a prefix mean.
pub const GRID: [usize; 5] = [20, 40, 80, 160, 320];

/// The Theorem 6.1 task at `seed`: the Fashion-MNIST preset's MLP,
/// [`SAMPLES`] samples over eight clients of 40–52 each, every client
/// sampled in each of the largest [`GRID`] `R` rounds. Every client takes
/// K = 4 local steps: full-batch (noiseless) gradients over 4 epochs, or
/// with `mini_batch` one epoch of 13-sample batches (noisy; `⌈n/13⌉ = 4`).
pub fn condition(seed: u64, mini_batch: bool) -> ExpConfig {
    let mut exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, seed);
    exp.train_total = SAMPLES;
    exp.fl.participation = 1.0;
    exp.fl.rounds = GRID[GRID.len() - 1];
    (exp.fl.batch_size, exp.fl.local_epochs) = if mini_batch { (13, 1) } else { (SAMPLES, 4) };
    exp
}

/// Least-squares fit of `y = c · x^b` via log-log regression.
/// Returns `(exponent b, coefficient c)`. Requires positive data.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0 && v.is_finite()),
        "power-law fit needs positive finite data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(var > 0.0, "xs must not be constant");
    let b = cov / var;
    let a = my - b * mx;
    (b, a.exp())
}

/// Average the Theorem 6.1 quantity from a per-round gradient-norm series.
pub fn mean_grad_norm(norms: &[f64]) -> f64 {
    assert!(!norms.is_empty());
    norms.iter().sum::<f64>() / norms.len() as f64
}

/// The Theorem 6.1 series of one run: `‖∇f(x_r)‖²` for `r = 0 … R−1`,
/// where `f` is the mean `loss` over all of `sim.train`, `x_0` the
/// factory's parameters and `x_{r+1}` the global model after round `r`
/// (the model after the last round is not part of the sum).
pub fn grad_norms(
    sim: &Simulation<'_>,
    algo: &mut dyn FederatedAlgorithm,
    loss: &dyn Loss,
) -> Vec<f64> {
    let mut model = (sim.factory)();
    let (x, y) = sim.train.as_batch();
    let mut grads = vec![0.0f32; model.param_len()];
    let mut norm_sq = |model: &mut Model| {
        model.loss_grad(&x, &y, loss, &mut grads);
        grads
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>()
    };
    let mut norms = vec![norm_sq(&mut model)];
    sim.run_with_observer(algo, |round, global| {
        if round + 1 < sim.cfg.rounds {
            model.set_params(global);
            norms.push(norm_sq(&mut model));
        }
    });
    norms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_known_exponent() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(-0.5)).collect();
        let (b, c) = fit_power_law(&xs, &ys);
        assert!((b + 0.5).abs() < 1e-9, "b {b}");
        assert!((c - 3.0).abs() < 1e-9, "c {c}");
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_data() {
        let _ = fit_power_law(&[1.0, 2.0], &[0.0, 1.0]);
    }
}
