//! Theorem 6.1 on the code that ships: `(1/R) Σ_r ‖∇f(x_r)‖²` of FedCM
//! and FedWCM decays in `R` between the theorem's `O(1/√R)` statistical
//! term and its `O(1/R)` optimisation term.
//!
//! `algos::FedCm` and `core::FedWcm` run through `Simulation` on the
//! Fashion-MNIST preset's MLP with cross-entropy: a smooth non-convex
//! `f`, so an instance of the theorem. The smoke task is cut to 400
//! samples to keep the file near 4 s of tier-1. All eight clients take
//! part in every round and take K = 4 local steps, in two regimes:
//! full-batch steps (noiseless) and mini-batches (noisy).
//!
//! One 320-round run per (method, regime) gives every `R` of the grid as
//! a prefix mean, because a run's series does not depend on how many
//! rounds follow it — which the second test checks. The third checks the
//! first 20 rounds at two worker threads (CI diffs `thm61_rate`'s whole
//! grid at 1 and 4).

use fedwcm_experiments::analysis::rate::{fit_power_law, grad_norms, mean_grad_norm};
use fedwcm_experiments::{build_method, ExpConfig, Method, Scale};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_suite::data::synth::DatasetPreset;
use std::sync::OnceLock;

const SAMPLES: usize = 400;
const GRID: [usize; 5] = [20, 40, 80, 160, 320];
const METHODS: [Method; 2] = [Method::FedCm, Method::FedWcm];
/// `(name, batch size, local epochs)`. The clients hold 40–52 samples
/// each (asserted below), so a `SAMPLES`-sample batch is a client's whole
/// view and `⌈n/13⌉ = 4`: four steps in either regime.
const REGIMES: [(&str, usize, usize); 2] = [("full-batch", SAMPLES, 4), ("mini-batch", 13, 1)];

/// `‖∇f(x_r)‖²` for `r < rounds` of one run.
fn series(method: Method, batch: usize, epochs: usize, rounds: usize, threads: usize) -> Vec<f64> {
    let mut exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 42);
    exp.train_total = SAMPLES;
    exp.participation = 1.0;
    exp.rounds = rounds;
    exp.batch_size = batch;
    exp.local_epochs = epochs;
    let task = exp.prepare();
    let sizes = task.partition.client_sizes();
    assert!(sizes.iter().all(|n| (40..=52).contains(n)), "{sizes:?}");
    let mut sim = task.simulation();
    sim.cfg.threads = threads;
    grad_norms(&sim, build_method(method, &task).as_mut(), &CrossEntropy)
}

/// `(case name, method, batch, epochs)` in `METHODS × REGIMES` order.
fn cases() -> Vec<(String, Method, usize, usize)> {
    METHODS
        .iter()
        .flat_map(|&m| REGIMES.map(|(regime, b, e)| (format!("{} {regime}", m.label()), m, b, e)))
        .collect()
}

/// The one-thread 320-round series of every case, computed once for the
/// whole file, the cases side by side.
fn full_series() -> &'static [Vec<f64>] {
    static SERIES: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    SERIES.get_or_init(|| {
        std::thread::scope(|s| {
            let runs: Vec<_> = cases()
                .into_iter()
                .map(|(_, m, b, e)| s.spawn(move || series(m, b, e, 320, 1)))
                .collect();
            runs.into_iter().map(|r| r.join().expect("run")).collect()
        })
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn fedcm_and_fedwcm_decay_at_the_theorem_rate_in_both_regimes() {
    let xs = GRID.map(|r| r as f64);
    for ((case, ..), norms) in cases().iter().zip(full_series()) {
        assert_eq!(norms.len(), 320, "{case}");
        let ys = GRID.map(|r| mean_grad_norm(&norms[..r]));
        let (b, _) = fit_power_law(&xs, &ys);
        assert!(
            (-1.6..=-0.35).contains(&b),
            "{case}: rate exponent {b} outside the theorem's band"
        );
    }
}

#[test]
fn a_shorter_run_is_a_prefix_of_a_longer_one() {
    for ((case, m, b, e), norms) in cases().into_iter().zip(full_series()) {
        assert_eq!(bits(&series(m, b, e, 20, 1)), bits(&norms[..20]), "{case}");
    }
}

#[test]
fn the_series_does_not_depend_on_the_thread_count() {
    for ((case, m, b, e), norms) in cases().into_iter().zip(full_series()) {
        assert_eq!(bits(&series(m, b, e, 20, 2)), bits(&norms[..20]), "{case}");
    }
}
