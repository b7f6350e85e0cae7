//! Theorem 6.1 on the code that ships: `(1/R) Σ_r ‖∇f(x_r)‖²` of FedCM
//! and FedWCM decays in `R` between the theorem's `O(1/√R)` statistical
//! term and its `O(1/R)` optimisation term.
//!
//! `algos::FedCm` and `core::FedWcm` run through `Simulation` with
//! cross-entropy on `analysis::rate::condition`'s task, an MLP: a smooth
//! non-convex `f`, so an instance of the theorem, small enough to keep
//! the file near 4 s of tier-1.
//!
//! One 320-round run per (method, regime) gives every `R` of the grid as
//! a prefix mean, because a run's series does not depend on how many
//! rounds follow it — which the second test checks. The third checks the
//! first 20 rounds at two worker threads (CI diffs `thm61_rate`'s whole
//! grid at 1 and 4).

use fedwcm_experiments::analysis::rate::{
    condition, fit_power_law, grad_norms, mean_grad_norm, GRID,
};
use fedwcm_experiments::{build_method, Method};
use fedwcm_nn::loss::CrossEntropy;
use std::sync::OnceLock;

const METHODS: [Method; 2] = [Method::FedCm, Method::FedWcm];
/// `(name, mini_batch)` of `condition`'s two regimes.
const REGIMES: [(&str, bool); 2] = [("full-batch", false), ("mini-batch", true)];

/// `‖∇f(x_r)‖²` for `r < rounds` of one run.
fn series(method: Method, mini_batch: bool, rounds: usize, threads: usize) -> Vec<f64> {
    let mut exp = condition(42, mini_batch);
    exp.fl.rounds = rounds;
    let task = exp.prepare();
    let sizes = task.partition.client_sizes();
    assert!(sizes.iter().all(|n| (40..=52).contains(n)), "{sizes:?}");
    let mut sim = task.simulation();
    sim.cfg.threads = threads;
    grad_norms(&sim, build_method(method, &task).as_mut(), &CrossEntropy)
}

/// `(case name, method, mini_batch)` in `METHODS × REGIMES` order.
fn cases() -> Vec<(String, Method, bool)> {
    METHODS
        .iter()
        .flat_map(|&m| REGIMES.map(|(regime, mb)| (format!("{} {regime}", m.label()), m, mb)))
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
                .map(|(_, m, mb)| s.spawn(move || series(m, mb, 320, 1)))
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
    for ((case, m, mb), norms) in cases().into_iter().zip(full_series()) {
        assert_eq!(bits(&series(m, mb, 20, 1)), bits(&norms[..20]), "{case}");
    }
}

#[test]
fn the_series_does_not_depend_on_the_thread_count() {
    for ((case, m, mb), norms) in cases().into_iter().zip(full_series()) {
        assert_eq!(bits(&series(m, mb, 20, 2)), bits(&norms[..20]), "{case}");
    }
}
