//! Synthetic convex testbed for the convergence-rate check (Theorem 6.1).
//!
//! Each client `i` owns a diagonal quadratic
//! `f_i(x) = ½ Σ_j a_{ij}(x_j − b_{ij})²` with stochastic gradients
//! `∇f_i(x) + σξ`. The global objective is the client average — smooth
//! (L = max a) and heterogeneous (distinct minimisers b_i), matching
//! Assumptions 1–2 exactly. Running the FedCM/FedWCM update rule here lets
//! the analysis crate verify the `O(1/√(NKR)) + O(1/R)` rate empirically.

use fedwcm_stats::dist::Normal;
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// A federated diagonal-quadratic problem instance.
pub struct QuadraticProblem {
    /// Per-client curvature vectors `a_i` (all positive).
    pub curvatures: Vec<Vec<f64>>,
    /// Per-client minimisers `b_i`.
    pub minimisers: Vec<Vec<f64>>,
    /// Gradient-noise std σ.
    pub sigma: f64,
}

impl QuadraticProblem {
    /// Random heterogeneous instance: curvatures in `[0.5, 1.5]`,
    /// minimisers `N(0, heterogeneity²)` per client.
    pub fn random(clients: usize, dim: usize, heterogeneity: f64, sigma: f64, seed: u64) -> Self {
        assert!(clients >= 1 && dim >= 1);
        let mut rng = Xoshiro256pp::stream(seed, &[stream::QUADRATIC_PROBLEM]);
        let mut normal = Normal::new(0.0, heterogeneity);
        let curvatures = (0..clients)
            .map(|_| (0..dim).map(|_| 0.5 + rng.next_f64()).collect())
            .collect();
        let minimisers = (0..clients)
            .map(|_| (0..dim).map(|_| normal.sample(&mut rng)).collect())
            .collect();
        QuadraticProblem {
            curvatures,
            minimisers,
            sigma,
        }
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.curvatures.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.curvatures[0].len()
    }

    /// Exact gradient of client `i` at `x`.
    pub fn grad_i(&self, i: usize, x: &[f64], out: &mut [f64]) {
        for ((o, (&a, &b)), &xj) in out
            .iter_mut()
            .zip(self.curvatures[i].iter().zip(&self.minimisers[i]))
            .zip(x)
        {
            *o = a * (xj - b);
        }
    }

    /// Exact global gradient (client average) at `x`.
    pub fn global_grad(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        let n = self.clients() as f64;
        let mut tmp = vec![0.0; x.len()];
        for i in 0..self.clients() {
            self.grad_i(i, x, &mut tmp);
            for (o, t) in out.iter_mut().zip(&tmp) {
                *o += t / n;
            }
        }
    }

    /// Squared norm of the global gradient at `x`.
    pub fn global_grad_norm_sq(&self, x: &[f64]) -> f64 {
        let mut g = vec![0.0; x.len()];
        self.global_grad(x, &mut g);
        g.iter().map(|v| v * v).sum()
    }

    /// The unique global minimiser (weighted average of client targets).
    pub fn global_minimiser(&self) -> Vec<f64> {
        let dim = self.dim();
        let mut num = vec![0.0; dim];
        let mut den = vec![0.0; dim];
        for i in 0..self.clients() {
            for j in 0..dim {
                num[j] += self.curvatures[i][j] * self.minimisers[i][j];
                den[j] += self.curvatures[i][j];
            }
        }
        num.iter().zip(&den).map(|(n, d)| n / d).collect()
    }
}

/// Configuration of a momentum-FL run on the quadratic testbed.
#[derive(Clone, Copy, Debug)]
pub struct QuadRunConfig {
    /// Local steps per round `K`.
    pub local_steps: usize,
    /// Rounds `R`.
    pub rounds: usize,
    /// Local learning rate `η`.
    pub local_lr: f64,
    /// Momentum value `α` (1.0 disables momentum → local SGD/FedAvg).
    pub alpha: f64,
    /// Seed.
    pub seed: u64,
}

/// Run the FedCM update rule (full participation) on a quadratic problem.
///
/// Returns `‖∇f(x_r)‖²` per round — the quantity bounded by Theorem 6.1.
pub fn run_quadratic_fedcm(problem: &QuadraticProblem, cfg: &QuadRunConfig) -> Vec<f64> {
    assert!(cfg.local_steps >= 1 && cfg.rounds >= 1);
    assert!((0.0..=1.0).contains(&cfg.alpha));
    let dim = problem.dim();
    let clients = problem.clients();
    let mut x = vec![0.0f64; dim];
    let mut momentum = vec![0.0f64; dim];
    let mut noise = Normal::new(0.0, problem.sigma);
    let mut rng = Xoshiro256pp::stream(cfg.seed, &[stream::QUADRATIC_RUN]);
    let mut grad_norms = Vec::with_capacity(cfg.rounds);

    let mut grad = vec![0.0f64; dim];
    let mut v = vec![0.0f64; dim];
    for _round in 0..cfg.rounds {
        grad_norms.push(problem.global_grad_norm_sq(&x));
        let mut delta_sum = vec![0.0f64; dim];
        for i in 0..clients {
            let mut xi = x.clone();
            for _ in 0..cfg.local_steps {
                problem.grad_i(i, &xi, &mut grad);
                for g in grad.iter_mut() {
                    *g += noise.sample(&mut rng);
                }
                for j in 0..dim {
                    v[j] = cfg.alpha * grad[j] + (1.0 - cfg.alpha) * momentum[j];
                    xi[j] -= cfg.local_lr * v[j];
                }
            }
            // Gradient-scale delta (same convention as the NN engine).
            let scale = 1.0 / (cfg.local_lr * cfg.local_steps as f64);
            for j in 0..dim {
                delta_sum[j] += (x[j] - xi[j]) * scale;
            }
        }
        for j in 0..dim {
            momentum[j] = delta_sum[j] / clients as f64;
            x[j] -= cfg.local_lr * cfg.local_steps as f64 * momentum[j];
        }
    }
    grad_norms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_minimiser_zeroes_gradient() {
        let p = QuadraticProblem::random(5, 8, 2.0, 0.0, 1);
        let xstar = p.global_minimiser();
        assert!(p.global_grad_norm_sq(&xstar) < 1e-20);
    }

    #[test]
    fn noiseless_fedcm_converges() {
        let p = QuadraticProblem::random(4, 6, 1.0, 0.0, 2);
        let cfg = QuadRunConfig {
            local_steps: 5,
            rounds: 200,
            local_lr: 0.05,
            alpha: 0.1,
            seed: 3,
        };
        let norms = run_quadratic_fedcm(&p, &cfg);
        assert!(norms[0] > 1e-3);
        assert!(
            norms.last().unwrap() < &(norms[0] * 1e-4),
            "‖∇f‖² {} -> {}",
            norms[0],
            norms.last().unwrap()
        );
    }

    #[test]
    fn noisy_run_reaches_noise_floor() {
        let p = QuadraticProblem::random(8, 6, 1.0, 0.1, 4);
        let cfg = QuadRunConfig {
            local_steps: 5,
            rounds: 100,
            local_lr: 0.05,
            alpha: 0.2,
            seed: 5,
        };
        let norms = run_quadratic_fedcm(&p, &cfg);
        let early: f64 = norms[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = norms[norms.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(late < early * 0.1, "early {early} late {late}");
    }

    #[test]
    fn more_rounds_smaller_average_grad() {
        // The Theorem 6.1 quantity (average ‖∇f‖² over rounds) must shrink
        // as R grows.
        let p = QuadraticProblem::random(6, 6, 1.5, 0.2, 6);
        let avg = |rounds: usize| {
            let cfg = QuadRunConfig {
                local_steps: 4,
                rounds,
                local_lr: 0.05,
                alpha: 0.2,
                seed: 7,
            };
            let norms = run_quadratic_fedcm(&p, &cfg);
            norms.iter().sum::<f64>() / norms.len() as f64
        };
        let short = avg(10);
        let long = avg(200);
        assert!(long < short * 0.5, "short {short} long {long}");
    }

    #[test]
    fn deterministic_runs() {
        let p = QuadraticProblem::random(3, 4, 1.0, 0.3, 8);
        let cfg = QuadRunConfig {
            local_steps: 3,
            rounds: 10,
            local_lr: 0.05,
            alpha: 0.5,
            seed: 9,
        };
        assert_eq!(run_quadratic_fedcm(&p, &cfg), run_quadratic_fedcm(&p, &cfg));
    }
}
