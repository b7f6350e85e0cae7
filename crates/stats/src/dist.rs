//! Probability distributions built on the [`crate::rng`] generator.
//!
//! The FedWCM pipeline needs: Normal draws (synthetic feature generation,
//! HE noise), Gamma/Dirichlet (the paper's `p_{k,c} ~ Dir(β)` client
//! partition).

use crate::rng::Rng;

/// Normal distribution `N(mean, std²)` sampled via the Box–Muller
/// transform. Caches the second variate, so consecutive draws cost one
/// transcendental pair per two samples.
#[derive(Clone, Debug)]
pub struct Normal {
    mean: f64,
    std: f64,
    spare: Option<f64>,
}

impl Normal {
    /// Create a normal sampler. `std` must be finite and non-negative.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be ≥ 0, got {std}");
        Normal {
            mean,
            std,
            spare: None,
        }
    }

    /// Standard normal `N(0,1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return self.mean + self.std * z;
        }
        // Box–Muller: u ∈ (0,1], v ∈ [0,1).
        let u = 1.0 - rng.next_f64();
        let v = rng.next_f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        let (s, c) = theta.sin_cos();
        self.spare = Some(r * s);
        self.mean + self.std * (r * c)
    }

    /// Fill a slice with f32 samples (weight init, synthetic features).
    pub fn fill_f32<R: Rng>(&mut self, rng: &mut R, out: &mut [f32]) {
        for x in out {
            *x = self.sample(rng) as f32;
        }
    }
}

/// Gamma distribution with shape `alpha > 0` and scale 1, via the
/// Marsaglia–Tsang (2000) squeeze method; the `alpha < 1` case uses the
/// standard boosting identity `Γ(α) = Γ(α+1) · U^{1/α}`.
#[derive(Clone, Debug)]
pub struct Gamma {
    alpha: f64,
}

impl Gamma {
    /// Create a Gamma(alpha, 1) sampler. `alpha` must be positive.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be > 0, got {alpha}"
        );
        Gamma { alpha }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.alpha < 1.0 {
            // Boost: sample Gamma(alpha + 1) and scale down.
            let boosted = Gamma::new(self.alpha + 1.0).sample(rng);
            let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
            return boosted * u.powf(1.0 / self.alpha);
        }
        let d = self.alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let mut normal = Normal::standard();
        loop {
            let x = normal.sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
            // Squeeze then full acceptance test.
            if u < 1.0 - 0.0331 * (x * x) * (x * x)
                || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln())
            {
                return d * v3;
            }
        }
    }
}

/// Symmetric or general Dirichlet distribution.
///
/// This realises the paper's partition rule `p_{k,c} ~ Dir(β)`: a draw is a
/// probability vector over classes (or clients, depending on orientation).
#[derive(Clone, Debug)]
pub struct Dirichlet {
    alphas: Vec<f64>,
}

impl Dirichlet {
    /// General Dirichlet with per-component concentrations.
    pub fn new(alphas: Vec<f64>) -> Self {
        assert!(!alphas.is_empty(), "Dirichlet needs ≥ 1 component");
        assert!(
            alphas.iter().all(|&a| a > 0.0 && a.is_finite()),
            "Dirichlet concentrations must be positive"
        );
        Dirichlet { alphas }
    }

    /// Symmetric Dirichlet with `dim` components of concentration `beta` —
    /// the form used throughout the paper.
    pub fn symmetric(beta: f64, dim: usize) -> Self {
        Self::new(vec![beta; dim])
    }

    /// Number of components.
    pub fn dim(&self) -> usize {
        self.alphas.len()
    }

    /// Draw one probability vector (sums to 1).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let mut draws: Vec<f64> = self
            .alphas
            .iter()
            .map(|&a| Gamma::new(a).sample(rng).max(f64::MIN_POSITIVE))
            .collect();
        let total: f64 = draws.iter().sum();
        for d in &mut draws {
            *d /= total;
        }
        draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v)
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut d = Normal::new(2.0, 3.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((v - 9.0).abs() < 0.2, "var {v}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut d = Normal::new(5.0, 0.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let d = Gamma::new(4.5);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 4.5).abs() < 0.05, "mean {m}");
        assert!((v - 4.5).abs() < 0.15, "var {v}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let d = Gamma::new(0.3);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 0.3).abs() < 0.02, "mean {m}");
        assert!((v - 0.3).abs() < 0.05, "var {v}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn dirichlet_sums_to_one_and_mean_matches() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let d = Dirichlet::new(vec![1.0, 2.0, 3.0]);
        let mut acc = [0.0f64; 3];
        let n = 50_000;
        for _ in 0..n {
            let p = d.sample(&mut rng);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            for (a, &x) in acc.iter_mut().zip(&p) {
                *a += x;
            }
        }
        let expect = [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0];
        for (a, e) in acc.iter().zip(&expect) {
            assert!((a / n as f64 - e).abs() < 0.01);
        }
    }

    #[test]
    fn dirichlet_low_beta_is_skewed() {
        // Small β concentrates mass on few components — the paper's high
        // heterogeneity regime. Check that the max component dominates.
        let mut rng = Xoshiro256pp::seed_from(6);
        let d = Dirichlet::symmetric(0.1, 10);
        let mut max_mean = 0.0;
        let n = 5_000;
        for _ in 0..n {
            let p = d.sample(&mut rng);
            max_mean += p.iter().cloned().fold(0.0, f64::max);
        }
        max_mean /= n as f64;
        assert!(max_mean > 0.6, "Dir(0.1) max share {max_mean}");
    }

    #[test]
    fn dirichlet_high_beta_is_flat() {
        let mut rng = Xoshiro256pp::seed_from(7);
        let d = Dirichlet::symmetric(100.0, 10);
        let p = d.sample(&mut rng);
        for &x in &p {
            assert!((x - 0.1).abs() < 0.05, "component {x}");
        }
    }

    #[test]
    #[should_panic]
    fn gamma_nonpositive_shape_panics() {
        let _ = Gamma::new(0.0);
    }
}
