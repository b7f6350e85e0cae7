//! Property-based tests for the stats crate: distribution invariants that
//! must hold for arbitrary parameters, not just hand-picked ones.

use fedwcm_stats::describe::{gini, softmax_with_temperature, total_variation};
use fedwcm_stats::dist::{Dirichlet, Gamma};
use fedwcm_stats::rng::{Rng, Xoshiro256pp};
use proptest::prelude::*;

proptest! {
    #[test]
    fn dirichlet_always_simplex(beta in 0.05f64..10.0, dim in 2usize..30, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let d = Dirichlet::symmetric(beta, dim);
        let p = d.sample(&mut rng);
        prop_assert_eq!(p.len(), dim);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_always_positive(alpha in 0.05f64..20.0, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let g = Gamma::new(alpha);
        for _ in 0..50 {
            let x = g.sample(&mut rng);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn softmax_sums_to_one(xs in prop::collection::vec(-50.0f64..50.0, 1..40), t in 0.01f64..100.0) {
        let w = softmax_with_temperature(&xs, t);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-8);
        prop_assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn softmax_preserves_order(xs in prop::collection::vec(-10.0f64..10.0, 2..20), t in 0.1f64..10.0) {
        let w = softmax_with_temperature(&xs, t);
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(w[i] >= w[j]);
                }
            }
        }
    }

    #[test]
    fn gini_bounded(xs in prop::collection::vec(0.0f64..100.0, 1..50)) {
        let g = gini(&xs);
        prop_assert!((-1e-9..1.0).contains(&g), "gini {}", g);
    }

    #[test]
    fn tv_is_metric_like(
        a in prop::collection::vec(0.01f64..10.0, 2..20),
        b in prop::collection::vec(0.01f64..10.0, 2..20),
    ) {
        let n = a.len().min(b.len());
        let simplex = |xs: &[f64]| {
            let total: f64 = xs.iter().sum();
            xs.iter().map(|x| x / total).collect::<Vec<f64>>()
        };
        let (p, q) = (simplex(&a[..n]), simplex(&b[..n]));
        let d = total_variation(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        prop_assert!((total_variation(&p, &q) - total_variation(&q, &p)).abs() < 1e-12);
        prop_assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    fn sample_indices_always_valid(n in 1usize..200, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let k = (seed as usize % n) + 1;
        let k = k.min(n);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&i| i < n));
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), labels in prop::collection::vec(any::<u64>(), 0..5)) {
        let mut a = Xoshiro256pp::stream(seed, &labels);
        let mut b = Xoshiro256pp::stream(seed, &labels);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
