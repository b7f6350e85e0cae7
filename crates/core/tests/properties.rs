//! Property-based tests for the FedWCM mechanisms: Eq. (3)–(5) invariants
//! over randomly generated federated configurations.

use fedwcm_core::adaptive::{adaptive_alpha, score_ratio, ALPHA_MAX, ALPHA_MIN};
use fedwcm_core::{aggregation_weights, ClassPrior, ScoreForm};
use proptest::prelude::*;

/// The rectified prior of a client × class count matrix (rows of
/// `counts`): what each client computes against the aggregate counts.
fn prior_of(counts: &[Vec<usize>]) -> ClassPrior {
    let mut global = vec![0; counts[0].len()];
    for row in counts {
        global.iter_mut().zip(row).for_each(|(g, &n)| *g += n);
    }
    let clients = counts.iter().map(Vec::as_slice);
    ClassPrior::new(&global, clients, ScoreForm::Rectified)
}

fn counts_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (2usize..8, 2usize..10).prop_flat_map(|(clients, classes)| {
        prop::collection::vec(
            prop::collection::vec(0usize..40, classes..=classes),
            clients..=clients,
        )
        .prop_filter("need some data", |m| {
            m.iter().flatten().sum::<usize>() > 0
                && m.iter().all(|row| row.iter().sum::<usize>() > 0)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scores_nonnegative_and_bounded(counts in counts_strategy()) {
        let scores = prior_of(&counts).scores().to_vec();
        prop_assert_eq!(scores.len(), counts.len());
        for &s in &scores {
            prop_assert!((0.0..=1.0).contains(&s), "score {}", s);
        }
    }

    #[test]
    fn weights_form_simplex(counts in counts_strategy()) {
        let prior = prior_of(&counts);
        let scores = prior.scores();
        let w = aggregation_weights(scores, prior.temperature());
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
        // Weight ordering follows score ordering.
        for i in 0..w.len() {
            for j in 0..w.len() {
                if scores[i] > scores[j] {
                    prop_assert!(w[i] >= w[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn alpha_always_in_theorem_band(
        d in 0.0f64..1.0, classes in 1usize..200, q in 0.0f64..20.0,
    ) {
        let a = adaptive_alpha(d, classes, q);
        prop_assert!((ALPHA_MIN..=ALPHA_MAX).contains(&a));
    }

    #[test]
    fn alpha_monotone_in_imbalance(classes in 2usize..100, q in 0.1f64..3.0) {
        let mut prev = 0.0;
        for step in 0..10 {
            let d = step as f64 / 10.0;
            let a = adaptive_alpha(d, classes, q);
            prop_assert!(a >= prev - 1e-12, "alpha not monotone at D={d}");
            prev = a;
        }
    }

    #[test]
    fn score_ratio_scale_invariant(
        scores in prop::collection::vec(0.01f64..1.0, 1..10), scale in 0.1f64..10.0,
    ) {
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let q1 = score_ratio(&scores, mean);
        let scaled: Vec<f64> = scores.iter().map(|s| s * scale).collect();
        let q2 = score_ratio(&scaled, mean * scale);
        prop_assert!((q1 - q2).abs() < 1e-9);
    }

    #[test]
    fn balanced_global_collapses_mechanisms(clients in 2usize..8, classes in 2usize..8, per in 1usize..20) {
        // Identical per-class counts on every client ⇒ uniform global ⇒
        // zero scores, huge temperature, uniform weights, α = base.
        let counts = vec![vec![per; classes]; clients];
        let prior = prior_of(&counts);
        prop_assert!(prior.imbalance() < 1e-9);
        let scores = prior.scores();
        prop_assert!(scores.iter().all(|&s| s < 1e-9));
        let w = aggregation_weights(scores, prior.temperature());
        for &x in &w {
            prop_assert!((x - 1.0 / clients as f64).abs() < 1e-6);
        }
        let a = adaptive_alpha(0.0, classes, score_ratio(scores, 0.0));
        prop_assert_eq!(a, ALPHA_MIN);
    }
}
