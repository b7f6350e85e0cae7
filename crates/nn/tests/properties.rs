//! Property-based tests for the NN library: loss-function invariants and
//! model algebra that must hold for arbitrary inputs, plus the model's
//! non-finite input contract.

use fedwcm_nn::loss::{softmax_rows, BalancedSoftmax, CrossEntropy, FocalLoss, Loss};
use fedwcm_nn::models::mlp;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::Tensor;
use proptest::prelude::*;

fn logits_and_labels(batch: usize, classes: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = Xoshiro256pp::seed_from(seed);
    let logits = Tensor::randn(&[batch, classes], 2.0, &mut rng);
    let labels: Vec<usize> = (0..batch)
        .map(|i| (i * 7 + seed as usize) % classes)
        .collect();
    (logits, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_rows_are_distributions(batch in 1usize..8, classes in 2usize..12, seed in any::<u64>()) {
        let (logits, _) = logits_and_labels(batch, classes, seed);
        let p = softmax_rows(&logits);
        for r in 0..batch {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn losses_nonnegative_and_grads_sum_to_zero(
        batch in 1usize..6, classes in 2usize..10, seed in any::<u64>(),
    ) {
        let (logits, labels) = logits_and_labels(batch, classes, seed);
        let counts: Vec<usize> = (0..classes).map(|c| 10 * (c + 1)).collect();
        let losses: Vec<Box<dyn Loss>> = vec![
            Box::new(CrossEntropy),
            Box::new(FocalLoss { gamma: 2.0 }),
            Box::new(BalancedSoftmax::from_counts(&counts)),
        ];
        for loss in &losses {
            let (l, grad) = loss.loss_and_grad(&logits, &labels);
            prop_assert!(l >= -1e-6 && l.is_finite());
            // Softmax-family logits-gradients sum to zero per row.
            for r in 0..batch {
                let s: f32 = grad.row(r).iter().sum();
                prop_assert!(s.abs() < 1e-4, "row grad sum {s}");
            }
        }
    }

    #[test]
    fn ce_shift_invariance(batch in 1usize..5, classes in 2usize..8, shift in -10.0f32..10.0, seed in any::<u64>()) {
        let (logits, labels) = logits_and_labels(batch, classes, seed);
        let mut shifted = logits.clone();
        for x in shifted.as_mut_slice() {
            *x += shift;
        }
        let (l1, g1) = CrossEntropy.loss_and_grad(&logits, &labels);
        let (l2, g2) = CrossEntropy.loss_and_grad(&shifted, &labels);
        prop_assert!((l1 - l2).abs() < 1e-4);
        prop_assert!(g1.max_abs_diff(&g2) < 1e-5);
    }

    #[test]
    fn ce_decreases_along_negative_gradient(batch in 1usize..5, classes in 2usize..8, seed in any::<u64>()) {
        let (logits, labels) = logits_and_labels(batch, classes, seed);
        let (l0, grad) = CrossEntropy.loss_and_grad(&logits, &labels);
        let mut stepped = logits.clone();
        for (z, g) in stepped.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *z -= 0.1 * g;
        }
        let (l1, _) = CrossEntropy.loss_and_grad(&stepped, &labels);
        prop_assert!(l1 <= l0 + 1e-6, "loss {l0} -> {l1}");
    }

    #[test]
    fn model_forward_is_batch_consistent(seed in any::<u64>(), batch in 2usize..6) {
        // Evaluating a batch must equal evaluating each row separately.
        let mut rng = Xoshiro256pp::seed_from(seed);
        let mut model = mlp(6, &[8], 4, &mut rng);
        let x = Tensor::randn(&[batch, 6], 1.0, &mut rng);
        let full = model.forward(&x, false);
        for r in 0..batch {
            let row = Tensor::from_vec(x.row(r).to_vec(), &[1, 6]);
            let single = model.forward(&row, false);
            for (a, b) in full.row(r).iter().zip(single.row(0)) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn set_params_then_get_is_identity(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let mut model = mlp(5, &[7], 3, &mut rng);
        let new: Vec<f32> = (0..model.param_len()).map(|i| (i as f32 * 0.37).sin()).collect();
        model.set_params(&new);
        prop_assert_eq!(model.params(), new.as_slice());
    }
}

#[test]
fn nan_input_flows_through_unchecked() {
    // Garbage in, garbage out, with no panic: the model checks only its
    // input width. The FL engine's containment filter is the safety net.
    let mut rng = Xoshiro256pp::seed_from(7);
    let mut m = mlp(4, &[8], 3, &mut rng);
    let x = Tensor::from_vec(vec![0.1, f32::NAN, 0.3, 0.4], &[1, 4]);
    let logits = m.forward(&x, false);
    assert!(logits.as_slice().iter().any(|v| v.is_nan()));
}
