//! Integration: finite-difference gradient validation of the full model
//! zoo with every loss — the safety net for the hand-written backward
//! passes.

use fedwcm_suite::nn::gradcheck::check_model_gradients;
use fedwcm_suite::nn::loss::{BalancedSoftmax, CrossEntropy, FocalLoss, Loss};
use fedwcm_suite::nn::models::{mlp, res_lite};
use fedwcm_suite::prelude::*;

#[test]
fn mlp_gradients_validate_for_all_losses() {
    let mut rng = Xoshiro256pp::seed_from(71);
    let mut model = mlp(12, &[16, 8], 5, &mut rng);
    let x = Tensor::randn(&[4, 12], 1.0, &mut rng);
    let y = [0usize, 2, 4, 1];
    let losses: Vec<Box<dyn Loss>> = vec![
        Box::new(CrossEntropy),
        Box::new(FocalLoss { gamma: 2.0 }),
        Box::new(BalancedSoftmax::from_counts(&[50, 40, 30, 20, 10])),
    ];
    for loss in &losses {
        let report = check_model_gradients(&mut model, &x, &y, loss.as_ref(), 5, 1e-3);
        assert!(report.passes(0.05), "MLP gradcheck failed: {report:?}");
    }
}

#[test]
fn res_lite_gradients_validate() {
    let mut rng = Xoshiro256pp::seed_from(72);
    let mut model = res_lite(2, 4, 4, 4, 4, &mut rng);
    let x = Tensor::randn(&[2, 32], 1.0, &mut rng);
    let y = [1usize, 3];
    let report = check_model_gradients(&mut model, &x, &y, &CrossEntropy, 11, 1e-2);
    assert!(report.checked > 20);
    assert!(report.passes(0.08), "ResLite gradcheck failed: {report:?}");
}
