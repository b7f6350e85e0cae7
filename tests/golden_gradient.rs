//! Integration: the bits of one ResLite and one MLP training step, and of
//! one MLP evaluation batch, pinned.
//!
//! The tensor kernels promise that tile sizes, row partitions and the
//! instruction-set level decide which elements are computed together,
//! never how one element is summed. `fedwcm-tensor`'s own tests hold
//! each kernel to the scalar reference; these pins hold the composition —
//! every GEMM and patch movement of a step through `nn` — so a drift on
//! whatever level this host selects fails plain `cargo test`.

use fedwcm_suite::nn::loss::CrossEntropy;
use fedwcm_suite::nn::models::{mlp, res_lite};
use fedwcm_suite::prelude::*;
use fedwcm_suite::transport::frame::crc32;

#[path = "support/golden.rs"]
mod golden;
use golden::Golden;

/// "Bits unchanged" pinned, not asserted: the CRC32 of the loss and the
/// parameter gradient (`golden_gradient/reslite/step`), taken at commit
/// 4aecbcc on the portable 128-bit kernels, before any kernel was
/// instantiated at a wider vector width. Only a numeric epoch re-blesses
/// it, in a commit of its own.
#[test]
fn reslite_step_gradient_matches_the_golden_crc() {
    // The paper-scale model and step batch: 40 samples fill four stem
    // and 4×4 panels of nine samples plus a ragged one of four, and one
    // 2×2 panel of 37 plus a ragged one of three.
    let mut rng = Xoshiro256pp::seed_from(2025);
    let mut model = res_lite(3, 8, 8, 10, 12, &mut rng);
    let x = Tensor::randn(&[40, 3 * 8 * 8], 1.0, &mut rng);
    let y: Vec<usize> = (0..40).map(|_| rng.next_u64() as usize % 10).collect();
    let mut grads = vec![0.0f32; model.param_len()];
    let loss = model.loss_grad(&x, &y, &CrossEntropy, &mut grads);
    assert!(loss.is_finite() && grads.iter().any(|&g| g != 0.0));

    let mut bytes = f32_bytes([&loss]);
    bytes.extend(f32_bytes(&grads));
    let mut golden = Golden::new("golden_gradient/reslite");
    golden.check("step", format!("{:#010X}", crc32(&bytes)));
    golden.finish();
}

fn f32_bytes<'a>(xs: impl IntoIterator<Item = &'a f32>) -> Vec<u8> {
    xs.into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect()
}

/// The MLP's pins (`golden_gradient/mlp/*`), taken at commit 0623035 on
/// the host's widest level with every level held to the scalar
/// reference: one batch-10 step of `mlp(64, [256], 10)` (the
/// cross-device client step) and the logits of one 256-row evaluation
/// batch through the same model.
#[test]
fn mlp_step_gradient_and_eval_logits_match_the_golden_crcs() {
    let mut rng = Xoshiro256pp::seed_from(2026);
    let mut model = mlp(64, &[256], 10, &mut rng);
    let x = Tensor::randn(&[10, 64], 1.0, &mut rng);
    let y: Vec<usize> = (0..10).map(|_| rng.next_u64() as usize % 10).collect();
    let mut grads = vec![0.0f32; model.param_len()];
    let loss = model.loss_grad(&x, &y, &CrossEntropy, &mut grads);
    assert!(loss.is_finite() && grads.iter().any(|&g| g != 0.0));
    let mut bytes = f32_bytes([&loss]);
    bytes.extend(f32_bytes(&grads));
    let mut golden = Golden::new("golden_gradient/mlp");
    golden.check("step", format!("{:#010X}", crc32(&bytes)));

    let batch = Tensor::randn(&[256, 64], 1.0, &mut rng);
    let logits = model.forward(&batch, false);
    assert_eq!(logits.shape(), &[256, 10]);
    let crc = crc32(&f32_bytes(logits.as_slice()));
    golden.check("logits", format!("{crc:#010X}"));
    golden.finish();
}
