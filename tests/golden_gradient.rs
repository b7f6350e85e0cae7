//! Integration: the bits of one ResLite training step, pinned.
//!
//! The tensor kernels promise that tile sizes, row partitions and the
//! instruction-set level decide which elements are computed together,
//! never how one element is summed. `fedwcm-tensor`'s own tests hold
//! each kernel to the scalar reference; this pin holds the composition —
//! every GEMM and patch movement of a batch-40 step through `nn` — so a
//! drift on whatever level this host selects fails plain `cargo test`.

use fedwcm_suite::nn::loss::CrossEntropy;
use fedwcm_suite::nn::models::res_lite;
use fedwcm_suite::prelude::*;
use fedwcm_suite::transport::frame::crc32;

/// "Bits unchanged" pinned, not asserted: the CRC32 of the loss and the
/// parameter gradient, taken at commit 4aecbcc on the portable 128-bit
/// kernels, before any kernel was instantiated at a wider vector width.
/// Only a numeric epoch re-blesses it, in a commit of its own.
const GOLDEN_RESLITE_GRADIENT_CRC: u32 = 0x0D6C_73BC;

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

    let mut bytes = loss.to_bits().to_le_bytes().to_vec();
    bytes.extend(grads.iter().flat_map(|g| g.to_bits().to_le_bytes()));
    assert_eq!(
        crc32(&bytes),
        GOLDEN_RESLITE_GRADIENT_CRC,
        "ResLite loss or gradient bits changed ({} floats)",
        grads.len()
    );
}
