//! Property-based tests for tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and data.

use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{col2im, im2col, ConvGeom};
use fedwcm_tensor::matmul::{matmul, matmul_a_bt, matmul_at_b};
use fedwcm_tensor::{ops, Tensor};
use proptest::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::matmul_naive;

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256pp::seed_from(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matmul_matches_naive(m in 1usize..24, k in 1usize..40, n in 1usize..24, seed in any::<u64>()) {
        let a = randn(&[m, k], seed);
        let b = randn(&[k, n], seed.wrapping_add(1));
        let fast = matmul(&a, &b);
        let slow = Tensor::from_vec(matmul_naive(a.as_slice(), b.as_slice(), m, k, n), &[m, n]);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn transpose_variants_consistent(m in 1usize..16, k in 1usize..24, n in 1usize..16, seed in any::<u64>()) {
        let a = randn(&[m, k], seed);
        let b = randn(&[n, k], seed.wrapping_add(2));
        prop_assert!(matmul_a_bt(&a, &b).max_abs_diff(&matmul(&a, &b.transpose())) < 1e-3);
        let c = randn(&[m, n], seed.wrapping_add(3));
        prop_assert!(matmul_at_b(&a, &c).max_abs_diff(&matmul(&a.transpose(), &c)) < 1e-3);
    }

    #[test]
    fn matmul_distributes_over_addition(m in 1usize..10, k in 1usize..12, n in 1usize..10, seed in any::<u64>()) {
        let a = randn(&[m, k], seed);
        let b1 = randn(&[k, n], seed.wrapping_add(4));
        let b2 = randn(&[k, n], seed.wrapping_add(5));
        let mut sum = b1.clone();
        ops::axpy(1.0, b2.as_slice(), sum.as_mut_slice());
        let lhs = matmul(&a, &sum);
        let mut rhs = matmul(&a, &b1);
        let r2 = matmul(&a, &b2);
        ops::axpy(1.0, r2.as_slice(), rhs.as_mut_slice());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn dot_cauchy_schwarz(n in 1usize..200, seed in any::<u64>()) {
        let x = randn(&[n], seed);
        let y = randn(&[n], seed.wrapping_add(6));
        let d = ops::dot(x.as_slice(), y.as_slice()).abs();
        let bound = ops::norm(x.as_slice()) * ops::norm(y.as_slice());
        prop_assert!(d <= bound * (1.0 + 1e-4) + 1e-5);
    }

    #[test]
    fn clip_norm_postcondition(n in 1usize..100, max_norm in 0.1f32..10.0, seed in any::<u64>()) {
        let mut x = randn(&[n], seed).into_vec();
        ops::clip_norm(&mut x, max_norm);
        prop_assert!(ops::norm(&x) <= max_norm * 1.001);
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..4, h in 3usize..9, w in 3usize..9,
        k in 1usize..4, pad in 0usize..2, seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeom { c_in: c, h, w, kh: k, kw: k, stride: 1, pad };
        let x = randn(&[geom.input_len()], seed).into_vec();
        let y = randn(&[geom.patch_rows() * geom.patch_cols()], seed.wrapping_add(7)).into_vec();
        let mut ax = vec![0.0f32; y.len()];
        im2col(&geom, &x, &mut ax);
        let mut aty = vec![0.0f32; x.len()];
        col2im(&geom, &y, &mut aty);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn axpby_zero_cases(n in 1usize..50, seed in any::<u64>()) {
        let x = randn(&[n], seed).into_vec();
        let y0 = randn(&[n], seed.wrapping_add(8)).into_vec();
        // beta = 0 ⇒ y = alpha x
        let mut y = y0.clone();
        ops::axpby(2.0, &x, 0.0, &mut y);
        for (yi, xi) in y.iter().zip(&x) {
            prop_assert!((yi - 2.0 * xi).abs() < 1e-6);
        }
        // alpha = 0, beta = 1 ⇒ unchanged
        let mut y = y0.clone();
        ops::axpby(0.0, &x, 1.0, &mut y);
        prop_assert_eq!(y, y0);
    }
}
