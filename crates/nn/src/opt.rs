//! Parameter-update primitives shared by every FL algorithm.
//!
//! FL methods differ in *what direction* they step along, not in the
//! stepping mechanics, so this module exposes small composable pieces: a
//! plain SGD step, the client-momentum blend of Eq. (2)/(6), and heavy-ball
//! server momentum.

use fedwcm_tensor::ops;

/// `params -= lr * direction`.
#[inline]
pub fn sgd_step(params: &mut [f32], direction: &[f32], lr: f32) {
    ops::axpy(-lr, direction, params);
}

/// Client-momentum direction of FedCM/FedWCM, in place over the
/// gradient: `grad = alpha * grad + (1 - alpha) * global_momentum`.
#[inline]
pub fn momentum_blend(grad: &mut [f32], global_momentum: &[f32], alpha: f32) {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "momentum value must be in [0,1], got {alpha}"
    );
    assert_eq!(grad.len(), global_momentum.len());
    for (gi, mi) in grad.iter_mut().zip(global_momentum) {
        *gi = alpha * *gi + (1.0 - alpha) * mi;
    }
}

/// Classic heavy-ball server momentum: `buf = beta*buf + delta`, returning
/// a reference to the updated buffer (FedAvgM / SlowMo-style).
#[inline]
pub fn server_momentum(buf: &mut [f32], delta: &[f32], beta: f32) {
    assert_eq!(buf.len(), delta.len());
    for (b, d) in buf.iter_mut().zip(delta) {
        *b = beta * *b + d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut p = vec![1.0, 2.0];
        sgd_step(&mut p, &[0.5, -0.5], 0.1);
        assert!((p[0] - 0.95).abs() < 1e-6);
        assert!((p[1] - 2.05).abs() < 1e-6);
    }

    #[test]
    fn momentum_blend_endpoints() {
        let g = [1.0, 2.0];
        let m = [10.0, 20.0];
        let mut v = g;
        momentum_blend(&mut v, &m, 1.0);
        assert_eq!(v, g);
        momentum_blend(&mut v, &m, 0.0);
        assert_eq!(v, m);
        let mut v = g;
        momentum_blend(&mut v, &m, 0.25);
        assert!((v[0] - (0.25 + 7.5)).abs() < 1e-6);
    }

    /// The in-place blend is the out-of-place expression, bit for bit.
    #[test]
    fn momentum_blend_in_place_matches_out_of_place_bitwise() {
        let g: Vec<f32> = (0..257).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let m: Vec<f32> = (0..257).map(|i| (i as f32 * 0.11).cos() - 0.5).collect();
        for alpha in [0.0f32, 0.1, 1.0] {
            let expected: Vec<u32> = g
                .iter()
                .zip(&m)
                .map(|(gi, mi)| (alpha * gi + (1.0 - alpha) * mi).to_bits())
                .collect();
            let mut v = g.clone();
            momentum_blend(&mut v, &m, alpha);
            let got: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected, "alpha {alpha}");
        }
    }

    #[test]
    fn server_momentum_accumulates() {
        let mut buf = vec![0.0, 0.0];
        server_momentum(&mut buf, &[1.0, 2.0], 0.9);
        server_momentum(&mut buf, &[1.0, 2.0], 0.9);
        assert!((buf[0] - 1.9).abs() < 1e-6);
        assert!((buf[1] - 3.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn momentum_blend_rejects_bad_alpha() {
        momentum_blend(&mut [1.0], &[1.0], 1.5);
    }
}
