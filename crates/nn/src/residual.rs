//! Residual blocks: `y = body(x) + x`.
//!
//! The "ResLite" CNN backbone stacks conv/ReLU bodies inside residual
//! skips, giving the overparameterised feature extractor role that
//! ResNet-18/34 plays in the paper at a CPU-tractable size.

use crate::layer::Layer;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::Tensor;
use std::borrow::Cow;

/// A residual block around a sequence of inner layers whose composite
/// output width equals the input width.
#[derive(Clone)]
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    offsets: Vec<(usize, usize)>,
}

impl Residual {
    /// Wrap `body` in a skip connection. Offsets into the block's own
    /// parameter slice are computed once here.
    pub fn new(body: Vec<Box<dyn Layer>>) -> Self {
        assert!(!body.is_empty(), "residual body must be non-empty");
        let mut offsets = Vec::with_capacity(body.len());
        let mut off = 0usize;
        for l in &body {
            let len = l.param_len();
            offsets.push((off, len));
            off += len;
        }
        Residual { body, offsets }
    }
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn out_features(&self, in_features: usize) -> usize {
        let mut f = in_features;
        for l in &self.body {
            f = l.out_features(f);
        }
        assert_eq!(
            f, in_features,
            "residual body must preserve width ({in_features} -> {f})"
        );
        f
    }

    fn param_len(&self) -> usize {
        self.offsets.iter().map(|&(_, len)| len).sum()
    }

    fn init_params(&self, params: &mut [f32], rng: &mut Xoshiro256pp) {
        for (l, &(off, len)) in self.body.iter().zip(&self.offsets) {
            l.init_params(&mut params[off..off + len], rng);
        }
    }

    fn forward(&mut self, params: &[f32], input: &Tensor, train: bool) -> Tensor {
        let mut x = Cow::Borrowed(input);
        for (l, &(off, len)) in self.body.iter_mut().zip(&self.offsets) {
            x = Cow::Owned(l.forward(&params[off..off + len], &x, train));
        }
        let mut out = x.into_owned();
        assert_eq!(
            out.shape(),
            input.shape(),
            "residual width change at runtime"
        );
        fedwcm_tensor::ops::axpy(1.0, input.as_slice(), out.as_mut_slice());
        out
    }

    fn backward(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        let mut g = Cow::Borrowed(grad_out);
        for (l, &(off, len)) in self.body.iter_mut().zip(&self.offsets).rev() {
            g = Cow::Owned(l.backward(
                &params[off..off + len],
                &mut grad_params[off..off + len],
                &g,
            ));
        }
        let mut g = g.into_owned();
        // Skip path: add grad_out directly.
        fedwcm_tensor::ops::axpy(1.0, grad_out.as_slice(), g.as_mut_slice());
        g
    }

    fn release_cache(&mut self) {
        for l in &mut self.body {
            l.release_cache();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Relu;
    use fedwcm_stats::rng::Rng;

    fn block(dim: usize) -> Residual {
        Residual::new(vec![
            Box::new(Dense::new(dim, dim)),
            Box::new(Relu::new()),
            Box::new(Dense::new(dim, dim)),
        ])
    }

    #[test]
    fn zero_body_is_identity() {
        let mut r = block(3);
        let params = vec![0.0; r.param_len()];
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]);
        let y = r.forward(&params, &x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn param_len_sums_body() {
        let r = block(4);
        assert_eq!(r.param_len(), 2 * (4 * 4 + 4));
    }

    #[test]
    fn skip_gradient_passes_through_zero_body() {
        let mut r = block(2);
        let params = vec![0.0; r.param_len()];
        let mut grads = vec![0.0; r.param_len()];
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let _ = r.forward(&params, &x, true);
        let go = Tensor::from_vec(vec![5.0, 7.0], &[1, 2]);
        let gi = r.backward(&params, &mut grads, &go);
        // With zero weights the body contributes nothing to grad_in.
        assert_eq!(gi.as_slice(), go.as_slice());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Xoshiro256pp::seed_from(8);
        let mut r = block(3);
        let mut params = vec![0.0; r.param_len()];
        r.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let proj = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let objective = |p: &[f32], r: &mut Residual| -> f32 {
            let y = r.forward(p, &x, false);
            y.as_slice()
                .iter()
                .zip(proj.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = r.forward(&params, &x, true);
        let mut grads = vec![0.0; params.len()];
        let _ = r.backward(&params, &mut grads, &proj);
        let eps = 1e-3;
        for i in (0..params.len()).step_by(5) {
            let mut p = params.clone();
            p[i] += eps;
            let up = objective(&p, &mut r);
            p[i] -= 2.0 * eps;
            let down = objective(&p, &mut r);
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads[i]).abs() < 3e-2,
                "param {i}: fd {fd} vs {}",
                grads[i]
            );
        }
        let _ = rng.next_u64();
    }

    #[test]
    #[should_panic]
    fn width_changing_body_panics() {
        let r = Residual::new(vec![Box::new(Dense::new(3, 4))]);
        let _ = r.out_features(3);
    }
}
