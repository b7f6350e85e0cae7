//! Fully-connected (dense) layer.

use crate::layer::{he_std, init_weights_biases, Layer};
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into};
use fedwcm_tensor::Tensor;

/// `y = x·Wᵀ + b`, with `W` stored row-major as `[out, in]` (so the
/// forward pass is the contiguous-dot kernel `matmul_a_bt`).
#[derive(Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// New dense layer `in → out`.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dims must be positive"
        );
        Dense {
            in_features,
            out_features,
            cached_input: None,
        }
    }

    fn weight_len(&self) -> usize {
        self.in_features * self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.in_features, "dense input width mismatch");
        self.out_features
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.out_features
    }

    fn init_params(&self, params: &mut [f32], rng: &mut Xoshiro256pp) {
        init_weights_biases(params, self.weight_len(), he_std(self.in_features), rng);
    }

    fn forward(&mut self, params: &[f32], input: &Tensor, train: bool) -> Tensor {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.in_features,
            "dense forward width mismatch"
        );
        let (w, b) = params.split_at(self.weight_len());
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        matmul_a_bt_into(
            input.as_slice(),
            w,
            out.as_mut_slice(),
            batch,
            self.in_features,
            self.out_features,
        );
        for r in 0..batch {
            let row = out.row_mut(r);
            for (y, bias) in row.iter_mut().zip(b) {
                *y += bias;
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        self.backward_params(params, grad_params, grad_out);
        let batch = grad_out.rows();
        let (w, _) = params.split_at(self.weight_len());
        // grad_in = grad_out · W   ([batch,out]·[out,in])
        let mut grad_in = Tensor::zeros(&[batch, self.in_features]);
        fedwcm_tensor::matmul::matmul_into(
            grad_out.as_slice(),
            w,
            grad_in.as_mut_slice(),
            batch,
            self.out_features,
            self.in_features,
        );
        grad_in
    }

    fn backward_params(&mut self, _params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) {
        #[expect(
            clippy::expect_used,
            reason = "documented Layer trait contract: backward is only valid after \
                      forward(train=true) cached the activations; calling it cold \
                      is a harness bug, not data"
        )]
        let input = self
            .cached_input
            .as_ref()
            .expect("dense backward without forward(train=true)");
        let batch = input.rows();
        assert_eq!(grad_out.rows(), batch);
        assert_eq!(grad_out.cols(), self.out_features);
        let (gw, gb) = grad_params.split_at_mut(self.weight_len());

        // gW[o, i] += Σ_batch grad_out[b, o] * input[b, i]  →  gradᵀ·x
        matmul_at_b_into(
            grad_out.as_slice(),
            input.as_slice(),
            gw,
            batch,
            self.out_features,
            self.in_features,
        );
        // gb += column sums of grad_out
        for r in 0..batch {
            for (g, go) in gb.iter_mut().zip(grad_out.row(r)) {
                *g += go;
            }
        }
    }

    fn release_cache(&mut self) {
        self.cached_input = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_stats::rng::Rng;

    #[test]
    fn forward_known_values() {
        let mut d = Dense::new(2, 2);
        // W = [[1,2],[3,4]] (rows = output units), b = [10, 20]
        let params = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0];
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&params, &x, false);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn param_len_counts_weights_and_biases() {
        let d = Dense::new(5, 3);
        assert_eq!(d.param_len(), 5 * 3 + 3);
    }

    #[test]
    fn init_bias_zero_weights_scaled() {
        let d = Dense::new(100, 50);
        let mut params = vec![9.0; d.param_len()];
        let mut rng = Xoshiro256pp::seed_from(1);
        d.init_params(&mut params, &mut rng);
        let (w, b) = params.split_at(5000);
        assert!(b.iter().all(|&x| x == 0.0));
        let var = w.iter().map(|x| x * x).sum::<f32>() / w.len() as f32;
        assert!((var - 0.02).abs() < 0.005, "He var {var}"); // 2/100
    }

    #[test]
    fn backward_bias_gradient_is_batch_sum() {
        let mut d = Dense::new(2, 2);
        let params = vec![0.0; d.param_len()];
        let mut grads = vec![0.0; d.param_len()];
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = d.forward(&params, &x, true);
        let go = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = d.backward(&params, &mut grads, &go);
        // Bias grads are the column sums of grad_out.
        assert_eq!(&grads[4..], &[4.0, 6.0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let mut d = Dense::new(4, 3);
        let mut params = vec![0.0; d.param_len()];
        d.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        // Scalar objective: sum of outputs weighted by a fixed tensor.
        let wsum = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let objective = |p: &[f32], d: &mut Dense| -> f32 {
            let y = d.forward(p, &x, false);
            y.as_slice()
                .iter()
                .zip(wsum.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        // Analytic gradients.
        let _ = d.forward(&params, &x, true);
        let mut grads = vec![0.0; params.len()];
        let gx = d.backward(&params, &mut grads, &wsum);
        // Finite differences on params.
        let eps = 1e-3;
        for i in (0..params.len()).step_by(3) {
            let mut p = params.clone();
            p[i] += eps;
            let up = objective(&p, &mut d);
            p[i] -= 2.0 * eps;
            let down = objective(&p, &mut d);
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads[i]).abs() < 2e-2,
                "param {i}: fd {fd} vs {}",
                grads[i]
            );
        }
        // Finite differences on input.
        let xs = x.as_slice();
        for i in 0..xs.len() {
            let mut xp = xs.to_vec();
            xp[i] += eps;
            let up = {
                let t = Tensor::from_vec(xp.clone(), &[2, 4]);
                let y = d.forward(&params, &t, false);
                y.as_slice()
                    .iter()
                    .zip(wsum.as_slice())
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
            };
            xp[i] -= 2.0 * eps;
            let down = {
                let t = Tensor::from_vec(xp, &[2, 4]);
                let y = d.forward(&params, &t, false);
                y.as_slice()
                    .iter()
                    .zip(wsum.as_slice())
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
            };
            let fd = (up - down) / (2.0 * eps);
            assert!((fd - gx.as_slice()[i]).abs() < 2e-2, "input {i}");
        }
        let _ = rng.next_u64();
    }
}
