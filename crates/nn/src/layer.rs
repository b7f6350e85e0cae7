//! The [`Layer`] trait and parameter-free activation layers.

use fedwcm_stats::rng::Rng;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::Tensor;

/// A differentiable layer operating on rank-2 batches `[batch, features]`.
///
/// Parameters live in the model's flat arena; each layer receives its own
/// slice (`params`) plus a matching gradient slice on the backward pass.
/// Layers may cache activations from the most recent `forward` call — the
/// model guarantees `backward` follows the corresponding `forward`.
///
/// [`Model::backward`](crate::Model::backward) returns nothing, so its
/// first layer's input gradient has no consumer: the model calls
/// [`Layer::backward_params`] on layer 0 and [`Layer::backward`] on every
/// other layer (a container calls `backward` on its inner layers), so that
/// gradient is never computed.
///
/// Layers are `Send + Sync` and cloneable (via [`Layer::clone_box`]) so a
/// model can be duplicated per worker for read-only parallel evaluation.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used by the concentration analysis).
    fn name(&self) -> &'static str;

    /// Output feature count given the input feature count.
    fn out_features(&self, in_features: usize) -> usize;

    /// Number of parameters this layer owns in the arena.
    fn param_len(&self) -> usize {
        0
    }

    /// Initialise this layer's parameter slice.
    fn init_params(&self, _params: &mut [f32], _rng: &mut Xoshiro256pp) {}

    /// Forward pass. `train` toggles caching for backward.
    fn forward(&mut self, params: &[f32], input: &Tensor, train: bool) -> Tensor;

    /// Backward pass: accumulate parameter gradients into `grad_params`
    /// (same length as `params`) and return the input gradient.
    fn backward(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) -> Tensor;

    /// The parameter-gradient half of [`Layer::backward`] alone: the same
    /// accumulation into `grad_params`, bit for bit, no input gradient.
    /// `Dense` and `Conv2d` override it to skip that gradient's work.
    fn backward_params(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) {
        let _ = self.backward(params, grad_params, grad_out);
    }

    /// Free what `forward(train = true)` cached (activations, masks,
    /// patch panels, work space), returning the layer to its
    /// never-trained state: a `backward` before the next training
    /// forward fails as it does on a fresh layer.
    fn release_cache(&mut self) {}

    /// Clone this layer behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rectified linear unit. Caches the activation mask.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor, train: bool) -> Tensor {
        let x = input.as_slice();
        // One pass writes the output and, in training, the mask.
        let out = if train {
            self.mask.resize(x.len(), false);
            x.iter()
                .zip(&mut self.mask)
                .map(|(&v, keep)| {
                    *keep = v > 0.0;
                    if *keep {
                        v
                    } else {
                        0.0
                    }
                })
                .collect()
        } else {
            x.iter().map(|&v| if v < 0.0 { 0.0 } else { v }).collect()
        };
        Tensor::from_vec(out, input.shape())
    }

    fn backward(&mut self, _params: &[f32], _grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "ReLU backward without matching forward"
        );
        let g = grad_out.as_slice().iter().zip(&self.mask);
        let g = g.map(|(&g, &keep)| if keep { g } else { 0.0 }).collect();
        Tensor::from_vec(g, grad_out.shape())
    }

    fn release_cache(&mut self) {
        self.mask = Vec::new();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic-tangent activation.
#[derive(Clone, Default)]
pub struct Tanh {
    cached_output: Vec<f32>,
}

impl Tanh {
    /// New tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        for x in out.as_mut_slice() {
            *x = x.tanh();
        }
        if train {
            self.cached_output.clear();
            self.cached_output.extend_from_slice(out.as_slice());
        }
        out
    }

    fn backward(&mut self, _params: &[f32], _grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.cached_output.len(),
            "tanh backward without matching forward"
        );
        let mut g = grad_out.clone();
        for (x, &y) in g.as_mut_slice().iter_mut().zip(&self.cached_output) {
            *x *= 1.0 - y * y;
        }
        g
    }

    fn release_cache(&mut self) {
        self.cached_output = Vec::new();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// He-normal weight initialisation std for a given fan-in.
pub fn he_std(fan_in: usize) -> f32 {
    (2.0 / fan_in.max(1) as f32).sqrt()
}

/// Fill a weight slice with `N(0, std²)` and a trailing bias with zeros.
pub fn init_weights_biases(
    params: &mut [f32],
    weight_len: usize,
    std: f32,
    rng: &mut Xoshiro256pp,
) {
    let (w, b) = params.split_at_mut(weight_len);
    let mut normal = fedwcm_stats::dist::Normal::new(0.0, std as f64);
    for x in w {
        *x = normal.sample(rng) as f32;
    }
    b.fill(0.0);
    let _ = rng.next_u64(); // decouple successive layer streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::reference::assert_bits_eq;
    use crate::conv::{AvgPool2d, Conv2d};
    use crate::dense::Dense;
    use crate::residual::Residual;

    /// `backward_params` accumulates exactly what `backward` does, onto
    /// a gradient buffer that already holds something.
    fn assert_backward_params_matches_backward(mut layer: impl Layer, in_features: usize) {
        let mut rng = Xoshiro256pp::seed_from(31);
        let mut params = vec![0.0; layer.param_len()];
        layer.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[5, in_features], 1.0, &mut rng);
        let go = Tensor::randn(&[5, layer.out_features(in_features)], 1.0, &mut rng);
        let seeded = Tensor::randn(&[params.len()], 1.0, &mut rng).into_vec();

        let (mut full, mut half) = (seeded.clone(), seeded.clone());
        let _ = layer.forward(&params, &x, true);
        let _ = layer.backward(&params, &mut full, &go);
        let _ = layer.forward(&params, &x, true);
        layer.backward_params(&params, &mut half, &go);
        assert_bits_eq(&half, &full, layer.name());
        assert!(params.is_empty() || half != seeded, "{}", layer.name());
    }

    #[test]
    fn params_half_matches_backward_for_every_layer() {
        assert_backward_params_matches_backward(Dense::new(7, 4), 7);
        assert_backward_params_matches_backward(Conv2d::new(3, 8, 8, 12, 3), 3 * 64);
        assert_backward_params_matches_backward(Conv2d::new(2, 7, 6, 3, 5), 2 * 42);
        // The defaulted method: run `backward`, drop the tensor.
        assert_backward_params_matches_backward(Relu::new(), 9);
        assert_backward_params_matches_backward(AvgPool2d::new(2, 4, 4), 32);
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(6, 6)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 6)),
        ];
        assert_backward_params_matches_backward(Residual::new(body), 6);
    }

    #[test]
    #[should_panic(expected = "dense backward without forward(train=true)")]
    fn cold_dense_params_half_panics_like_backward() {
        let mut d = Dense::new(3, 2);
        let params = vec![0.0; d.param_len()];
        d.backward_params(&params, &mut [0.0; 8], &Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "conv backward without forward(train=true)")]
    fn cold_conv_params_half_panics_like_backward() {
        let mut c = Conv2d::new(1, 3, 3, 2, 3);
        let params = vec![0.0; c.param_len()];
        c.backward_params(&params, &mut [0.0; 20], &Tensor::zeros(&[1, 18]));
    }

    #[test]
    fn relu_forward_clamps() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[1, 4]);
        let y = relu.forward(&[], &x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0, 2.0, -0.5], &[1, 4]);
        let _ = relu.forward(&[], &x, true);
        let g = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[1, 4]);
        let gx = relu.backward(&[], &mut [], &g);
        assert_eq!(gx.as_slice(), &[0.0, 20.0, 30.0, 0.0]);
    }

    /// The bits ReLU gives the values a `>` or `<` test treats specially:
    /// training maps NaN and `-0.0` to `+0.0` and masks their gradient to
    /// `+0.0`; evaluation passes NaN through and keeps `-0.0`.
    #[test]
    fn relu_edge_semantics() {
        let inf = f32::INFINITY;
        let x = [f32::NAN, -0.0, 0.0, -1.0, 2.0, inf, -inf, f32::MIN_POSITIVE];
        let x = Tensor::from_vec(x.to_vec(), &[1, 8]);
        let mut relu = Relu::new();
        let y = relu.forward(&[], &x, true);
        let want = [0.0, 0.0, 0.0, 0.0, 2.0, inf, 0.0, f32::MIN_POSITIVE];
        assert_bits_eq(y.as_slice(), &want, "training forward");
        let g = [-0.0, f32::NAN, 3.0, 4.0, -0.0, f32::NAN, 7.0, -8.0];
        let gx = relu.backward(&[], &mut [], &Tensor::from_vec(g.to_vec(), &[1, 8]));
        let want = [0.0, 0.0, 0.0, 0.0, -0.0, f32::NAN, 0.0, -8.0];
        assert_bits_eq(gx.as_slice(), &want, "backward");
        let y = relu.forward(&[], &x, false);
        let want = [f32::NAN, -0.0, 0.0, 0.0, 2.0, inf, 0.0, f32::MIN_POSITIVE];
        assert_bits_eq(y.as_slice(), &want, "evaluation forward");
    }

    #[test]
    fn relu_eval_mode_no_cache() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]);
        let y = relu.forward(&[], &x, false);
        assert_eq!(y.as_slice(), &[0.0, 1.0]);
        assert!(relu.mask.is_empty());
    }

    #[test]
    fn he_std_decreases_with_fan_in() {
        assert!(he_std(10) > he_std(1000));
        assert!((he_std(2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_forward_bounded_backward_fd() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-3.0, -0.5, 0.0, 0.5, 3.0], &[1, 5]);
        let y = t.forward(&[], &x, true);
        assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert_eq!(y.as_slice()[2], 0.0);
        // Finite-difference check of the tanh derivative.
        let g = Tensor::from_vec(vec![1.0; 5], &[1, 5]);
        let gx = t.backward(&[], &mut [], &g);
        let eps = 1e-3f32;
        for i in 0..5 {
            let fd =
                ((x.as_slice()[i] + eps).tanh() - (x.as_slice()[i] - eps).tanh()) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-3, "unit {i}");
        }
    }
}
