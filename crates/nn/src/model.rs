//! Sequential model over a flat parameter arena.

use crate::layer::Layer;
use crate::loss::Loss;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::Tensor;
use fedwcm_trace::prof;
use std::borrow::Cow;

/// A sequential network: layers plus one flat parameter vector.
///
/// The flat arena is the FL interface: algorithms read
/// [`Model::params`], write via [`Model::set_params`], and receive
/// gradients as one flat buffer from [`Model::backward`] /
/// [`Model::loss_grad`]. All federated arithmetic happens on these flat
/// slices with the `fedwcm-tensor::ops` kernels.
///
/// `Clone` duplicates the layer stack and parameters, which lets the
/// evaluation path hand each worker its own model replica.
#[derive(Clone)]
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    offsets: Vec<(usize, usize)>,
    params: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

impl Model {
    /// Build a model from layers, validating the width chain, and
    /// initialise parameters from `rng`.
    pub fn new(layers: Vec<Box<dyn Layer>>, in_features: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        let mut offsets = Vec::with_capacity(layers.len());
        let mut total = 0usize;
        let mut width = in_features;
        for l in &layers {
            width = l.out_features(width);
            let len = l.param_len();
            offsets.push((total, len));
            total += len;
        }
        let mut params = vec![0.0f32; total];
        for (l, &(off, len)) in layers.iter().zip(&offsets) {
            l.init_params(&mut params[off..off + len], rng);
        }
        Model {
            layers,
            offsets,
            params,
            in_features,
            out_features: width,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count (number of classes for classifiers).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Total parameter count.
    pub fn param_len(&self) -> usize {
        self.params.len()
    }

    /// Current parameters (flat).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable parameters (flat).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Overwrite all parameters.
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.params.len(),
            "set_params length mismatch"
        );
        self.params.copy_from_slice(params);
    }

    /// Layer names in order (for per-layer analysis).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Parameter range `(offset, len)` of layer `i` in the flat arena.
    pub fn layer_param_range(&self, i: usize) -> (usize, usize) {
        self.offsets[i]
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass producing logits. `train=true` caches activations so a
    /// `backward` can follow. A non-finite input value is not checked for:
    /// it flows through to the logits.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.cols(), self.in_features, "model input width mismatch");
        let mut x = Cow::Borrowed(input);
        for (l, &(off, len)) in self.layers.iter_mut().zip(&self.offsets) {
            // Per-layer timing behind the cheap `prof::active()` guard: a
            // single relaxed load unless a binary installed the profiler.
            if prof::active() {
                let t0 = prof::now();
                x = Cow::Owned(l.forward(&self.params[off..off + len], &x, train));
                prof::record("fwd", l.name(), prof::now().saturating_sub(t0));
            } else {
                x = Cow::Owned(l.forward(&self.params[off..off + len], &x, train));
            }
        }
        x.into_owned()
    }

    /// Forward pass that also returns every intermediate activation
    /// (post-layer outputs), used by the neuron-concentration analysis.
    pub fn forward_collect(&mut self, input: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut x = input.clone();
        let mut acts = Vec::with_capacity(self.layers.len());
        for (l, &(off, len)) in self.layers.iter_mut().zip(&self.offsets) {
            x = l.forward(&self.params[off..off + len], &x, false);
            acts.push(x.clone());
        }
        (x.clone(), acts)
    }

    /// Backward pass from a logits gradient; fills `grads` (accumulating).
    ///
    /// Nothing reads the input gradient of the first layer, so that layer
    /// is asked for its parameter gradients only
    /// ([`Layer::backward_params`]); every caller gets the saving.
    pub fn backward(&mut self, grad_logits: &Tensor, grads: &mut [f32]) {
        assert_eq!(
            grads.len(),
            self.params.len(),
            "grad buffer length mismatch"
        );
        let mut g = Cow::Borrowed(grad_logits);
        for (idx, (l, &(off, len))) in self.layers.iter_mut().zip(&self.offsets).enumerate().rev() {
            let (p, gp) = (&self.params[off..off + len], &mut grads[off..off + len]);
            let t0 = prof::active().then(prof::now);
            if idx == 0 {
                l.backward_params(p, gp, &g);
            } else {
                g = Cow::Owned(l.backward(p, gp, &g));
            }
            if let Some(t0) = t0 {
                prof::record("bwd", l.name(), prof::now().saturating_sub(t0));
            }
        }
    }

    /// Convenience: forward + loss + backward on one mini-batch.
    /// Returns the mean loss; writes the mean gradient into `grads`
    /// (overwriting, not accumulating).
    pub fn loss_grad(
        &mut self,
        x: &Tensor,
        y: &[usize],
        loss: &dyn Loss,
        grads: &mut [f32],
    ) -> f32 {
        grads.fill(0.0);
        let logits = self.forward(x, true);
        let (l, dlogits) = loss.loss_and_grad(&logits, y);
        self.backward(&dlogits, grads);
        l
    }

    /// Free every layer's training cache ([`Layer::release_cache`]): a
    /// model kept across clients then pins its parameter arena only, not
    /// the activations and patch panels of the last batch it trained on.
    pub fn release_caches(&mut self) {
        for l in &mut self.layers {
            l.release_cache();
        }
    }

    /// Predicted class per row.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x, false);
        (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::reference::assert_bits_eq;
    use crate::dense::Dense;
    use crate::layer::Relu;
    use crate::loss::{CrossEntropy, Loss};
    use crate::models::{mlp, res_lite};
    use crate::residual::Residual;

    fn tiny_model(seed: u64) -> Model {
        let mut rng = Xoshiro256pp::seed_from(seed);
        Model::new(
            vec![
                Box::new(Dense::new(4, 8)),
                Box::new(Relu::new()),
                Box::new(Dense::new(8, 3)),
            ],
            4,
            &mut rng,
        )
    }

    #[test]
    fn widths_and_param_count() {
        let m = tiny_model(1);
        assert_eq!(m.in_features(), 4);
        assert_eq!(m.out_features(), 3);
        assert_eq!(m.param_len(), (4 * 8 + 8) + (8 * 3 + 3));
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.layer_names(), vec!["dense", "relu", "dense"]);
    }

    #[test]
    fn deterministic_init() {
        let a = tiny_model(42);
        let b = tiny_model(42);
        assert_eq!(a.params(), b.params());
        let c = tiny_model(43);
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn set_params_roundtrip() {
        let mut m = tiny_model(1);
        let new: Vec<f32> = (0..m.param_len()).map(|i| i as f32 * 0.01).collect();
        m.set_params(&new);
        assert_eq!(m.params(), new.as_slice());
    }

    #[test]
    fn forward_collect_layer_count() {
        let mut m = tiny_model(1);
        let x = Tensor::zeros(&[2, 4]);
        let (logits, acts) = m.forward_collect(&x);
        assert_eq!(acts.len(), 3);
        assert_eq!(logits.shape(), &[2, 3]);
        assert_eq!(acts[0].shape(), &[2, 8]);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut m = tiny_model(7);
        // Three clusters along different axes.
        let x = Tensor::from_vec(
            vec![
                3.0, 0.0, 0.0, 0.0, //
                0.0, 3.0, 0.0, 0.0, //
                0.0, 0.0, 3.0, 0.0,
            ],
            &[3, 4],
        );
        let y = [0usize, 1, 2];
        let loss = CrossEntropy;
        let mut grads = vec![0.0; m.param_len()];
        let initial = m.loss_grad(&x, &y, &loss, &mut grads);
        for _ in 0..200 {
            let _ = m.loss_grad(&x, &y, &loss, &mut grads);
            let params = m.params_mut();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 0.5 * g;
            }
        }
        let after = m.loss_grad(&x, &y, &loss, &mut grads);
        assert!(after < initial * 0.1, "loss {initial} -> {after}");
        assert_eq!(m.predict(&x), y);
    }

    /// The reference for `Model::backward`: every layer, the first
    /// included, produces its input gradient.
    fn backward_through_every_layer(m: &mut Model, grad_logits: &Tensor, grads: &mut [f32]) {
        let mut g = grad_logits.clone();
        for (l, &(off, len)) in m.layers.iter_mut().zip(&m.offsets).rev() {
            g = l.backward(&m.params[off..off + len], &mut grads[off..off + len], &g);
        }
    }

    #[test]
    fn skipping_the_first_input_gradient_changes_no_parameter_gradient() {
        let mut rng = Xoshiro256pp::seed_from(12);
        let residual_first = Model::new(
            vec![
                Box::new(Residual::new(vec![
                    Box::new(Dense::new(6, 6)),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(6, 6)),
                ])),
                Box::new(Dense::new(6, 3)),
            ],
            6,
            &mut rng,
        );
        for mut m in [
            mlp(64, &[256], 10, &mut rng),
            res_lite(3, 8, 8, 10, 12, &mut rng),
            residual_first,
        ] {
            let x = Tensor::randn(&[7, m.in_features()], 1.0, &mut rng);
            let y: Vec<usize> = (0..7).map(|i| i % m.out_features()).collect();
            let (_, dlogits) = CrossEntropy.loss_and_grad(&m.forward(&x, true), &y);
            let seeded = Tensor::randn(&[m.param_len()], 1.0, &mut rng).into_vec();
            let (mut got, mut want) = (seeded.clone(), seeded);
            m.backward(&dlogits, &mut got);
            backward_through_every_layer(&mut m, &dlogits, &mut want);
            assert_bits_eq(&got, &want, &format!("{:?}", m.layer_names()));
        }
    }

    #[test]
    #[should_panic(expected = "dense backward without forward(train=true)")]
    fn released_model_is_as_cold_as_a_fresh_one() {
        let mut m = tiny_model(3);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], &[1, 4]);
        let mut grads = vec![0.0; m.param_len()];
        let _ = m.loss_grad(&x, &[1], &CrossEntropy, &mut grads);
        m.release_caches();
        m.backward(&Tensor::zeros(&[1, 3]), &mut grads);
    }

    #[test]
    fn model_gradient_matches_finite_difference() {
        let mut m = tiny_model(9);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 1.0, 1.0, -0.5, 0.3], &[2, 4]);
        let y = [2usize, 0];
        let loss = CrossEntropy;
        let mut grads = vec![0.0; m.param_len()];
        let _ = m.loss_grad(&x, &y, &loss, &mut grads);
        let eps = 1e-3;
        let base_params = m.params().to_vec();
        for i in (0..base_params.len()).step_by(7) {
            let mut p = base_params.clone();
            p[i] += eps;
            m.set_params(&p);
            let up = {
                let logits = m.forward(&x, false);
                loss.loss_and_grad(&logits, &y).0
            };
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let down = {
                let logits = m.forward(&x, false);
                loss.loss_and_grad(&logits, &y).0
            };
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads[i]).abs() < 1e-2,
                "param {i}: fd {fd} vs {}",
                grads[i]
            );
            m.set_params(&base_params);
        }
    }
}
