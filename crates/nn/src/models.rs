//! Architecture presets mirroring the paper's per-dataset model choices.
//!
//! The paper uses a 3-layer MLP on Fashion-MNIST, ResNet-18 on SVHN and
//! CIFAR-10, and ResNet-34 on CIFAR-100/ImageNet. The CPU-scaled stand-ins
//! here keep the same structural roles: [`mlp`] for the flat-feature
//! preset, [`res_lite`] as the residual CNN backbone (conv stem, residual
//! blocks at two resolutions, global average pooling, linear classifier).

use crate::conv::{AvgPool2d, Conv2d, GlobalAvgPool};
use crate::dense::Dense;
use crate::layer::{Layer, Relu};
use crate::model::Model;
use crate::residual::Residual;
use fedwcm_stats::Xoshiro256pp;

/// Multilayer perceptron: `in → hidden… → classes` with ReLU between.
pub fn mlp(in_features: usize, hidden: &[usize], classes: usize, rng: &mut Xoshiro256pp) -> Model {
    assert!(classes >= 2, "need at least two classes");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut width = in_features;
    for &h in hidden {
        layers.push(Box::new(Dense::new(width, h)));
        layers.push(Box::new(Relu::new()));
        width = h;
    }
    layers.push(Box::new(Dense::new(width, classes)));
    Model::new(layers, in_features, rng)
}

fn res_block(c: usize, h: usize, w: usize) -> Residual {
    Residual::new(vec![
        Box::new(Conv2d::new(c, h, w, c, 3)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c, h, w, c, 3)),
    ])
}

/// Compact residual CNN ("ResLite") over `[c_in, h, w]` images.
///
/// Structure: 3×3 conv stem to `width` channels → ReLU → 2× avg-pool →
/// residual block → 2× avg-pool → residual block → global average pool →
/// linear classifier. `h` and `w` must be divisible by 4.
pub fn res_lite(
    c_in: usize,
    h: usize,
    w: usize,
    classes: usize,
    width: usize,
    rng: &mut Xoshiro256pp,
) -> Model {
    assert!(
        h.is_multiple_of(4) && w.is_multiple_of(4),
        "res_lite needs h, w divisible by 4"
    );
    assert!(classes >= 2 && width >= 4);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(c_in, h, w, width, 3)),
        Box::new(Relu::new()),
        Box::new(AvgPool2d::new(width, h, w)),
        Box::new(res_block(width, h / 2, w / 2)),
        Box::new(Relu::new()),
        Box::new(AvgPool2d::new(width, h / 2, w / 2)),
        Box::new(res_block(width, h / 4, w / 4)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new(width, h / 4, w / 4)),
        Box::new(Dense::new(width, classes)),
    ];
    Model::new(layers, c_in * h * w, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{CrossEntropy, Loss};
    use fedwcm_tensor::Tensor;

    #[test]
    fn mlp_shapes() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut m = mlp(16, &[32, 32], 10, &mut rng);
        assert_eq!(m.out_features(), 10);
        let x = Tensor::zeros(&[4, 16]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[4, 10]);
    }

    #[test]
    fn res_lite_shapes() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let mut m = res_lite(3, 8, 8, 10, 8, &mut rng);
        assert_eq!(m.in_features(), 3 * 64);
        assert_eq!(m.out_features(), 10);
        let x = Tensor::zeros(&[2, 192]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn res_lite_trains_on_toy_task() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let mut m = res_lite(1, 4, 4, 2, 4, &mut rng);
        // Class 0: bright images; class 1: dark images.
        let mut xv = vec![0.0f32; 4 * 16];
        xv[..2 * 16].fill(1.0);
        let x = Tensor::from_vec(xv, &[4, 16]);
        let y = [0usize, 0, 1, 1];
        let loss = CrossEntropy;
        let mut grads = vec![0.0; m.param_len()];
        let before = m.loss_grad(&x, &y, &loss, &mut grads);
        for _ in 0..150 {
            let _ = m.loss_grad(&x, &y, &loss, &mut grads);
            crate::opt::sgd_step(m.params_mut(), &grads, 0.2);
        }
        let after = m.loss_grad(&x, &y, &loss, &mut grads);
        assert!(after < before, "loss {before} -> {after}");
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn res_lite_gradcheck_subset() {
        let mut rng = Xoshiro256pp::seed_from(4);
        let mut m = res_lite(1, 4, 4, 3, 4, &mut rng);
        let x = Tensor::randn(&[2, 16], 1.0, &mut rng);
        let y = [0usize, 2];
        let loss = CrossEntropy;
        let mut grads = vec![0.0; m.param_len()];
        let _ = m.loss_grad(&x, &y, &loss, &mut grads);
        let base = m.params().to_vec();
        let eps = 1e-2;
        let mut checked = 0;
        for i in (0..base.len()).step_by(base.len() / 24 + 1) {
            let mut p = base.clone();
            p[i] += eps;
            m.set_params(&p);
            let up = loss.loss_and_grad(&m.forward(&x, false), &y).0;
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let down = loss.loss_and_grad(&m.forward(&x, false), &y).0;
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads[i]).abs() < 0.05,
                "param {i}: fd {fd} vs analytic {}",
                grads[i]
            );
            checked += 1;
            m.set_params(&base);
        }
        assert!(checked >= 20);
    }
}
