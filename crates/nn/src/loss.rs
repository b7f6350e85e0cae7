//! Classification losses, including the long-tail-aware ones the paper
//! combines with FedCM: Focal loss and Balanced-Softmax ("Balance Loss" /
//! PriorCELoss).
//!
//! Every loss maps logits `[batch, C]` + integer labels to the scalar
//! *mean* loss and the mean gradient w.r.t. the logits (already divided by
//! the batch size), so `Model::backward` yields mean parameter gradients.

use fedwcm_tensor::Tensor;

/// A differentiable classification loss.
pub trait Loss: Send + Sync {
    /// Mean loss and mean logits-gradient for a batch.
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor);
}

/// Row-wise numerically-stable softmax.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    let cols = out.cols();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut total = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            total += *x;
        }
        debug_assert!(total > 0.0 && cols > 0);
        for x in row.iter_mut() {
            *x /= total;
        }
    }
    out
}

fn check_labels(logits: &Tensor, labels: &[usize]) {
    assert_eq!(logits.rows(), labels.len(), "batch/label length mismatch");
    let c = logits.cols();
    assert!(labels.iter().all(|&y| y < c), "label out of range");
    assert!(!labels.is_empty(), "empty batch");
}

/// Plain softmax cross-entropy.
pub struct CrossEntropy;

impl Loss for CrossEntropy {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_labels(logits, labels);
        let batch = labels.len();
        let inv = 1.0 / batch as f32;
        let mut probs = softmax_rows(logits);
        let mut loss = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            let row = probs.row_mut(r);
            loss -= row[y].max(1e-12).ln();
            row[y] -= 1.0;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        (loss * inv, probs)
    }
}

/// Focal loss (Lin et al., 2017): `-(1-p_y)^γ log p_y`.
///
/// Down-weights easy (high-confidence) examples so rare classes receive
/// relatively more gradient. `gamma = 0` reduces to cross-entropy.
pub struct FocalLoss {
    /// Focusing parameter γ ≥ 0.
    pub gamma: f32,
}

impl Loss for FocalLoss {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_labels(logits, labels);
        assert!(self.gamma >= 0.0, "gamma must be non-negative");
        let batch = labels.len();
        let inv = 1.0 / batch as f32;
        let g = self.gamma;
        let mut probs = softmax_rows(logits);
        let mut loss = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            let row = probs.row_mut(r);
            let p = row[y].clamp(1e-7, 1.0 - 1e-7);
            let one_minus = 1.0 - p;
            loss += -(one_minus.powf(g)) * p.ln();
            // d loss / d z_j = c · (p_j − δ_{jy}) with
            // c = (1−p)^γ − γ·p·(1−p)^{γ−1}·ln p   (c = 1 recovers CE).
            let c = one_minus.powf(g) - g * p * one_minus.powf(g - 1.0) * p.ln();
            row[y] -= 1.0;
            for x in row.iter_mut() {
                *x *= c * inv;
            }
        }
        (loss * inv, probs)
    }
}

/// Balanced Softmax / PriorCELoss ("Balance Loss" in the paper's tables):
/// cross-entropy on prior-adjusted logits `z_c + log π_c`.
///
/// With the long-tail prior π, the adjustment cancels the skew the prior
/// induces in vanilla softmax training.
pub struct BalancedSoftmax {
    log_prior: Vec<f32>,
}

impl BalancedSoftmax {
    /// Build from per-class sample counts (the training prior).
    pub fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty(), "need per-class counts");
        let total: usize = counts.iter().sum();
        assert!(total > 0, "all-zero class counts");
        let log_prior = counts
            .iter()
            .map(|&n| {
                // Floor empty classes at one pseudo-count to stay finite.
                let p = (n.max(1)) as f32 / total as f32;
                p.ln()
            })
            .collect();
        BalancedSoftmax { log_prior }
    }
}

impl Loss for BalancedSoftmax {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_labels(logits, labels);
        assert_eq!(logits.cols(), self.log_prior.len(), "class count mismatch");
        let mut adjusted = logits.clone();
        for r in 0..adjusted.rows() {
            for (x, lp) in adjusted.row_mut(r).iter_mut().zip(&self.log_prior) {
                *x += lp;
            }
        }
        CrossEntropy.loss_and_grad(&adjusted, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(loss: &dyn Loss, logits: &Tensor, labels: &[usize], tol: f32) {
        let (_, grad) = loss.loss_and_grad(logits, labels);
        let eps = 1e-3;
        let base = logits.as_slice().to_vec();
        for i in 0..base.len() {
            let mut z = base.clone();
            z[i] += eps;
            let up = loss
                .loss_and_grad(&Tensor::from_vec(z.clone(), logits.shape()), labels)
                .0;
            z[i] -= 2.0 * eps;
            let down = loss
                .loss_and_grad(&Tensor::from_vec(z, logits.shape()), labels)
                .0;
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < tol,
                "logit {i}: fd {fd} vs analytic {}",
                grad.as_slice()[i]
            );
        }
    }

    fn sample_logits() -> (Tensor, Vec<usize>) {
        (
            Tensor::from_vec(vec![2.0, -1.0, 0.5, 0.1, 0.2, -0.3], &[2, 3]),
            vec![0, 2],
        )
    }

    #[test]
    fn softmax_rows_normalised() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax_rows(&t);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn ce_gradient_matches_fd() {
        let (z, y) = sample_logits();
        fd_check(&CrossEntropy, &z, &y, 1e-3);
    }

    #[test]
    fn ce_perfect_prediction_low_loss() {
        let z = Tensor::from_vec(vec![20.0, 0.0, 0.0], &[1, 3]);
        let (l, _) = CrossEntropy.loss_and_grad(&z, &[0]);
        assert!(l < 1e-6);
    }

    #[test]
    fn focal_gamma_zero_equals_ce() {
        let (z, y) = sample_logits();
        let (lf, gf) = FocalLoss { gamma: 0.0 }.loss_and_grad(&z, &y);
        let (lc, gc) = CrossEntropy.loss_and_grad(&z, &y);
        assert!((lf - lc).abs() < 1e-5);
        assert!(gf.max_abs_diff(&gc) < 1e-5);
    }

    #[test]
    fn focal_gradient_matches_fd() {
        let (z, y) = sample_logits();
        fd_check(&FocalLoss { gamma: 2.0 }, &z, &y, 2e-3);
    }

    #[test]
    fn focal_downweights_easy_examples() {
        // Confident correct prediction should get much smaller loss under
        // focal than under CE, relatively.
        let z = Tensor::from_vec(vec![4.0, 0.0, 0.0], &[1, 3]);
        let (lf, _) = FocalLoss { gamma: 2.0 }.loss_and_grad(&z, &[0]);
        let (lc, _) = CrossEntropy.loss_and_grad(&z, &[0]);
        assert!(lf < lc * 0.01, "focal {lf} vs ce {lc}");
    }

    #[test]
    fn balanced_softmax_gradient_matches_fd() {
        let (z, y) = sample_logits();
        let loss = BalancedSoftmax::from_counts(&[100, 10, 1]);
        fd_check(&loss, &z, &y, 1e-3);
    }

    #[test]
    fn balanced_softmax_uniform_prior_equals_ce() {
        let (z, y) = sample_logits();
        let loss = BalancedSoftmax::from_counts(&[50, 50, 50]);
        let (lb, gb) = loss.loss_and_grad(&z, &y);
        let (lc, gc) = CrossEntropy.loss_and_grad(&z, &y);
        assert!((lb - lc).abs() < 1e-5);
        assert!(gb.max_abs_diff(&gc) < 1e-5);
    }

    #[test]
    fn balanced_softmax_penalises_head_class() {
        // Same logits: predicting the head class must incur more loss than
        // predicting the tail class, because the prior inflates the head.
        let loss = BalancedSoftmax::from_counts(&[1000, 10]);
        let z = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let (l_head, _) = loss.loss_and_grad(&z, &[0]);
        let (l_tail, _) = loss.loss_and_grad(&z, &[1]);
        assert!(l_tail > l_head, "tail {l_tail} head {l_head}");
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let z = Tensor::zeros(&[1, 3]);
        let _ = CrossEntropy.loss_and_grad(&z, &[3]);
    }
}
