//! Head/tail accuracy summaries (Fig. 8).

use fedwcm_data::dataset::Dataset;
use fedwcm_fl::engine::per_class_accuracy_threads;
use fedwcm_nn::model::Model;

/// Per-class accuracy split into head and tail halves by training
/// frequency.
#[derive(Clone, Debug)]
pub struct HeadTailSummary {
    /// Accuracy per class, indexed by class id.
    pub per_class: Vec<f64>,
    /// Mean accuracy over the most-frequent half of classes.
    pub head_accuracy: f64,
    /// Mean accuracy over the least-frequent half of classes.
    pub tail_accuracy: f64,
}

/// Evaluate per-class accuracy and summarise head vs tail, where classes
/// are ranked by `train_counts` (descending = head first).
pub fn head_tail_summary(
    model: &mut Model,
    test: &Dataset,
    train_counts: &[usize],
) -> HeadTailSummary {
    assert_eq!(train_counts.len(), test.classes(), "class arity mismatch");
    let per_class = per_class_accuracy_threads(model, test, 1);
    let mut order: Vec<usize> = (0..train_counts.len()).collect();
    order.sort_by(|&a, &b| train_counts[b].cmp(&train_counts[a]));
    let half = order.len() / 2;
    let head: Vec<f64> = order[..half].iter().map(|&c| per_class[c]).collect();
    let tail: Vec<f64> = order[half..].iter().map(|&c| per_class[c]).collect();
    HeadTailSummary {
        per_class,
        head_accuracy: fedwcm_stats::describe::mean(&head),
        tail_accuracy: fedwcm_stats::describe::mean(&tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_nn::loss::CrossEntropy;
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::Xoshiro256pp;

    #[test]
    fn summary_shapes_and_bounds() {
        let spec = DatasetPreset::FashionMnist.spec();
        let test = spec.generate_test(301);
        let counts = longtail_counts(10, 100, 0.1);
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut model = mlp(64, &[16], 10, &mut rng);
        let s = head_tail_summary(&mut model, &test, &counts);
        assert_eq!(s.per_class.len(), 10);
        assert!((0.0..=1.0).contains(&s.head_accuracy));
        assert!((0.0..=1.0).contains(&s.tail_accuracy));
    }

    #[test]
    fn longtail_training_biases_towards_head() {
        // Train centrally on a heavy long tail: head accuracy should beat
        // tail accuracy — the bias FedWCM targets.
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 150, 0.02);
        let train = spec.generate_train(&counts, 302);
        let test = spec.generate_test(302);
        let mut rng = Xoshiro256pp::seed_from(2);
        let mut model = mlp(64, &[32], 10, &mut rng);
        let (x, y) = train.as_batch();
        let mut grads = vec![0.0f32; model.param_len()];
        for _ in 0..100 {
            let _ = model.loss_grad(&x, &y, &CrossEntropy, &mut grads);
            fedwcm_nn::opt::sgd_step(model.params_mut(), &grads, 0.1);
        }
        let s = head_tail_summary(&mut model, &test, &counts);
        assert!(
            s.head_accuracy > s.tail_accuracy + 0.05,
            "head {} vs tail {}",
            s.head_accuracy,
            s.tail_accuracy
        );
    }
}
