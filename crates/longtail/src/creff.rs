//! CReFF-style classifier re-training on federated features (Shang et
//! al., 2022).
//!
//! The bias of long-tail training concentrates in the classifier head;
//! CReFF re-trains it on *federated features* — per-class feature
//! prototypes contributed by clients — sampled in a class-balanced way.
//! This module implements the mechanism as a post-processing step usable
//! on any trained global model.

use fedwcm_data::dataset::{ClientView, Dataset};
use fedwcm_nn::dense::Dense;
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::model::Model;
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};
use fedwcm_tensor::Tensor;

/// Per-class feature prototypes gathered from clients ("federated
/// features"): for every class a client holds, the mean penultimate-layer
/// feature of its samples of that class.
pub fn gather_federated_features(
    model: &mut Model,
    dataset: &Dataset,
    views: &[ClientView],
) -> Vec<(usize, Vec<f32>)> {
    let classes = dataset.classes();
    let mut protos = Vec::new();
    for view in views {
        if view.is_empty() {
            continue;
        }
        let (x, y) = dataset.gather(view.indices());
        let (_, acts) = model.forward_collect(&x);
        // Penultimate activation: input to the final (classifier) layer.
        let feats = &acts[acts.len() - 2];
        let dim = feats.cols();
        let mut sums = vec![vec![0.0f32; dim]; classes];
        let mut counts = vec![0usize; classes];
        for (r, &label) in y.iter().enumerate() {
            counts[label] += 1;
            for (s, v) in sums[label].iter_mut().zip(feats.row(r)) {
                *s += v;
            }
        }
        for (c, (sum, &n)) in sums.into_iter().zip(&counts).enumerate() {
            if n > 0 {
                protos.push((c, sum.iter().map(|s| s / n as f32).collect()));
            }
        }
    }
    protos
}

/// Re-train the model's final classifier layer on class-balanced batches
/// of federated features. Mutates the model's classifier parameters in
/// place and returns the number of optimisation steps run.
pub fn creff_retrain(
    model: &mut Model,
    dataset: &Dataset,
    views: &[ClientView],
    steps: usize,
    lr: f32,
    seed: u64,
) -> usize {
    assert!(steps >= 1 && lr > 0.0);
    let protos = gather_federated_features(model, dataset, views);
    if protos.is_empty() {
        return 0;
    }
    let classes = dataset.classes();
    // Bucket prototypes by class for balanced sampling.
    let mut buckets: Vec<Vec<&Vec<f32>>> = vec![Vec::new(); classes];
    for (c, f) in &protos {
        buckets[*c].push(f);
    }
    let present: Vec<usize> = (0..classes).filter(|&c| !buckets[c].is_empty()).collect();
    assert!(!present.is_empty());
    let dim = protos[0].1.len();

    // Extract the classifier as a standalone one-layer model.
    let (off, len) = model.layer_param_range(model.num_layers() - 1);
    let mut rng = Xoshiro256pp::stream(seed, &[stream::CREFF_HEAD]);
    let mut head = Model::new(vec![Box::new(Dense::new(dim, classes))], dim, &mut rng);
    assert_eq!(head.param_len(), len, "classifier extraction size mismatch");
    head.set_params(&model.params()[off..off + len]);

    let batch = 32.min(present.len() * 4).max(4);
    let mut grads = vec![0.0f32; head.param_len()];
    for _ in 0..steps {
        let mut xv = Vec::with_capacity(batch * dim);
        let mut yv = Vec::with_capacity(batch);
        for _ in 0..batch {
            let c = present[rng.index(present.len())];
            let f = buckets[c][rng.index(buckets[c].len())];
            xv.extend_from_slice(f);
            yv.push(c);
        }
        let x = Tensor::from_vec(xv, &[batch, dim]);
        let _ = head.loss_grad(&x, &yv, &CrossEntropy, &mut grads);
        fedwcm_nn::opt::sgd_step(head.params_mut(), &grads, lr);
    }

    // Write the re-trained head back.
    model.params_mut()[off..off + len].copy_from_slice(head.params());
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_fl::engine::evaluate_accuracy_threads;
    use fedwcm_nn::models::mlp;

    #[test]
    fn gathers_prototypes_per_present_class() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 40, 0.5);
        let ds = spec.generate_train(&counts, 131);
        let part = paper_partition(&ds, 4, 0.5, 131);
        let views = part.views(&ds);
        let mut rng = Xoshiro256pp::seed_from(7);
        let mut model = mlp(64, &[32], 10, &mut rng);
        let protos = gather_federated_features(&mut model, &ds, &views);
        assert!(!protos.is_empty());
        // Each prototype is a penultimate feature (width 32).
        assert!(protos.iter().all(|(c, f)| *c < 10 && f.len() == 32));
        // Every client contributes at most one prototype per class.
        assert!(protos.len() <= 4 * 10);
    }

    #[test]
    fn retrain_improves_longtail_accuracy_of_undertrained_model() {
        // Train a model briefly on long-tail data centrally, then CReFF
        // the head; tail-class accuracy should not get worse overall.
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 120, 0.05);
        let ds = spec.generate_train(&counts, 132);
        let test = spec.generate_test(132);
        let part = paper_partition(&ds, 4, 0.5, 132);
        let views = part.views(&ds);
        let mut rng = Xoshiro256pp::seed_from(8);
        let mut model = mlp(64, &[32], 10, &mut rng);
        // Quick biased training pass on the skewed data.
        let (x, y) = ds.as_batch();
        let mut grads = vec![0.0f32; model.param_len()];
        for _ in 0..60 {
            let _ = model.loss_grad(&x, &y, &CrossEntropy, &mut grads);
            fedwcm_nn::opt::sgd_step(model.params_mut(), &grads, 0.1);
        }
        let before = evaluate_accuracy_threads(&mut model, &test, 1);
        let ran = creff_retrain(&mut model, &ds, &views, 300, 0.1, 132);
        assert_eq!(ran, 300);
        let after = evaluate_accuracy_threads(&mut model, &test, 1);
        assert!(
            after > before - 0.02,
            "CReFF hurt accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn retrain_only_touches_classifier() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 30, 0.5);
        let ds = spec.generate_train(&counts, 133);
        let part = paper_partition(&ds, 3, 0.5, 133);
        let views = part.views(&ds);
        let mut rng = Xoshiro256pp::seed_from(9);
        let mut model = mlp(64, &[32], 10, &mut rng);
        let before = model.params().to_vec();
        let (off, _) = model.layer_param_range(model.num_layers() - 1);
        let _ = creff_retrain(&mut model, &ds, &views, 50, 0.1, 133);
        // Backbone untouched, head changed.
        assert_eq!(&model.params()[..off], &before[..off]);
        assert_ne!(&model.params()[off..], &before[off..]);
    }
}
