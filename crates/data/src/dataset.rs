//! Dataset storage and client-side views.

use fedwcm_tensor::Tensor;

/// An in-memory labelled dataset: features `[n, d]` plus integer labels.
#[derive(Clone, Debug)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Wrap features and labels; validates shapes and label range.
    pub fn new(features: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        assert!(classes >= 2, "need at least two classes");
        assert!(labels.iter().all(|&y| y < classes), "label out of range");
        Dataset {
            features,
            labels,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row of sample `i`.
    pub fn feature_row(&self, i: usize) -> &[f32] {
        self.features.row(i)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &y in &self.labels {
            counts[y] += 1;
        }
        counts
    }

    /// Materialise a batch `(features, labels)` from sample indices.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let d = self.dim();
        let mut data = Vec::with_capacity(indices.len() * d);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        (Tensor::from_vec(data, &[indices.len(), d]), labels)
    }

    /// The batch of the contiguous samples `start..end`: one block copy
    /// of the feature rows, the labels borrowed.
    pub fn range_batch(&self, start: usize, end: usize) -> (Tensor, &[usize]) {
        let d = self.dim();
        let data = self.features.as_slice()[start * d..end * d].to_vec();
        (
            Tensor::from_vec(data, &[end - start, d]),
            &self.labels[start..end],
        )
    }

    /// The whole dataset as one batch.
    pub fn as_batch(&self) -> (Tensor, Vec<usize>) {
        (self.features.clone(), self.labels.clone())
    }

    /// Indices of every sample of class `c`.
    pub fn indices_of_class(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &y)| y == c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A client's view into the master dataset: the sample indices it owns.
#[derive(Clone, Debug)]
pub struct ClientView {
    indices: Vec<usize>,
    class_counts: Vec<usize>,
}

impl ClientView {
    /// Build a view from owned indices.
    pub fn new(indices: Vec<usize>, dataset: &Dataset) -> Self {
        let mut class_counts = vec![0usize; dataset.classes()];
        for &i in &indices {
            class_counts[dataset.label(i)] += 1;
        }
        ClientView {
            indices,
            class_counts,
        }
    }

    /// Number of samples this client holds (the paper's `n_k`).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the client holds no samples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Owned sample indices into the master dataset.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Per-class counts `n_{k,c}`.
    pub fn class_counts(&self) -> &[usize] {
        &self.class_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[4, 2]);
        Dataset::new(x, vec![0, 1, 1, 2], 3)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.classes(), 3);
        assert_eq!(d.class_counts(), vec![1, 2, 1]);
        assert_eq!(d.feature_row(2), &[4.0, 5.0]);
    }

    #[test]
    fn gather_builds_batches() {
        let d = toy();
        let (x, y) = d.gather(&[3, 0]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.row(0), &[6.0, 7.0]);
        assert_eq!(y, vec![2, 0]);
    }

    #[test]
    fn range_batch_equals_gather_of_the_range() {
        let d = toy();
        let (x, y) = d.range_batch(1, 4);
        let (gx, gy) = d.gather(&[1, 2, 3]);
        assert_eq!(x.shape(), gx.shape());
        assert_eq!(x.as_slice(), gx.as_slice());
        assert_eq!(y, gy.as_slice());
        assert_eq!(d.range_batch(2, 2).0.rows(), 0);
    }

    #[test]
    fn indices_of_class_filters() {
        let d = toy();
        assert_eq!(d.indices_of_class(1), vec![1, 2]);
        assert_eq!(d.indices_of_class(0), vec![0]);
    }

    #[test]
    fn client_view_counts() {
        let d = toy();
        let v = ClientView::new(vec![1, 2, 3], &d);
        assert_eq!(v.len(), 3);
        assert_eq!(v.class_counts(), &[0, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_rejected() {
        let x = Tensor::zeros(&[1, 2]);
        let _ = Dataset::new(x, vec![5], 3);
    }
}
