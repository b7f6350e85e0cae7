//! The dense row-major [`Tensor`] type.

use fedwcm_stats::dist::Normal;
use fedwcm_stats::rng::Rng;

/// A dense, row-major f32 tensor of arbitrary rank.
///
/// Rank-2 tensors `[rows, cols]` are the workhorse (mini-batches of
/// features, weight matrices); rank-4 `[n, c, h, w]` appears in the conv
/// path. The data is one contiguous `Vec<f32>`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![0.0; len],
            shape: shape.to_vec(),
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![value; len],
            shape: shape.to_vec(),
        }
    }

    /// Wrap an existing buffer. Panics if `data.len()` mismatches `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Gaussian-initialised tensor `N(0, std²)` — weight initialisation.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let mut t = Tensor::zeros(shape);
        let mut normal = Normal::new(0.0, std as f64);
        normal.fill_f32(rng, &mut t.data);
        t
    }

    /// Shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of axes).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Rows of a rank-2 tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "rows() requires rank 2, got {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Columns of a rank-2 tensor.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "cols() requires rank 2, got {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// Immutable view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` of a rank-2 tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable row `r` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Element accessor for rank-2 tensors.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element accessor for rank-2 tensors.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.rank(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Transpose of a rank-2 tensor (copies).
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[c, r]);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for i0 in (0..r).step_by(B) {
            for j0 in (0..c).step_by(B) {
                for i in i0..(i0 + B).min(r) {
                    for j in j0..(j0 + B).min(c) {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_stats::rng::Xoshiro256pp;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.len(), 12);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.at(0, 1), 2.0);
        assert_eq!(t.at(1, 0), 3.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 2]);
    }

    #[test]
    fn rows_and_mutation() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0, 3.0]);
        *t.at_mut(0, 2) = 9.0;
        assert_eq!(t.at(0, 2), 9.0);
    }

    #[test]
    fn transpose_correct() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.at(i, j), tt.at(j, i));
            }
        }
    }

    #[test]
    fn transpose_involution_large() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let t = Tensor::randn(&[67, 45], 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn randn_moments() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let t = Tensor::randn(&[100, 100], 0.5, &mut rng);
        let n = t.len() as f32;
        let mean = t.sum() / n;
        let var = t
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(t.norm_sq(), 25.0);
        assert_eq!(t.norm(), 5.0);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
