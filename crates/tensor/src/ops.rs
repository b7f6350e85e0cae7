//! BLAS-1 style slice kernels.
//!
//! These operate on plain `&[f32]` / `&mut [f32]` so the NN parameter arena
//! and the FL aggregation code can use them directly on flat parameter
//! vectors. Federated aggregation (`Δ_{r+1} = Σ_k w_k Δ_k`, server steps,
//! momentum mixing) is built entirely from these kernels.

/// `y += alpha * x` (axpy).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` (scal).
#[inline]
pub fn scal(alpha: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Dot product.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    // Four interleaved partial sums break the serial dependency chain, so
    // four multiply-then-add pairs are in flight at once. Each product is
    // rounded, then each sum: never a fused multiply-add — this order and
    // these roundings are the definition `matmul`'s `A·Bᵀ` tiles reproduce
    // bit for bit at every instruction-set level.
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared L2 norm.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// L2 norm.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    norm_sq(x).sqrt()
}

/// `out = a + b` elementwise.
#[inline]
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() == b.len() && b.len() == out.len(),
        "add length mismatch"
    );
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `y = alpha * x + beta * y` (axpby) — the momentum blend
/// `v = α·g + (1−α)·Δ` from Eq. (2)/(6) in one pass.
#[inline]
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// Copy `src` into `dst`.
#[inline]
pub fn copy(src: &[f32], dst: &mut [f32]) {
    dst.copy_from_slice(src);
}

/// Set all elements to zero.
#[inline]
pub fn zero(x: &mut [f32]) {
    x.fill(0.0);
}

/// Clip the L2 norm of `x` to at most `max_norm`; returns the pre-clip
/// norm. Used by FedGrab's gradient balancer and available for stability.
pub fn clip_norm(x: &mut [f32], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let n = norm(x);
    if n > max_norm {
        scal(max_norm / n, x);
    }
    n
}

/// Cosine similarity of two vectors; 0 when either has zero norm.
pub fn cosine(x: &[f32], y: &[f32]) -> f32 {
    let nx = norm(x);
    let ny = norm(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    dot(x, y) / (nx * ny)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_matches_momentum_formula() {
        let g = [1.0, -2.0];
        let mut v = [4.0, 8.0]; // holds Δ on entry
        let alpha = 0.1;
        axpby(alpha, &g, 1.0 - alpha, &mut v);
        assert!((v[0] - (0.1 * 1.0 + 0.9 * 4.0)).abs() < 1e-6);
        assert!((v[1] - (0.1 * -2.0 + 0.9 * 8.0)).abs() < 1e-6);
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5 - 1.0).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32) * -0.25 + 2.0).collect();
            let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - naive).abs() < 1e-3, "n={n}");
        }
    }

    #[test]
    fn scal_and_zero() {
        let mut x = [2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [1.0, 2.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn add_elementwise() {
        let mut s = [0.0; 2];
        add(&[3.0, 4.0], &[2.0, 3.0], &mut s);
        assert_eq!(s, [5.0, 7.0]);
    }

    #[test]
    fn clip_norm_clips_only_when_needed() {
        let mut x = [3.0, 4.0];
        let pre = clip_norm(&mut x, 10.0);
        assert_eq!(pre, 5.0);
        assert_eq!(x, [3.0, 4.0]);
        let pre = clip_norm(&mut x, 1.0);
        assert_eq!(pre, 5.0);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_cases() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn axpy_length_mismatch_panics() {
        let mut y = [0.0; 2];
        axpy(1.0, &[1.0; 3], &mut y);
    }
}
