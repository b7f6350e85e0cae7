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

/// `dot(x, x)` of every vector in `xs`, bit for bit: each keeps `dot`'s
/// four lanes, its tail and its final sum in `dot`'s order. Four vectors
/// share one pass over their common length, so sixteen partial sums are
/// in flight where `dot` keeps one vector's four waiting on add latency;
/// the vectors' lengths may differ.
pub fn norms_sq(xs: &[&[f32]]) -> Vec<f32> {
    let mut out = Vec::with_capacity(xs.len());
    for group in xs.chunks(4) {
        let mut acc = [[0.0f32; 4]; 4];
        let mut shared = 0;
        if let [a, b, c, d] = group {
            let quads = [a, b, c, d].map(|x| x.as_chunks::<4>().0);
            shared = quads.iter().map(|q| q.len()).min().unwrap_or(0);
            let quads = quads.map(|q| &q[..shared]);
            for i in 0..shared {
                for (acc, q) in acc.iter_mut().zip(&quads) {
                    for l in 0..4 {
                        acc[l] += q[i][l] * q[i][l];
                    }
                }
            }
        }
        for (x, acc) in group.iter().zip(acc) {
            out.push(finish_norm_sq(x, acc, shared));
        }
    }
    out
}

/// `dot(x, x)` from `acc`, its four lanes after the first `from` chunks:
/// the remaining chunks, the tail, the final sum.
fn finish_norm_sq(x: &[f32], mut acc: [f32; 4], from: usize) -> f32 {
    let (quads, rest) = x.as_chunks::<4>();
    for q in &quads[from..] {
        for l in 0..4 {
            acc[l] += q[l] * q[l];
        }
    }
    let mut tail = 0.0f32;
    for v in rest {
        tail += v * v;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `out = Σ_k w_k·x_k` over `terms` terms, `term(k) = (w_k, x_k)`: `out`
/// is zeroed, then the terms are added in order, four to a pass over
/// `out` — four streams in flight, and `out` read and written a quarter
/// as often as by one [`axpy`] a term. Each element's chain
/// (`0 + w_0·x_0 + w_1·x_1 + …`, each product and each sum rounded once)
/// is the per-term `axpy` chain's, bit for bit.
pub fn axpy_sum<'a>(out: &mut [f32], terms: usize, term: impl Fn(usize) -> (f32, &'a [f32])) {
    let n = out.len();
    for k in 0..terms {
        assert_eq!(term(k).1.len(), n, "axpy_sum length mismatch");
    }
    out.fill(0.0);
    let mut k = 0;
    while k + 4 <= terms {
        let [(wa, a), (wb, b), (wc, c), (wd, d)] = [k, k + 1, k + 2, k + 3].map(&term);
        let (a, b, c, d) = (&a[..n], &b[..n], &c[..n], &d[..n]);
        for i in 0..n {
            out[i] = (((out[i] + wa * a[i]) + wb * b[i]) + wc * c[i]) + wd * d[i];
        }
        k += 4;
    }
    for k in k..terms {
        let (w, x) = term(k);
        axpy(w, x, out);
    }
}

/// `y = alpha * x + beta * y` (axpby). The training path's momentum
/// blend is `fedwcm_nn::opt::momentum_blend`, fused with the step.
#[inline]
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
    }
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
    use proptest::prelude::*;

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
    fn scal_scales() {
        let mut x = [2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [1.0, 2.0]);
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

    /// An f32 from 32 random bits: a quarter NaN payloads, signed zeros,
    /// infinities and subnormals; a quarter ordinary magnitudes; the rest
    /// the raw bit pattern.
    fn float(bits: u32) -> f32 {
        const SPECIAL: [u32; 9] = [
            0x7fc0_0000,
            0x7fa0_0001,
            0xffc0_0123,
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x0000_0001,
            0x807f_ffff,
        ];
        match bits & 3 {
            0 => f32::from_bits(SPECIAL[(bits >> 2) as usize % SPECIAL.len()]),
            1 => (bits >> 2) as f32 / (1u32 << 30) as f32 * 8.0 - 4.0,
            _ => f32::from_bits(bits),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Four at a time or not, each grouped norm is `dot(x, x)` bit for
        /// bit (NaN where it is NaN), for 0–9 vectors of mixed lengths.
        #[test]
        fn grouped_norms_are_dot_x_x(
            xs in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..40), 0..10),
        ) {
            let xs: Vec<Vec<f32>> =
                xs.into_iter().map(|x| x.into_iter().map(float).collect()).collect();
            let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let got = norms_sq(&refs);
            prop_assert_eq!(got.len(), xs.len());
            for (x, n) in xs.iter().zip(&got) {
                let want = dot(x, x);
                prop_assert!(
                    n.to_bits() == want.to_bits() || (n.is_nan() && want.is_nan()),
                    "{n} vs {want} over {} values", x.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "axpy_sum length mismatch")]
    fn axpy_sum_rejects_a_longer_term() {
        let mut out = [0.0; 2];
        axpy_sum(&mut out, 1, |_| (1.0, &[1.0; 3][..]));
    }
}
