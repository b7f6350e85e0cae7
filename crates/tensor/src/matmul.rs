//! Register-tiled, row-parallel matrix multiplication kernels.
//!
//! Three variants cover every GEMM the NN library needs without
//! materialising transposes:
//!
//! * [`matmul`]        — `C = A·B`        (forward pass),
//! * [`matmul_a_bt`]   — `C = A·Bᵀ`       (forward with row-major weights,
//!   and backward weight-gradient of the lowered convolution),
//! * [`matmul_at_b`]   — `C = Aᵀ·B`       (backward weight-gradient of a
//!   dense layer, backward data-gradient of the lowered convolution).
//!
//! # Micro-kernels
//!
//! `A·B` and `Aᵀ·B` share one micro-kernel: an `MR×NR` tile of `C` is
//! loaded into fixed-size lane arrays first, every reduction step adds one
//! `a·b` product to each lane, and the tile is stored once at the end —
//! `C` is read and written once per tile instead of once per reduction
//! step, and each loaded row segment of `B` serves `MR` rows of `C`.
//! `A·Bᵀ` computes a `DR×DC` tile of dot products at a time, each in the
//! four-lane accumulator of [`crate::ops::dot`], so a loaded chunk of an
//! `A` row serves `DC` rows of `B` and vice versa. Ragged edges run the
//! same code at a narrower tile. The lane arrays are plain `[f32; N]`
//! the compiler keeps in vector registers on any target: no intrinsics,
//! no `unsafe`, no target-specific build.
//!
//! # Accumulation order
//!
//! The order in which products are added into an output element is a
//! function of the operand shapes and of compile-time constants only:
//! reduction-index ascending onto the value already in `C` for `A·B` and
//! `Aᵀ·B`; for `A·Bᵀ` four interleaved partial sums, index ascending,
//! combined as `((s0+s1)+s2)+s3` plus the ascending tail, then added to
//! `C`. Tile sizes and the row partition below decide which elements are
//! computed together, never how one element is summed — so the results
//! do not depend on them, and the kernels are bit-identical to the scalar
//! per-element loops in `tests/support/reference.rs`.
//!
//! # Parallelism
//!
//! When the current thread carries an intra-task budget
//! ([`fedwcm_parallel::intra_threads`] > 1, scoped by the FL engine's
//! [`fedwcm_parallel::ThreadBudget`]) and the product is large enough to
//! amortise dispatch, the output rows are split into disjoint contiguous
//! chunks computed in parallel. Each output element is produced by exactly
//! one thread in the order above, so the result is **bitwise identical**
//! for every thread count — verified by differential tests.

use crate::tensor::Tensor;
use fedwcm_parallel::{intra_threads, parallel_over_rows};

/// Rows of `C` in one register tile of `A·B` / `Aᵀ·B`.
const MR: usize = 4;
/// Lanes (columns of `C`) in one row of that tile.
const NR: usize = 8;
/// Rows of `A` in one tile of `A·Bᵀ` dot products.
const DR: usize = 2;
/// Rows of `B` in one tile of `A·Bᵀ` dot products.
const DC: usize = 4;

/// Minimum multiply-accumulate count before row-parallel dispatch pays
/// for itself; below this everything runs inline on the caller.
const PAR_FLOP_MIN: usize = 1 << 17;

/// Row-parallel worker count for a kernel with `rows` independent output
/// rows and `flops` multiply-accumulates: the scoped intra-task budget,
/// clamped to the row count, and 1 when the product is too small.
fn gemm_threads(rows: usize, flops: usize) -> usize {
    if flops < PAR_FLOP_MIN {
        return 1;
    }
    intra_threads().min(rows.max(1))
}

/// `C = A·B` for rank-2 tensors. Shapes: `[m,k]·[k,n] -> [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    let mut c = Tensor::zeros(&[m, n]);
    matmul_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    c
}

/// `C += A·B` on raw slices. `a` is `[m,k]`, `b` is `[k,n]`, `c` is `[m,n]`.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), k * n, "B buffer size");
    assert_eq!(c.len(), m * n, "C buffer size");
    let threads = gemm_threads(m, m * k * n);
    if threads <= 1 {
        matmul_rows(a, b, c, 0, m, k, n);
        return;
    }
    parallel_over_rows(c, n, threads, |r0, r1, chunk| {
        matmul_rows(a, b, chunk, r0, r1, k, n)
    });
}

/// Rows `r0..r1` of `C += A·B`; `c_chunk` holds exactly those rows.
/// Every element accumulates k-ascending onto its value in `C`, whatever
/// the tiling, so any row partition reproduces the sequential result bit
/// for bit.
fn matmul_rows(
    a: &[f32],
    b: &[f32],
    c_chunk: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    let a = &a[r0 * k..r1 * k];
    accumulate_rows(c_chunk, r1 - r0, n, b, k, |r, p| a[r * k + p]);
}

/// `C[r, ..] += Σ_p a_at(r, p) · B[p, ..]` for the `rows` rows of `c`
/// (`[rows, n]`), `p` ascending over the `depth` rows of `b`
/// (`[depth, n]`): the shared body of `A·B` and `Aᵀ·B`, which differ
/// only in where `A[r, p]` lives. Column strips outermost, so the strip
/// of `B` stays in cache while the row tiles sweep over it.
fn accumulate_rows(
    c: &mut [f32],
    rows: usize,
    n: usize,
    b: &[f32],
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32 + Copy,
) {
    let mut j = 0;
    while j + NR <= n {
        accumulate_strip::<NR>(c, rows, n, j, b, depth, a_at);
        j += NR;
    }
    if j + NR / 2 <= n {
        accumulate_strip::<{ NR / 2 }>(c, rows, n, j, b, depth, a_at);
        j += NR / 2;
    }
    while j < n {
        accumulate_strip::<1>(c, rows, n, j, b, depth, a_at);
        j += 1;
    }
}

/// Columns `j..j + L` of [`accumulate_rows`], `MR` rows at a time and
/// the ragged bottom in narrower tiles.
fn accumulate_strip<const L: usize>(
    c: &mut [f32],
    rows: usize,
    n: usize,
    j: usize,
    b: &[f32],
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32 + Copy,
) {
    let mut r = 0;
    while r + MR <= rows {
        accumulate_tile::<MR, L>(c, n, r, j, b, depth, a_at);
        r += MR;
    }
    if r + MR / 2 <= rows {
        accumulate_tile::<{ MR / 2 }, L>(c, n, r, j, b, depth, a_at);
        r += MR / 2;
    }
    if r < rows {
        accumulate_tile::<1, L>(c, n, r, j, b, depth, a_at);
    }
}

/// The micro-kernel: the `R×L` tile of `C` at `(r0, j)` is loaded, takes
/// one product per lane per reduction step, and is stored once.
#[inline(always)]
fn accumulate_tile<const R: usize, const L: usize>(
    c: &mut [f32],
    n: usize,
    r0: usize,
    j: usize,
    b: &[f32],
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32,
) {
    let mut acc = [[0.0f32; L]; R];
    for (r, lanes) in acc.iter_mut().enumerate() {
        let at = (r0 + r) * n + j;
        lanes.copy_from_slice(&c[at..at + L]);
    }
    for p in 0..depth {
        let mut bp = [0.0f32; L];
        bp.copy_from_slice(&b[p * n + j..p * n + j + L]);
        for (r, lanes) in acc.iter_mut().enumerate() {
            let arp = a_at(r0 + r, p);
            for (x, bl) in lanes.iter_mut().zip(&bp) {
                *x += arp * bl;
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let at = (r0 + r) * n + j;
        c[at..at + L].copy_from_slice(lanes);
    }
}

/// `C = A·Bᵀ`. Shapes: `[m,k]·([n,k])ᵀ -> [m,n]`.
///
/// Inner loop is a dot product over contiguous rows of both A and B —
/// ideal when B is a row-major weight matrix `[out, in]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_a_bt inner dims differ: {k} vs {k2}");
    let mut c = Tensor::zeros(&[m, n]);
    matmul_a_bt_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    c
}

/// `C += A·Bᵀ` on raw slices. `a` is `[m,k]`, `b` is `[n,k]`, `c` is `[m,n]`.
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), n * k, "B buffer size");
    assert_eq!(c.len(), m * n, "C buffer size");
    let threads = gemm_threads(m, m * k * n);
    if threads <= 1 {
        matmul_a_bt_rows(a, b, c, 0, m, k, n);
        return;
    }
    parallel_over_rows(c, n, threads, |r0, r1, chunk| {
        matmul_a_bt_rows(a, b, chunk, r0, r1, k, n)
    });
}

/// Rows `r0..r1` of `C += A·Bᵀ`; every output is one whole dot product
/// in [`crate::ops::dot`]'s order, so neither the tiling nor the row
/// partition can change a result bit. Tiles of `DC` rows of `B`
/// outermost: they stay in cache while the rows of `A` sweep over them.
fn matmul_a_bt_rows(
    a: &[f32],
    b: &[f32],
    c_chunk: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    let rows = r1 - r0;
    let arow = |r: usize| &a[(r0 + r) * k..(r0 + r + 1) * k];
    let brow = |j: usize| &b[j * k..(j + 1) * k];
    let mut j = 0;
    while j + DC <= n {
        let bs: [&[f32]; DC] = std::array::from_fn(|q| brow(j + q));
        let mut r = 0;
        while r + DR <= rows {
            let tile = &mut c_chunk[r * n + j..];
            add_dot_tile::<DR, DC>(tile, n, std::array::from_fn(|t| arow(r + t)), bs);
            r += DR;
        }
        if r < rows {
            add_dot_tile::<1, DC>(&mut c_chunk[r * n + j..], n, [arow(r)], bs);
        }
        j += DC;
    }
    for j in j..n {
        for r in 0..rows {
            c_chunk[r * n + j] += crate::ops::dot(arow(r), brow(j));
        }
    }
}

/// `C[r, q] += a[r]·b[q]` for an `R×Q` tile of `c` (row stride `n`), each
/// dot product summed exactly as [`crate::ops::dot`] sums it: four
/// interleaved partial sums over the whole four-element chunks, the
/// ascending tail, then `((s0+s1)+s2)+s3 + tail`.
#[inline(always)]
fn add_dot_tile<const R: usize, const Q: usize>(
    c: &mut [f32],
    n: usize,
    a: [&[f32]; R],
    b: [&[f32]; Q],
) {
    let a = a.map(|row| row.as_chunks::<4>());
    let b = b.map(|row| row.as_chunks::<4>());
    let sums = dot_lanes(a.map(|(whole, _)| whole), b.map(|(whole, _)| whole));
    for (r, (sr, (_, atail))) in sums.iter().zip(&a).enumerate() {
        let crow = &mut c[r * n..r * n + Q];
        for ((cij, s), (_, btail)) in crow.iter_mut().zip(sr).zip(&b) {
            let mut tail = 0.0f32;
            for (x, y) in atail.iter().zip(*btail) {
                tail += x * y;
            }
            *cij += s[0] + s[1] + s[2] + s[3] + tail;
        }
    }
}

/// The four interleaved partial sums of each of the `R×Q` dot products
/// over the whole chunks. Out of line on purpose: inlined next to the
/// horizontal `s0+s1+s2+s3` the optimiser vectorises across the `Q`
/// outputs instead of across the four lanes and fills the loop with
/// shuffles.
#[inline(never)]
fn dot_lanes<const R: usize, const Q: usize>(
    a: [&[[f32; 4]]; R],
    b: [&[[f32; 4]]; Q],
) -> [[[f32; 4]; Q]; R] {
    // Equal-length slices, so one loop bound covers every index.
    let chunks = a[0].len();
    let (a, b) = (a.map(|row| &row[..chunks]), b.map(|row| &row[..chunks]));
    let mut acc = [[[0.0f32; 4]; Q]; R];
    for i in 0..chunks {
        let av: [[f32; 4]; R] = std::array::from_fn(|r| a[r][i]);
        let bv: [[f32; 4]; Q] = std::array::from_fn(|q| b[q][i]);
        for (accr, ar) in acc.iter_mut().zip(&av) {
            for (lanes, bq) in accr.iter_mut().zip(&bv) {
                for ((s, x), y) in lanes.iter_mut().zip(ar).zip(bq) {
                    *s += x * y;
                }
            }
        }
    }
    acc
}

/// `C = Aᵀ·B`. Shapes: `([m,k])ᵀ·[m,n] -> [k,n]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (m2, n) = (b.rows(), b.cols());
    assert_eq!(m, m2, "matmul_at_b outer dims differ: {m} vs {m2}");
    let mut c = Tensor::zeros(&[k, n]);
    matmul_at_b_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    c
}

/// `C += Aᵀ·B` on raw slices. `a` is `[m,k]`, `b` is `[m,n]`, `c` is `[k,n]`.
pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), m * n, "B buffer size");
    assert_eq!(c.len(), k * n, "C buffer size");
    let threads = gemm_threads(k, m * k * n);
    if threads <= 1 {
        matmul_at_b_rows(a, b, c, 0..k, m, k, n);
        return;
    }
    parallel_over_rows(c, n, threads, |kk0, kk1, chunk| {
        matmul_at_b_rows(a, b, chunk, kk0..kk1, m, k, n)
    });
}

/// Output rows `kk0..kk1` of `C += Aᵀ·B`: `C[kk, ..] += Σ_i a[i, kk] ·
/// b[i, ..]`, `i` ascending onto the value in `C` for every element,
/// whatever the tiling — bitwise identical results for every row
/// partition.
fn matmul_at_b_rows(
    a: &[f32],
    b: &[f32],
    c_chunk: &mut [f32],
    rows: std::ops::Range<usize>,
    m: usize,
    k: usize,
    n: usize,
) {
    let kk0 = rows.start;
    accumulate_rows(c_chunk, rows.len(), n, b, m, |r, i| a[i * k + kk0 + r]);
}

#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{
        assert_bits_eq, matmul_a_bt_into_ref, matmul_at_b_into_ref, matmul_into_ref, matmul_naive,
    };
    use super::*;
    use fedwcm_parallel::with_intra_threads;
    use fedwcm_stats::rng::{Rng, Xoshiro256pp};

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let a = Tensor::randn(&[7, 7], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[7, 7]);
        for i in 0..7 {
            *eye.at_mut(i, i) = 1.0;
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let mut rng = Xoshiro256pp::seed_from(2);
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (17, 33, 9), (64, 300, 31)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = Tensor::from_vec(matmul_naive(a.as_slice(), b.as_slice(), m, k, n), &[m, n]);
            assert!(fast.max_abs_diff(&slow) < 1e-3, "({m},{k},{n})");
        }
    }

    /// `len` values in `[-1, 1)`, about `zero_share` of them exactly 0.
    fn operand(len: usize, zero_share: f32, rng: &mut Xoshiro256pp) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = 2.0 * rng.next_f32() - 1.0;
                if rng.next_f32() < zero_share {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn tiled_kernels_bitwise_match_scalar_reference() {
        // Every (m, k, n) one ResLite or MLP training step passes to an
        // entry point (flbench/README.md, "The GEMM shapes"): per sample,
        // then as `Conv2d` really issues them at a 40-sample step — nine
        // samples a stem or 4×4 panel and a ragged one of four, 37 a 2×2
        // panel and a ragged one of three — each with its `A·Bᵀ`
        // transpose. Then two grids of ragged edges: rows under and
        // across a row tile, n under, at and one past every strip width,
        // k % 4 != 0 and k past the reference's k-block.
        let mut shapes = vec![
            (12, 27, 64),
            (12, 108, 16),
            (12, 108, 4),
            (40, 10, 12),
            (12, 64, 27),
            (12, 16, 108),
            (12, 4, 108),
            (40, 12, 10),
            (10, 256, 64),
            (10, 10, 256),
            (10, 64, 256),
            (10, 256, 10),
            (12, 27, 576),
            (12, 27, 256),
            (12, 108, 144),
            (12, 108, 64),
            (12, 108, 148),
            (12, 108, 12),
            (12, 576, 27),
            (12, 256, 27),
            (12, 144, 108),
            (12, 64, 108),
            (12, 148, 108),
            (12, 12, 108),
        ];
        for (rows, cols) in [
            (vec![1, 3, 5], vec![1, 7, 9, 31]),
            (vec![5, 7, 8, 11, 13], vec![15, 17, 31, 33, 47, 65]),
        ] {
            for &m in &rows {
                for &n in &cols {
                    for k in [1, 3, 5, 300] {
                        shapes.push((m, k, n));
                    }
                }
            }
        }
        let mut rng = Xoshiro256pp::seed_from(11);
        for (m, k, n) in shapes {
            // ~30 % zeros in A exercise the reference's skip branch; C
            // is preloaded, so the chain starts from a non-zero value.
            let a = operand(m * k, 0.3, &mut rng);
            let what = |name: &str| format!("{name} ({m},{k},{n})");

            let b = operand(k * n, 0.0, &mut rng);
            let c0 = operand(m * n, 0.0, &mut rng);
            let (mut got, mut want) = (c0.clone(), c0);
            matmul_into(&a, &b, &mut got, m, k, n);
            matmul_into_ref(&a, &b, &mut want, m, k, n);
            assert_bits_eq(&got, &want, &what("matmul_into"));

            let b = operand(n * k, 0.0, &mut rng);
            let c0 = operand(m * n, 0.0, &mut rng);
            let (mut got, mut want) = (c0.clone(), c0);
            matmul_a_bt_into(&a, &b, &mut got, m, k, n);
            matmul_a_bt_into_ref(&a, &b, &mut want, m, k, n);
            assert_bits_eq(&got, &want, &what("matmul_a_bt_into"));

            let b = operand(m * n, 0.0, &mut rng);
            let c0 = operand(k * n, 0.0, &mut rng);
            let (mut got, mut want) = (c0.clone(), c0);
            matmul_at_b_into(&a, &b, &mut got, m, k, n);
            matmul_at_b_into_ref(&a, &b, &mut want, m, k, n);
            assert_bits_eq(&got, &want, &what("matmul_at_b_into"));
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let a = Tensor::randn(&[11, 23], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 23], 1.0, &mut rng);
        let via_t = matmul(&a, &b.transpose());
        let direct = matmul_a_bt(&a, &b);
        assert!(direct.max_abs_diff(&via_t) < 1e-4);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = Xoshiro256pp::seed_from(4);
        let a = Tensor::randn(&[19, 7], 1.0, &mut rng);
        let b = Tensor::randn(&[19, 5], 1.0, &mut rng);
        let via_t = matmul(&a.transpose(), &b);
        let direct = matmul_at_b(&a, &b);
        assert!(direct.max_abs_diff(&via_t) < 1e-4);
    }

    #[test]
    fn matmul_associates_with_tolerance() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let a = Tensor::randn(&[8, 9], 0.5, &mut rng);
        let b = Tensor::randn(&[9, 10], 0.5, &mut rng);
        let c = Tensor::randn(&[10, 4], 0.5, &mut rng);
        let l = matmul(&matmul(&a, &b), &c);
        let r = matmul(&a, &matmul(&b, &c));
        assert!(l.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn row_parallel_bitwise_matches_sequential() {
        // Shapes chosen to clear PAR_FLOP_MIN so the parallel path is
        // genuinely active, including ragged row counts (m < threads
        // after clamping, rows not divisible by the chunk count), 5–7
        // output rows so 2/3/5 workers cut through an MR-row tile (m for
        // `A·B` and `A·Bᵀ`, k for `Aᵀ·B`), and the batched ResLite
        // panels `Conv2d` issues at a 40-sample step.
        let mut rng = Xoshiro256pp::seed_from(6);
        for (m, k, n) in [
            (64, 80, 48),
            (3, 512, 96),
            (37, 64, 101),
            (128, 33, 65),
            (5, 512, 96),
            (6, 300, 101),
            (7, 256, 80),
            (512, 5, 96),
            (300, 6, 101),
            (256, 7, 80),
            (12, 27, 2560),
            (12, 108, 640),
            (12, 108, 160),
            (12, 2560, 27),
            (12, 640, 108),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
            let bb = Tensor::randn(&[m, n], 1.0, &mut rng);
            let gold_ab = with_intra_threads(1, || matmul(&a, &b));
            let gold_abt = with_intra_threads(1, || matmul_a_bt(&a, &bt));
            let gold_atb = with_intra_threads(1, || matmul_at_b(&a, &bb));
            for threads in [2, 3, 5, 8, 64] {
                let (p_ab, p_abt, p_atb) = with_intra_threads(threads, || {
                    (matmul(&a, &b), matmul_a_bt(&a, &bt), matmul_at_b(&a, &bb))
                });
                for (gold, par, name) in [
                    (&gold_ab, &p_ab, "matmul"),
                    (&gold_abt, &p_abt, "matmul_a_bt"),
                    (&gold_atb, &p_atb, "matmul_at_b"),
                ] {
                    assert_eq!(gold.shape(), par.shape());
                    for (g, p) in gold.as_slice().iter().zip(par.as_slice()) {
                        assert_eq!(
                            g.to_bits(),
                            p.to_bits(),
                            "{name} ({m},{k},{n}) threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_products_stay_inline() {
        // Below the flop floor the kernels must not dispatch (threads=1
        // path); the result is the same object either way — this guards
        // the threshold arithmetic against over/underflow.
        assert_eq!(gemm_threads(4, PAR_FLOP_MIN - 1), 1);
        assert_eq!(with_intra_threads(8, || gemm_threads(4, PAR_FLOP_MIN)), 4);
        assert_eq!(with_intra_threads(8, || gemm_threads(16, PAR_FLOP_MIN)), 8);
        assert_eq!(gemm_threads(0, usize::MAX), 1);
    }

    #[test]
    #[should_panic]
    fn dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
