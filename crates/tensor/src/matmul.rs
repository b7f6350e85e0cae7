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
//! `A·Bᵀ` computes a tile of dot products at a time, each in the
//! four-lane accumulator of [`crate::ops::dot`], so a loaded chunk of an
//! `A` row serves every row of `B` in the tile and vice versa. Since one
//! output's four lanes are one 128-bit block, a wider register holds the
//! lanes of several outputs side by side, and how it is filled is what
//! the levels differ in. Up to AVX2, `DR` rows of `A` by `4·W` rows of `B`:
//! a chunk of `A` broadcast `W` times against the chunks of `W` rows of
//! `B`, each a half-register load. On AVX-512, where that costs a lane
//! insert per further row, one operand is packed instead (`A`, or `B`
//! where `C` has few columns): twelve (or eight) of its rows into a stack
//! block, four rows' chunks to a 512-bit register, so one aligned load
//! fills a register, and each row of the other operand is a 128-bit chunk
//! broadcast from memory to all four blocks (a load, not a shuffle). A
//! tile is then twelve rows by four, and its epilogue transposes the four
//! accumulators of each four rows within their 128-bit blocks, which puts
//! the four lanes of each output into four registers at the same position
//! and four outputs of a row of `C` side by side (or of a column, then
//! transposed once more across blocks when `B` is packed). Ragged
//! edges run the same code at a narrower tile, or compute copies of the
//! last row and store nothing of them. The lane arrays are plain
//! `[f32; N]` the compiler keeps in vector registers: no intrinsics, no
//! `std::arch` type, no target-specific build.
//!
//! # Instruction-set levels
//!
//! Each kernel body is written once and instantiated per level of
//! the private `isa::Isa` — the target's baseline, AVX2, AVX-512 — with the
//! tile that fills that level's registers; the machine's level is
//! detected at run time and nothing selects or reports it. The tile
//! tables, measured at the shapes a training step issues:
//!
//! | level | `A·B`, `Aᵀ·B` (`MR×NR`) | `A·Bᵀ` |
//! |---|---|---|
//! | portable | 4×8: eight 128-bit accumulators | 2×4 (`DR × 4·W`, `W` = 1) |
//! | AVX2 | 6×16: twelve 256-bit accumulators | 2×8 (`W` = 2) |
//! | AVX-512 | 6×32: twelve 512-bit accumulators | 12×4 packed: twelve 512-bit accumulators; the AVX2 instance below 16 rows and columns |
//!
//! A body is `#[inline(always)]` from its entry down to the innermost
//! loop, closures included, so that it is compiled inside the level's
//! `#[target_feature]` wrapper; the crate's only two `unsafe` blocks are
//! the calls of those wrappers in `isa.rs`, each sound because the
//! feature was detected first.
//!
//! # Accumulation order
//!
//! The order in which products are added into an output element is a
//! function of the operand shapes and of compile-time constants only:
//! reduction-index ascending onto the value already in `C` for `A·B` and
//! `Aᵀ·B`; for `A·Bᵀ` four interleaved partial sums, index ascending,
//! combined as `((s0+s1)+s2)+s3` plus the ascending tail, then added to
//! `C`. Tile sizes, the vector width and the row partition below decide
//! which elements are computed together, never how one element is summed:
//! every product is rounded and every sum is rounded, at every level —
//! nothing here is, or may become, a fused multiply-add (no `mul_add`, no
//! fast-math flag; a wider level enables the FMA *instructions*, and the
//! compiler may not contract `a * b + c` into one on its own). So the
//! results depend on none of them, and every instance is bit-identical to
//! the scalar per-element loops in `tests/support/reference.rs` — the
//! tests run each kernel at every level the host offers against them.
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

use crate::isa::Isa;
use crate::tensor::Tensor;
use fedwcm_parallel::{intra_threads, parallel_over_rows};

/// Rows of `A` in one tile of `A·Bᵀ` dot products, at every level.
const DR: usize = 2;

/// Minimum multiply-accumulate count before row-parallel dispatch pays
/// for itself; below this everything runs inline on the caller. A
/// dispatch is one scoped thread spawned and joined (≈ 90 µs on the
/// 2-core reference host, and the helper's half runs ≈ 1.3× slow on a
/// core that was idle), so the floor is where `gemm_par/into_2t` stops
/// losing to `into_1t` in `crates/nn/benches/kernels.rs`: always behind at
/// `1 << 22`, even from 7.9 M to `1 << 24`, ahead from `1 << 25`
/// (`results/par_flop_min.txt`). The unit tests keep the old floor so
/// their small shapes still cut through the row-parallel path.
const PAR_FLOP_MIN: usize = if cfg!(test) { 1 << 17 } else { 1 << 23 };

/// Row-parallel worker count for a kernel with `rows` independent output
/// rows and `flops` multiply-accumulates: the scoped intra-task budget,
/// clamped to the row count, and 1 when the product is too small.
fn gemm_threads(rows: usize, flops: usize) -> usize {
    if flops < PAR_FLOP_MIN {
        return 1;
    }
    intra_threads().min(rows.max(1))
}

/// `rows(r0, r1, chunk)` over all `total` rows of `c` (`n` floats each,
/// `chunk` holding exactly rows `r0..r1`): one call on the caller, or
/// disjoint contiguous chunks in parallel when [`gemm_threads`] grants
/// the product of `flops` multiply-accumulates more than one worker.
fn over_row_chunks(
    c: &mut [f32],
    n: usize,
    total: usize,
    flops: usize,
    rows: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let threads = gemm_threads(total, flops);
    if threads <= 1 {
        rows(0, total, c);
    } else {
        parallel_over_rows(c, n, threads, rows);
    }
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
    matmul_into_at(Isa::detect(), a, b, c, m, k, n);
}

/// [`matmul_into`] on the kernel instance of one level.
fn matmul_into_at(isa: Isa, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), k * n, "B buffer size");
    assert_eq!(c.len(), m * n, "C buffer size");
    over_row_chunks(c, n, m, m * k * n, |r0, r1, chunk| {
        let a = &a[r0 * k..r1 * k];
        accumulate(
            isa,
            chunk,
            r1 - r0,
            n,
            b,
            k,
            #[inline(always)]
            move |r, p| a[r * k + p],
        );
    });
}

/// `C[r, ..] += Σ_p a_at(r, p) · B[p, ..]` for the `rows` rows of `c`
/// (`[rows, n]`), `p` ascending over the `depth` rows of `b`
/// (`[depth, n]`): the shared body of `A·B` and `Aᵀ·B`, which differ
/// only in where `A[r, p]` lives. Every element accumulates p-ascending
/// onto its value in `C`, whatever the tiling, so any level and any row
/// partition reproduce the sequential result bit for bit.
///
/// This is the tile table: the register tile each level's instance of
/// [`accumulate_rows`] is compiled with. Twelve accumulators of the
/// level's vector width, two registers of `B` and one broadcast of `A`
/// fit the sixteen `ymm`; 12 = 2 × 6 and 108 = 18 × 6, so the ResLite
/// panels have no ragged rows. The portable 4×8 tile is eight 128-bit
/// accumulators — at a wider level it would be four, and no faster.
fn accumulate(
    isa: Isa,
    c: &mut [f32],
    rows: usize,
    n: usize,
    b: &[f32],
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32 + Copy,
) {
    match isa {
        Isa::Portable => isa.run(
            #[inline(always)]
            move || accumulate_rows::<4, 8>(c, rows, n, b, depth, a_at),
        ),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => isa.run(
            #[inline(always)]
            move || accumulate_rows::<6, 16>(c, rows, n, b, depth, a_at),
        ),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) => isa.run(
            #[inline(always)]
            move || accumulate_rows::<6, 32>(c, rows, n, b, depth, a_at),
        ),
    }
}

/// [`accumulate`] in `MR×NR` tiles. Column strips outermost, so the
/// strip of `B` stays in cache while the row tiles sweep over it; the
/// ragged right edge runs the same code in narrower strips, a fixed
/// ladder because a const parameter admits no arithmetic (`NR / 2`).
#[inline(always)]
fn accumulate_rows<const MR: usize, const NR: usize>(
    c: &mut [f32],
    rows: usize,
    n: usize,
    b: &[f32],
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32 + Copy,
) {
    let mut j = 0;
    while j + NR <= n {
        accumulate_strip::<MR, NR>(c, rows, n, j, b, depth, a_at);
        j += NR;
    }
    if NR > 16 && j + 16 <= n {
        accumulate_strip::<MR, 16>(c, rows, n, j, b, depth, a_at);
        j += 16;
    }
    if NR > 8 && j + 8 <= n {
        accumulate_strip::<MR, 8>(c, rows, n, j, b, depth, a_at);
        j += 8;
    }
    if NR > 4 && j + 4 <= n {
        accumulate_strip::<MR, 4>(c, rows, n, j, b, depth, a_at);
        j += 4;
    }
    while j < n {
        accumulate_strip::<MR, 1>(c, rows, n, j, b, depth, a_at);
        j += 1;
    }
}

/// Columns `j..j + L` of [`accumulate_rows`], `MR` rows at a time and
/// the ragged bottom in narrower tiles (the same fixed ladder).
#[inline(always)]
fn accumulate_strip<const MR: usize, const L: usize>(
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
    if MR > 4 && r + 4 <= rows {
        accumulate_tile::<4, L>(c, n, r, j, b, depth, a_at);
        r += 4;
    }
    if MR > 2 && r + 2 <= rows {
        accumulate_tile::<2, L>(c, n, r, j, b, depth, a_at);
        r += 2;
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
/// Each output is the dot product of a row of `A` and a row of `B`, in
/// [`crate::ops::dot`]'s order — `B` is a row-major weight matrix
/// `[out, in]` as a dense layer stores it. See the module docs for how the
/// kernels tile it.
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
    matmul_a_bt_into_at(Isa::detect(), a, b, c, m, k, n);
}

/// [`matmul_a_bt_into`] on the kernel instance of one level.
fn matmul_a_bt_into_at(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), n * k, "B buffer size");
    assert_eq!(c.len(), m * n, "C buffer size");
    over_row_chunks(c, n, m, m * k * n, |r0, r1, chunk| {
        dot_rows(isa, &a[r0 * k..r1 * k], b, chunk, r1 - r0, k, n);
    });
}

/// `C += A·Bᵀ` for the `rows` rows of `C` in `c`, `a` holding the matching
/// rows of `A`. Every output is one whole dot product in [`crate::ops::dot`]'s
/// order, so neither the tiling, the level nor the row partition can
/// change a result bit.
///
/// This is the tile table. `dot`'s four interleaved partial sums *are*
/// its definition, so a wider register cannot hold more lanes of one
/// output; it holds the four lanes of several outputs side by side
/// instead. Up to AVX2 that is `W` rows of `B` per register (see
/// [`dot_lanes`]); `W` = 2 is as wide as it pays, since four rows of `B` to
/// a 512-bit register cost three lane inserts per load and measured slower.
/// AVX-512 packs one operand instead ([`dot_rows_packed`]), while a block
/// of eight of its rows fits the stack block: `A` from 16 columns, else
/// `B` from 16 rows (the few classes of a classifier against an
/// evaluation batch), since packing costs a copy of the packed operand
/// for every pass of the other. With both under 16 (the MLP's 10×10
/// output layer at its step batch) packing either is a tenth of the work
/// or more and the AVX2 instance runs. The packed body compiled for AVX2
/// or portable width (twelve accumulators of two or four registers each)
/// measured 1.04–1.13× and 2.2–2.6× slower than those levels' own
/// instances, so they keep them.
fn dot_rows(isa: Isa, a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    match isa {
        Isa::Portable => dot_rows_tiled::<1>(isa, a, b, c, rows, k, n),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => dot_rows_tiled::<2>(isa, a, b, c, rows, k, n),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) if n >= 16 && packs(k) => dot_rows_packed::<false>(isa, a, b, c, rows, k, n),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) if rows >= 16 && packs(k) => {
            dot_rows_packed::<true>(isa, b, a, c, n, k, rows)
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) => dot_rows_tiled::<2>(isa.narrower(), a, b, c, rows, k, n),
    }
}

/// 512-bit registers in the stack block [`dot_rows_packed`] packs rows of
/// `A` into. A block of `4·G` rows takes `G·(k/4 + 1)`: twelve rows fit up
/// to `k` = 383, eight up to `k` = 579. The block is zeroed on every call
/// (≈ 75 ns at these 18.5 KB), so it is no larger than the reductions a
/// step issues need: 64 and 256 for the MLP, up to 576 for ResLite's
/// weight gradient.
const PACK_REGS: usize = 290;

/// The stack block, on a cache line: a register loaded from it never
/// straddles two.
#[repr(align(64))]
struct Packed([[f32; 16]; PACK_REGS]);

/// Whether a row of `k` floats fits a block of eight packed rows.
fn packs(k: usize) -> bool {
    k >= 4 && 2 * (k / 4 + 1) <= PACK_REGS
}

/// [`dot_rows`] with `p`'s `np` rows packed, `t`'s `nt` rows broadcast:
/// `p` is `A` and `c` is `[np, nt]`, or with `BT` `p` is `B` and `c` is
/// `[nt, np]`. Blocks of twelve packed rows, or eight where twelve do not
/// fit the stack block or would leave a lone or ragged group, so that a
/// row count divisible by four pads no row.
fn dot_rows_packed<const BT: bool>(
    isa: Isa,
    p: &[f32],
    t: &[f32],
    c: &mut [f32],
    np: usize,
    k: usize,
    nt: usize,
) {
    let twelve = 3 * (k / 4 + 1) <= PACK_REGS;
    let ldc = if BT { np } else { nt };
    isa.run(
        #[inline(always)]
        move || {
            let mut buf = Packed([[0.0f32; 16]; PACK_REGS]);
            let mut r0 = 0;
            while r0 < np {
                let three = twelve && !matches!((np - r0).div_ceil(4), 1 | 2 | 4);
                let r1 = np.min(r0 + if three { 12 } else { 8 });
                let p = &p[r0 * k..r1 * k];
                let c = if BT {
                    &mut c[r0..]
                } else {
                    &mut c[r0 * ldc..r1 * ldc]
                };
                if three {
                    packed_block::<3, BT>(&mut buf.0, p, r1 - r0, t, k, c, ldc);
                } else {
                    packed_block::<2, BT>(&mut buf.0, p, r1 - r0, t, k, c, ldc);
                }
                r0 = r1;
            }
        },
    );
}

/// `rows` ≤ `4·G` rows of `p` packed into `buf`, then every tile of four
/// rows of `t` against them. Register `g` of packed entry `i` holds chunk
/// `i` of rows `4g..4g + 4`, a row to a 128-bit block; entry `k/4` holds
/// each row's tail, zero-padded. Rows past the last are packed as copies
/// of it: computed, never stored. `c` starts at the block's first output,
/// rows `ldc` apart.
#[inline(always)]
fn packed_block<const G: usize, const BT: bool>(
    buf: &mut [[f32; 16]],
    p: &[f32],
    rows: usize,
    t: &[f32],
    k: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let chunks = k / 4;
    let blocks = &mut buf.as_chunks_mut::<G>().0[..=chunks];
    for g in 0..G {
        let row = |q: usize| {
            let r = (4 * g + q).min(rows - 1);
            p[r * k..(r + 1) * k].as_chunks::<4>()
        };
        let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
        let body = blocks.iter_mut().zip(r0.0).zip(r1.0).zip(r2.0).zip(r3.0);
        for ((((e, x0), x1), x2), x3) in body {
            let e = e[g].as_chunks_mut::<4>().0;
            e[0] = *x0;
            e[1] = *x1;
            e[2] = *x2;
            e[3] = *x3;
        }
        let tail = blocks[chunks][g].as_chunks_mut::<4>().0;
        for (e, r) in tail.iter_mut().zip([r0.1, r1.1, r2.1, r3.1]) {
            for (i, d) in e.iter_mut().enumerate() {
                *d = r.get(i).copied().unwrap_or(0.0);
            }
        }
    }
    let blocks = &*blocks;
    for j in (0..t.len() / k).step_by(4) {
        let c = if BT { &mut c[j * ldc..] } else { &mut c[j..] };
        packed_tile::<G, BT>(blocks, rows, t, k, j, c, ldc);
    }
}

/// `s += a·b` lane by lane, `b` one chunk repeated in every block.
#[inline(always)]
fn madd(s: &mut [f32; 16], a: &[f32; 16], b: &[f32; 4]) {
    let bv = [*b; 4];
    for ((s, y), z) in s.iter_mut().zip(a).zip(bv.as_flattened()) {
        *s += y * z;
    }
}

/// Lane `l` of block `q` of register `x` to lane `x` of block `q` of
/// register `l`: the four-by-four transpose within each 128-bit block,
/// as interleaves of pairs of registers.
#[inline(always)]
fn transpose(v: &[[f32; 16]; 4]) -> [[f32; 16]; 4] {
    // `[a_h, b_h, a_h+1, b_h+1]` and `[a_h, a_h+1, b_h, b_h+1]` per block.
    let lanes = |h: usize, a: &[f32; 16], b: &[f32; 16]| {
        let mut t = [0.0f32; 16];
        for (i, t) in t.iter_mut().enumerate() {
            let s = i / 4 * 4 + h + i % 4 / 2;
            *t = if i % 2 == 0 { a[s] } else { b[s] };
        }
        t
    };
    let pairs = |h: usize, a: &[f32; 16], b: &[f32; 16]| {
        let mut t = [0.0f32; 16];
        for (i, t) in t.iter_mut().enumerate() {
            let s = i / 4 * 4 + h + i % 2;
            *t = if i % 4 < 2 { a[s] } else { b[s] };
        }
        t
    };
    let (t0, t1) = (lanes(0, &v[0], &v[1]), lanes(2, &v[0], &v[1]));
    let (t2, t3) = (lanes(0, &v[2], &v[3]), lanes(2, &v[2], &v[3]));
    [
        pairs(0, &t0, &t2),
        pairs(2, &t0, &t2),
        pairs(0, &t1, &t3),
        pairs(2, &t1, &t3),
    ]
}

/// The dot products of packed row `4g + q` and row `j + x` of `t`, added
/// to `c[(4g + q)·ldc + x]` (or with `BT` to `c[x·ldc + 4g + q]`), for the
/// `rows` packed rows and the rows of `t` that exist (a ragged last tile
/// computes copies of its last row of `t`).
#[inline(always)]
fn packed_tile<const G: usize, const BT: bool>(
    blocks: &[[[f32; 16]; G]],
    rows: usize,
    t: &[f32],
    k: usize,
    j: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let chunks = blocks.len() - 1;
    let cols = (t.len() / k - j).min(4);
    let row = |x: usize| {
        let r = j + x.min(cols - 1);
        t[r * k..(r + 1) * k].as_chunks::<4>()
    };
    let (b0, b1, b2, b3) = (row(0), row(1), row(2), row(3));
    let mut acc = [[[0.0f32; 16]; 4]; G];
    let body = blocks.iter().zip(b0.0).zip(b1.0).zip(b2.0).zip(b3.0);
    for ((((av, x0), x1), x2), x3) in body {
        for (s, a) in acc.iter_mut().zip(av) {
            madd(&mut s[0], a, x0);
            madd(&mut s[1], a, x1);
            madd(&mut s[2], a, x2);
            madd(&mut s[3], a, x3);
        }
    }
    let mut btail = [[0.0f32; 4]; 4];
    for (tail, r) in btail.iter_mut().zip([b0.1, b1.1, b2.1, b3.1]) {
        for (d, y) in tail.iter_mut().zip(r) {
            *d = *y;
        }
    }
    // Per four rows: block `q` of `sums` is row `4g + q`, its lanes the
    // four columns, each `((s0+s1)+s2)+s3` of its lanes plus its tail —
    // `+0.0` for whole chunks, added all the same, as `dot` adds it.
    for (g, (s, at)) in acc.iter().zip(&blocks[chunks]).enumerate() {
        let live = rows.saturating_sub(4 * g).min(4);
        if live == 0 {
            break;
        }
        let l = transpose(s);
        let mut sums = [0.0f32; 16];
        for (i, v) in sums.iter_mut().enumerate() {
            *v = l[0][i] + l[1][i] + l[2][i] + l[3][i];
        }
        let mut tails = [0.0f32; 16];
        if !k.is_multiple_of(4) {
            let mut prods = [[0.0f32; 16]; 4];
            for (p, bt) in prods.iter_mut().zip(&btail) {
                madd(p, at, bt);
            }
            let l = transpose(&prods);
            for (i, v) in tails.iter_mut().enumerate() {
                let mut sum = 0.0f32;
                sum += l[0][i];
                sum += l[1][i];
                sum += l[2][i];
                sum += l[3][i];
                *v = sum;
            }
        }
        for (v, tail) in sums.iter_mut().zip(tails) {
            *v += tail;
        }
        if BT {
            // Block `x` of the transposed sums holds row `j + x` of `C`.
            let mut tr = [0.0f32; 16];
            for (i, v) in tr.iter_mut().enumerate() {
                *v = sums[i % 4 * 4 + i / 4];
            }
            for (x, sx) in tr.as_chunks::<4>().0.iter().enumerate().take(cols) {
                let at = x * ldc + 4 * g;
                for (d, v) in c[at..at + live].iter_mut().zip(sx) {
                    *d += v;
                }
            }
        } else {
            for (q, sq) in sums.as_chunks::<4>().0.iter().enumerate().take(live) {
                let at = (4 * g + q) * ldc;
                for (d, v) in c[at..at + cols].iter_mut().zip(sq) {
                    *d += v;
                }
            }
        }
    }
}

/// [`dot_rows`] in tiles of `DR` rows of `A` by `4·W` rows of `B`, the
/// ragged right edge in tiles of `2·W`, `W` and one, the last row of an
/// odd count in tiles one row high. Tiles of `B` rows outermost: they
/// stay in cache while the rows of `A` sweep over them.
fn dot_rows_tiled<const W: usize>(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    let arow = |r: usize| &a[r * k..(r + 1) * k];
    let brow = |j: usize| &b[j * k..(j + 1) * k];
    let mut j = 0;
    while j + 4 * W <= n {
        dot_strip::<4, W>(isa, c, n, j, rows, arow, brow);
        j += 4 * W;
    }
    if j + 2 * W <= n {
        dot_strip::<2, W>(isa, c, n, j, rows, arow, brow);
        j += 2 * W;
    }
    if j + W <= n {
        dot_strip::<1, W>(isa, c, n, j, rows, arow, brow);
        j += W;
    }
    while j < n {
        dot_strip::<1, 1>(isa, c, n, j, rows, arow, brow);
        j += 1;
    }
}

/// Columns `j..j + G·W` of [`dot_rows_tiled`]: `G` groups of `W` rows of
/// `B` against every row of `A`.
fn dot_strip<'a, const G: usize, const W: usize>(
    isa: Isa,
    c: &mut [f32],
    n: usize,
    j: usize,
    rows: usize,
    arow: impl Fn(usize) -> &'a [f32],
    brow: impl Fn(usize) -> &'a [f32],
) {
    let bs: [[&[f32]; W]; G] =
        std::array::from_fn(|g| std::array::from_fn(|w| brow(j + g * W + w)));
    let mut r = 0;
    while r + DR <= rows {
        let tile = &mut c[r * n + j..];
        add_dot_tile::<DR, G, W>(isa, tile, n, std::array::from_fn(|t| arow(r + t)), bs);
        r += DR;
    }
    if r < rows {
        add_dot_tile::<1, G, W>(isa, &mut c[r * n + j..], n, [arow(r)], bs);
    }
}

/// `C[r, g·W + w] += a[r]·b[g][w]` for an `R × G·W` tile of `c` (row
/// stride `n`), each dot product summed exactly as [`crate::ops::dot`]
/// sums it: four interleaved partial sums over the whole four-element
/// chunks, the ascending tail, then `((s0+s1)+s2)+s3 + tail`.
#[inline(always)]
fn add_dot_tile<const R: usize, const G: usize, const W: usize>(
    isa: Isa,
    c: &mut [f32],
    n: usize,
    a: [&[f32]; R],
    b: [[&[f32]; W]; G],
) {
    // `Isa::run` is never inlined into its caller, and that matters
    // here: next to the horizontal `s0+s1+s2+s3` below the optimiser
    // vectorises `dot_lanes` across the outputs instead of across the
    // four lanes and fills its loop with shuffles.
    let sums = isa.run(
        #[inline(always)]
        move || dot_lanes(a, b),
    );
    for (r, (sr, ar)) in sums.iter().zip(a).enumerate() {
        let (_, atail) = ar.as_chunks::<4>();
        let crow = &mut c[r * n..r * n + G * W];
        let outputs = sr.as_flattened().iter().zip(b.as_flattened());
        for (cij, (s, bq)) in crow.iter_mut().zip(outputs) {
            let (_, btail) = bq.as_chunks::<4>();
            let mut tail = 0.0f32;
            for (x, y) in atail.iter().zip(btail) {
                tail += x * y;
            }
            *cij += s[0] + s[1] + s[2] + s[3] + tail;
        }
    }
}

/// The four interleaved partial sums of each of the `R × G·W` dot
/// products over the whole chunks of the rows, added into `acc` (zeroed
/// by the caller). One accumulator is `[[f32; 4]; W]`: the lanes of `W`
/// rows of `B` side by side, multiplied by the chunk of `A` repeated `W`
/// times — at `W` = 2 a 256-bit register per pair of outputs, one
/// broadcast load per row of `A` and one two-halves load per pair of
/// rows of `B`.
#[inline(always)]
fn dot_lanes<const R: usize, const G: usize, const W: usize>(
    a: [&[f32]; R],
    b: [[&[f32]; W]; G],
) -> [[[[f32; 4]; W]; G]; R] {
    // Equal-length rows, cut to one length here so that one loop bound
    // covers every index below. Plain loops, not nested `map`s: those
    // stay calls, and hide the lengths from the optimiser.
    let chunks = a[0].len() / 4;
    let a = a.map(|row| &row.as_chunks::<4>().0[..chunks]);
    let mut bs: [[&[[f32; 4]]; W]; G] = [[&[]; W]; G];
    for (dst, row) in bs.as_flattened_mut().iter_mut().zip(b.as_flattened()) {
        *dst = &row.as_chunks::<4>().0[..chunks];
    }
    let mut sums = [[[[0.0f32; 4]; W]; G]; R];
    for i in 0..chunks {
        for (sr, ar) in sums.iter_mut().zip(&a) {
            let ar = [ar[i]; W];
            for (sg, bg) in sr.iter_mut().zip(&bs) {
                let mut bv = [[0.0f32; 4]; W];
                for (v, row) in bv.iter_mut().zip(bg) {
                    *v = row[i];
                }
                let lanes = sg.as_flattened_mut().iter_mut();
                for ((s, x), y) in lanes.zip(ar.as_flattened()).zip(bv.as_flattened()) {
                    *s += x * y;
                }
            }
        }
    }
    sums
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
    matmul_at_b_into_at(Isa::detect(), a, b, c, m, k, n);
}

/// [`matmul_at_b_into`] on the kernel instance of one level.
fn matmul_at_b_into_at(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), m * n, "B buffer size");
    assert_eq!(c.len(), k * n, "C buffer size");
    // Output rows `kk0..kk1`: `C[kk, ..] += Σ_i a[i, kk] · b[i, ..]`.
    over_row_chunks(c, n, k, m * k * n, |kk0, kk1, chunk| {
        accumulate(
            isa,
            chunk,
            kk1 - kk0,
            n,
            b,
            m,
            #[inline(always)]
            move |r, i| a[i * k + kk0 + r],
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{
        assert_bits_eq, matmul_a_bt_into_ref, matmul_at_b_into_ref, matmul_into_ref, matmul_naive,
    };
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
        // Every level this host offers, on every (m, k, n) one ResLite or
        // MLP training step passes to an entry point
        // (flbench/README.md, "The GEMM shapes"): per sample,
        // then as `Conv2d` really issues them at a 40-sample step — nine
        // samples a stem or 4×4 panel and a ragged one of four, 37 a 2×2
        // panel and a ragged one of three — each with its `A·Bᵀ`
        // transpose. Then the shapes evaluation issues: the 600-sample
        // test set as 256-row batches and a ragged one of 88, through
        // the MLP's two dense layers and ResLite's classifier. Then three
        // grids of ragged edges: rows under and across a row tile, n
        // under, at and one past every strip width, k % 4 != 0 and k past
        // the reference's k-block; rows either side of every multiple of
        // four up to 48 on either operand, with k % 4 in {0, 1, 3}; and
        // reductions longer than any small fixed block.
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
            (256, 64, 256),
            (88, 64, 256),
            (256, 256, 10),
            (88, 256, 10),
            (256, 12, 10),
            (88, 12, 10),
            (12, 1001, 27),
            (30, 2049, 7),
        ];
        for m in [14, 15, 16, 17, 23, 24, 25, 47, 48, 49] {
            for k in [12, 13, 15, 64, 65, 67] {
                for n in [3, 10, 31, 64] {
                    shapes.push((m, k, n));
                    shapes.push((n, k, m));
                }
            }
        }
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
            let (b, bt, bb) = (
                operand(k * n, 0.0, &mut rng),
                operand(n * k, 0.0, &mut rng),
                operand(m * n, 0.0, &mut rng),
            );
            let (c0, ct0) = (operand(m * n, 0.0, &mut rng), operand(k * n, 0.0, &mut rng));
            let (mut want_ab, mut want_abt, mut want_atb) = (c0.clone(), c0.clone(), ct0.clone());
            matmul_into_ref(&a, &b, &mut want_ab, m, k, n);
            matmul_a_bt_into_ref(&a, &bt, &mut want_abt, m, k, n);
            matmul_at_b_into_ref(&a, &bb, &mut want_atb, m, k, n);
            for isa in Isa::available() {
                let what = |name: &str| format!("{name} ({m},{k},{n}) {isa:?}");
                let mut got = c0.clone();
                matmul_into_at(isa, &a, &b, &mut got, m, k, n);
                assert_bits_eq(&got, &want_ab, &what("matmul_into"));
                let mut got = c0.clone();
                matmul_a_bt_into_at(isa, &a, &bt, &mut got, m, k, n);
                assert_bits_eq(&got, &want_abt, &what("matmul_a_bt_into"));
                let mut got = ct0.clone();
                matmul_at_b_into_at(isa, &a, &bb, &mut got, m, k, n);
                assert_bits_eq(&got, &want_atb, &what("matmul_at_b_into"));
            }
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
            let a = operand(m * k, 0.0, &mut rng);
            let (b, bt, bb) = (
                operand(k * n, 0.0, &mut rng),
                operand(n * k, 0.0, &mut rng),
                operand(m * n, 0.0, &mut rng),
            );
            for isa in Isa::available() {
                let all_three = || {
                    let (mut ab, mut abt, mut atb) =
                        (vec![0.0; m * n], vec![0.0; m * n], vec![0.0; k * n]);
                    matmul_into_at(isa, &a, &b, &mut ab, m, k, n);
                    matmul_a_bt_into_at(isa, &a, &bt, &mut abt, m, k, n);
                    matmul_at_b_into_at(isa, &a, &bb, &mut atb, m, k, n);
                    [("matmul", ab), ("matmul_a_bt", abt), ("matmul_at_b", atb)]
                };
                let gold = with_intra_threads(1, all_three);
                for threads in [2, 3, 5, 8, 64] {
                    let par = with_intra_threads(threads, all_three);
                    for ((name, g), (_, p)) in gold.iter().zip(&par) {
                        let what = format!("{name} ({m},{k},{n}) {isa:?} threads={threads}");
                        assert_bits_eq(p, g, &what);
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
