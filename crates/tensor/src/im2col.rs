//! im2col / col2im lowering for convolutions.
//!
//! A convolution over an input `[c_in, h, w]` with `kh×kw` kernels, stride
//! `s` and zero padding `p` is lowered to a matrix multiply:
//! the patch matrix has shape `[c_in*kh*kw, oh*ow]`; multiplying the weight
//! matrix `[c_out, c_in*kh*kw]` by it yields the output `[c_out, oh*ow]`.
//! `col2im` scatters gradients back — the exact adjoint of `im2col`.
//!
//! **Definition and map.** The free [`im2col`]/[`col2im`] are the
//! definition: plain loops over one image that redo the stride/pad/kernel
//! arithmetic for every element and keep nothing; the tests hold
//! everything else against them. A layer that lowers the same geometry
//! every step uses a [`PatchMap`]: the arithmetic runs once, into a table
//! with one entry per patch-matrix element, and lowering is a gather
//! through the table in the definition's row-major order. The map works
//! on a patch *panel* `[c_in*kh*kw, nb*oh*ow]` that places several images
//! side by side, image `s` at column offset `s*oh*ow`, so a layer runs
//! one GEMM per panel instead of one per image.
//!
//! The gather is one loop, instantiated per instruction-set level like
//! the GEMM kernels ([`mod@crate::matmul`], "Instruction-set levels"): compiled
//! for AVX-512 it becomes masked vector gathers, and [`PatchMap::lower`]
//! runs that instance where the machine has it and a patch row fills a
//! register; copying floats, no level can change a bit.
//!
//! **The adjoint, without the panel.** The input gradient the lowering
//! defines is `Wᵀ·go` into a zeroed patch-gradient panel, then [`col2im`]
//! onto zeros. Its indices collide — that is what makes it an adjoint —
//! but not within one patch row: a kernel tap reaches each input position
//! at most once. So the map also keeps itself inverted per tap, and
//! [`PatchMap::input_grad`] computes each input element directly: for each
//! tap that reaches it, in the definition's row order, the tap's sum over
//! output channels from `0.0`, added onto the element from `0.0` — the
//! chain the GEMM and the scatter produced, so every bit but a NaN's
//! payload agrees (Rust leaves that unspecified, and the GEMM levels
//! already differ there). A tap into the padding is skipped: the GEMM
//! computed those panel entries only for the scatter to drop them (31 %
//! of the panel at ResLite's 4×4 stage, 55 % at 2×2), and the scatter was
//! a second pass over what was left. The kernel runs one instance per
//! level, its vector lanes a block of images.
//!
//! The map belongs to whoever lowers (`fedwcm-nn`'s `Conv2d` builds one in
//! its constructor and shares it with its clones); nothing is cached for
//! the life of the process. Entries are `u32`: the table is read once per
//! lowered float, so half the bytes is half the cache taken from the GEMM
//! operands (6.9 KB at most for a ResLite geometry, and 2.3 KB for its
//! per-tap inverse).

use crate::isa::Isa;

/// Static description of a 2-D convolution geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    pub fn oh(&self) -> usize {
        assert!(
            self.h + 2 * self.pad >= self.kh,
            "kernel taller than padded input"
        );
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        assert!(
            self.w + 2 * self.pad >= self.kw,
            "kernel wider than padded input"
        );
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the patch matrix: `c_in * kh * kw`.
    pub fn patch_rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of the patch matrix: `oh * ow`.
    pub fn patch_cols(&self) -> usize {
        self.oh() * self.ow()
    }

    /// Input buffer length `c_in*h*w`.
    pub fn input_len(&self) -> usize {
        self.c_in * self.h * self.w
    }
}

/// Lower one image `[c_in, h, w]` into the patch matrix
/// `[patch_rows, patch_cols]` (row-major into `cols`).
pub fn im2col(geom: &ConvGeom, input: &[f32], cols: &mut [f32]) {
    assert_eq!(input.len(), geom.input_len(), "input buffer size");
    let (oh, ow) = (geom.oh(), geom.ow());
    assert_eq!(cols.len(), geom.patch_rows() * oh * ow, "cols buffer size");
    let mut row = 0usize;
    for c in 0..geom.c_in {
        let chan = &input[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let out_row = &mut cols[row * oh * ow..(row + 1) * oh * ow];
                let mut col = 0usize;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.h as isize {
                        out_row[col..col + ow].fill(0.0);
                        col += ow;
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        out_row[col] = if ix < 0 || ix >= geom.w as isize {
                            0.0
                        } else {
                            chan[iy * geom.w + ix as usize]
                        };
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add the patch-matrix gradient back into
/// the input gradient buffer (which must be pre-zeroed by the caller if a
/// fresh gradient is wanted — the kernel accumulates).
pub fn col2im(geom: &ConvGeom, cols: &[f32], grad_input: &mut [f32]) {
    assert_eq!(grad_input.len(), geom.input_len(), "grad buffer size");
    let (oh, ow) = (geom.oh(), geom.ow());
    assert_eq!(cols.len(), geom.patch_rows() * oh * ow, "cols buffer size");
    let mut row = 0usize;
    for c in 0..geom.c_in {
        let base = c * geom.h * geom.w;
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let col_row = &cols[row * oh * ow..(row + 1) * oh * ow];
                let mut col = 0usize;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.h as isize {
                        col += ow;
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < geom.w as isize {
                            grad_input[base + iy * geom.w + ix as usize] += col_row[col];
                        }
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// [`PatchMap`] entry of a patch element in the zero padding. No input is
/// this long (asserted at construction), so it is also out of range.
const PAD: u32 = u32::MAX;

/// The lowering of one [`ConvGeom`] as a table: for each element of one
/// image's patch matrix, row-major, the input index it copies, or `PAD`;
/// and the same table inverted per kernel tap. The only place a layer's
/// stride/pad/kernel arithmetic runs.
#[derive(Debug)]
pub struct PatchMap {
    geom: ConvGeom,
    /// [`PatchMap::idx`] followed by [`PatchMap::taps`], in one allocation:
    /// as two, the second measured +0.3 MB of peak RSS on a ResLite run
    /// (heap fragmentation around a long-lived small block).
    table: Vec<u32>,
    /// Where `taps` starts in `table`.
    split: usize,
}

impl PatchMap {
    /// Tabulate `geom`.
    pub fn new(geom: &ConvGeom) -> Self {
        assert!(geom.input_len() < PAD as usize, "input too long for u32");
        let (oh, ow) = (geom.oh(), geom.ow());
        // An element is inside the image iff its coordinate in the padded
        // image falls in `pad..pad + dim`.
        let (ys, xs) = (geom.pad..geom.pad + geom.h, geom.pad..geom.pad + geom.w);
        let mut idx =
            Vec::with_capacity(geom.patch_rows() * oh * ow + geom.kh * geom.kw * geom.h * geom.w);
        for c in 0..geom.c_in {
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (py, px) = (oy * geom.stride + ky, ox * geom.stride + kx);
                            idx.push(if ys.contains(&py) && xs.contains(&px) {
                                ((c * geom.h + py - geom.pad) * geom.w + px - geom.pad) as u32
                            } else {
                                PAD
                            });
                        }
                    }
                }
            }
        }
        let (hw, lowered) = (geom.h * geom.w, idx.len());
        idx.resize(lowered + geom.kh * geom.kw * hw, PAD);
        let (rows, taps) = idx.split_at_mut(lowered);
        for (tap, row) in taps.chunks_exact_mut(hw).zip(rows.chunks_exact(oh * ow)) {
            for (col, &i) in row.iter().enumerate() {
                if let Some(q) = tap.get_mut(i as usize) {
                    *q = col as u32;
                }
            }
        }
        PatchMap {
            geom: *geom,
            table: idx,
            split: lowered,
        }
    }

    /// For each element of one image's patch matrix, row-major, the input
    /// index it copies, or `PAD`.
    fn idx(&self) -> &[u32] {
        &self.table[..self.split]
    }

    /// For each tap `t = ky·kw + kx` and each position `q` of one input
    /// channel, the column of patch row `t` that copies `q`, or `PAD`. A
    /// tap copies each position at most once, so this is [`PatchMap::idx`]'s
    /// first `kh·kw` rows inverted, and it serves every channel.
    fn taps(&self) -> &[u32] {
        &self.table[self.split..]
    }

    /// Lower one image into columns `col0..col0 + patch_cols` of a patch
    /// panel `[patch_rows, ld]` shared by several images, so one GEMM can
    /// run over all of them. [`im2col`] is the `ld = patch_cols`,
    /// `col0 = 0` case.
    pub fn lower(&self, input: &[f32], panel: &mut [f32], ld: usize, col0: usize) {
        self.lower_at(Isa::detect(), input, panel, ld, col0);
    }

    /// [`PatchMap::lower`] on the gather instance of one level.
    fn lower_at(&self, isa: Isa, input: &[f32], panel: &mut [f32], ld: usize, col0: usize) {
        assert_eq!(input.len(), self.geom.input_len(), "input buffer size");
        let pc = self.check_panel(panel.len(), ld, col0);
        // Which instance gathers: the loop only pays where it becomes
        // masked vector gathers, which AVX-512 has and which want a whole
        // register of columns to a row. Compiled for AVX2 it measured no
        // faster than portable, and for AVX-512 on four-column rows (the
        // 2×2 ResLite stage) slower.
        let isa = match isa {
            Isa::Portable => isa,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => Isa::Portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) if pc >= 16 => isa,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => Isa::Portable,
        };
        let idx = self.idx();
        isa.run(
            #[inline(always)]
            move || gather_rows(idx, pc, input, panel, ld, col0),
        );
    }

    /// The input gradient of a convolution with weights `w`
    /// (`[c_out, patch_rows]`), for `nb` images' output gradients
    /// `grad_out` (`[nb, c_out·patch_cols]`), written into `grad_in`
    /// (`[nb, input_len]`, overwritten). `work` holds at least
    /// [`PatchMap::input_grad_work`] floats.
    ///
    /// Every element is the chain the lowering defines: `Wᵀ·go` summed
    /// onto a zeroed patch gradient, `c_out` ascending, then [`col2im`]
    /// onto zeros. That is: the element starts at `0.0`, and each tap that
    /// reaches it, in ascending `(ky, kx)` order, adds its sum
    /// `Σ_c w[c, (c′, tap)] · go[c, p]`, taken from `0.0` over `c`
    /// ascending. A tap into the padding is skipped, never multiplied, so
    /// no patch-gradient panel is formed and there is no second pass to
    /// scatter it.
    pub fn input_grad(
        &self,
        w: &[f32],
        c_out: usize,
        grad_out: &[f32],
        grad_in: &mut [f32],
        work: &mut [f32],
    ) {
        self.input_grad_at(Isa::detect(), w, c_out, grad_out, grad_in, work);
    }

    /// Floats of work space [`PatchMap::input_grad`] takes for `c_out`
    /// output channels: the weights by tap, and one block of images'
    /// output and input gradients, transposed, at the widest level's lane
    /// count.
    pub fn input_grad_work(&self, c_out: usize) -> usize {
        let g = &self.geom;
        c_out * g.patch_rows() + (c_out * g.patch_cols() + g.input_len()) * WIDEST_LANES
    }

    /// [`PatchMap::input_grad`] on the instance of one level.
    ///
    /// The lanes of a vector are `L` images: a block of them has its
    /// output gradients transposed into `work` as `[c_out, patch_cols, L]`,
    /// so one load brings `go[c, p]` for every image of the block and one
    /// broadcast weight multiplies them all. `R` = 6 input channels run
    /// side by side, independent chains like the rows of a GEMM tile (one
    /// chain at a time waits on the latency of its adds; 4 measured the
    /// same, 12 slower): six tap sums and six element sums, twelve
    /// accumulators. Results go to a transposed `[c_in, h·w, L]` block
    /// too, copied out image by image: stored lane by lane into the image
    /// rows, the loop was scalarised and ran at half the speed or worse.
    fn input_grad_at(
        &self,
        isa: Isa,
        w: &[f32],
        c_out: usize,
        grad_out: &[f32],
        grad_in: &mut [f32],
        work: &mut [f32],
    ) {
        let g = &self.geom;
        let (len, pc, pr, kk) = (g.input_len(), g.patch_cols(), g.patch_rows(), g.kh * g.kw);
        assert_eq!(w.len(), c_out * pr, "weight buffer size");
        assert_eq!(grad_in.len() % len, 0, "grad buffer size");
        let nb = grad_in.len() / len;
        assert_eq!(grad_out.len(), nb * c_out * pc, "output gradient size");
        let lanes = match isa {
            Isa::Portable => 4,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => 8,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => WIDEST_LANES,
        };
        let block = (c_out * pc + len) * lanes;
        assert!(work.len() >= c_out * pr + block, "work space size");
        let (wt, work) = work.split_at_mut(c_out * pr);
        // `Wᵀ` by tap: `wt[(t·c_out + c)·c_in + c′] = w[c, c′·kk + t]`,
        // so the weights of side-by-side input channels are adjacent.
        for (c, w) in w.chunks_exact(pr).enumerate() {
            for (ci, w) in w.chunks_exact(kk).enumerate() {
                for (t, &v) in w.iter().enumerate() {
                    wt[(t * c_out + c) * g.c_in + ci] = v;
                }
            }
        }
        let adj = Adjoint {
            taps: self.taps(),
            hw: g.h * g.w,
            kk,
            c_in: g.c_in,
            pc,
            wt,
            c_out,
        };
        let work = &mut work[..block];
        match isa {
            Isa::Portable => isa.run(
                #[inline(always)]
                move || adj.blocks::<4, 6>(grad_out, grad_in, work),
            ),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => isa.run(
                #[inline(always)]
                move || adj.blocks::<8, 6>(grad_out, grad_in, work),
            ),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => isa.run(
                #[inline(always)]
                move || adj.blocks::<WIDEST_LANES, 6>(grad_out, grad_in, work),
            ),
        }
    }

    /// A `[patch_rows, ld]` panel must hold one image's columns at `col0`;
    /// returns `patch_cols`.
    fn check_panel(&self, panel_len: usize, ld: usize, col0: usize) -> usize {
        let pc = self.geom.patch_cols();
        assert!(
            col0 + pc <= ld,
            "panel columns {col0}+{pc} exceed its leading dimension {ld}"
        );
        assert_eq!(panel_len, self.geom.patch_rows() * ld, "panel buffer size");
        pc
    }
}

/// The gather of [`PatchMap::lower`]: row `r` of `idx` (`pc` entries)
/// selects what goes to columns `col0..col0 + pc` of row `r` of `panel`.
/// A function of its own so that its instance at a level still knows
/// that `panel` and `input` do not overlap — what lets the optimiser
/// turn the loop into masked gathers where the level has them.
#[inline(always)]
fn gather_rows(idx: &[u32], pc: usize, input: &[f32], panel: &mut [f32], ld: usize, col0: usize) {
    for (row, idx) in panel.chunks_exact_mut(ld).zip(idx.chunks_exact(pc)) {
        for (d, &i) in row[col0..col0 + pc].iter_mut().zip(idx) {
            // A select, never a multiply by a mask: `NaN·0` is NaN.
            *d = input.get(i as usize).copied().unwrap_or(0.0);
        }
    }
}

/// Images a vector of [`PatchMap::input_grad`] holds at the widest level:
/// 16 lanes of a 512-bit register.
const WIDEST_LANES: usize = 16;

/// What [`PatchMap::input_grad`]'s body reads: the per-tap inverse
/// table, the geometry it needs and the weights by tap.
#[derive(Clone, Copy)]
struct Adjoint<'a> {
    taps: &'a [u32],
    /// Positions of one input channel, `h·w`.
    hw: usize,
    /// Taps of one kernel, `kh·kw`.
    kk: usize,
    c_in: usize,
    /// Positions of one output channel, `oh·ow`.
    pc: usize,
    /// `[kk, c_out, c_in]`.
    wt: &'a [f32],
    c_out: usize,
}

impl Adjoint<'_> {
    /// All images, `L` at a time: transpose a block's output gradients
    /// into `work` (`[c_out, pc, L]`; in a last, narrower block the lanes
    /// past its images keep stale values, computed on and never stored),
    /// run `R` input channels at a time and the ragged rest one by one,
    /// and copy the block's input gradients out of `work`.
    #[inline(always)]
    fn blocks<const L: usize, const R: usize>(
        self,
        grad_out: &[f32],
        grad_in: &mut [f32],
        work: &mut [f32],
    ) {
        let (rows, len) = (self.c_out * self.pc, self.c_in * self.hw);
        let nb = grad_in.len() / len;
        let (go_t, out_t) = work.split_at_mut(rows * L);
        for s0 in (0..nb).step_by(L) {
            let nl = L.min(nb - s0);
            for (l, go) in grad_out[s0 * rows..(s0 + nl) * rows]
                .chunks_exact(rows)
                .enumerate()
            {
                for (lanes, &g) in go_t.chunks_exact_mut(L).zip(go) {
                    lanes[l] = g;
                }
            }
            let mut c0 = 0;
            while c0 + R <= self.c_in {
                self.channels::<L, R>(go_t, out_t, c0);
                c0 += R;
            }
            while c0 < self.c_in {
                self.channels::<L, 1>(go_t, out_t, c0);
                c0 += 1;
            }
            for (l, row) in grad_in[s0 * len..(s0 + nl) * len]
                .chunks_exact_mut(len)
                .enumerate()
            {
                for (x, lanes) in row.iter_mut().zip(out_t.chunks_exact(L)) {
                    *x = lanes[l];
                }
            }
        }
    }

    /// Input channels `c0..c0 + R` of one block of images: `go_t` is the
    /// block's `[c_out, pc, L]` output gradients, `out_t` its
    /// `[c_in, hw, L]` input gradients.
    #[inline(always)]
    fn channels<const L: usize, const R: usize>(self, go_t: &[f32], out_t: &mut [f32], c0: usize) {
        for q in 0..self.hw {
            let mut acc = [[0.0f32; L]; R];
            for t in 0..self.kk {
                let p = self.taps[t * self.hw + q];
                if p == PAD {
                    continue;
                }
                let p = p as usize;
                let mut sum = [[0.0f32; L]; R];
                for c in 0..self.c_out {
                    let mut g = [0.0f32; L];
                    let at = (c * self.pc + p) * L;
                    g.copy_from_slice(&go_t[at..at + L]);
                    let at = (t * self.c_out + c) * self.c_in + c0;
                    let w = &self.wt[at..at + R];
                    for (lanes, &w) in sum.iter_mut().zip(w) {
                        for (x, gl) in lanes.iter_mut().zip(&g) {
                            *x += w * gl;
                        }
                    }
                }
                for (a, s) in acc.iter_mut().zip(&sum) {
                    for (x, v) in a.iter_mut().zip(s) {
                        *x += v;
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                let at = ((c0 + r) * self.hw + q) * L;
                out_t[at..at + L].copy_from_slice(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_bits_eq;
    use fedwcm_stats::rng::{Rng, Xoshiro256pp};
    use proptest::prelude::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeom {
        ConvGeom {
            c_in: c,
            h,
            w,
            kh: k,
            kw: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 8, 8, 3, 1, 1);
        assert_eq!((g.oh(), g.ow()), (8, 8));
        let g = geom(1, 8, 8, 2, 2, 0);
        assert_eq!((g.oh(), g.ow()), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1, no pad: patch matrix equals the input.
        let g = geom(2, 3, 3, 1, 1, 0);
        let input: Vec<f32> = (0..g.input_len()).map(|x| x as f32).collect();
        let mut cols = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&g, &input, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_known_patches() {
        // 1 channel, 3×3 input, 2×2 kernel, stride 1, no pad → 2×2 output.
        let g = geom(1, 3, 3, 2, 1, 0);
        let input = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut cols = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&g, &input, &mut cols);
        // Rows are kernel positions (ky,kx), cols are output positions.
        let expect = [
            0.0, 1.0, 3.0, 4.0, // (0,0)
            1.0, 2.0, 4.0, 5.0, // (0,1)
            3.0, 4.0, 6.0, 7.0, // (1,0)
            4.0, 5.0, 7.0, 8.0, // (1,1)
        ];
        assert_eq!(cols, expect);
    }

    #[test]
    fn padding_zeroes_border() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&g, &input, &mut cols);
        // Top-left kernel tap at output (0,0) reads the padded corner.
        assert_eq!(cols[0], 0.0);
        // Center tap (ky=1,kx=1) at output (0,0) reads input (0,0).
        let ncols = g.patch_cols();
        assert_eq!(cols[(3 + 1) * ncols], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // Adjoint test: <im2col(x), y> == <x, col2im(y)> for random x, y.
        let g = geom(3, 7, 6, 3, 2, 1);
        let mut rng = Xoshiro256pp::seed_from(7);
        let x: Vec<f32> = (0..g.input_len()).map(|_| rng.next_f32() - 0.5).collect();
        let y: Vec<f32> = (0..g.patch_rows() * g.patch_cols())
            .map(|_| rng.next_f32() - 0.5)
            .collect();
        let mut ax = vec![0.0; y.len()];
        im2col(&g, &x, &mut ax);
        let mut aty = vec![0.0; x.len()];
        col2im(&g, &y, &mut aty);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn input_grad_is_the_adjoint_of_the_lowered_convolution() {
        // <W·lower(x), go> == <x, input_grad(W, go)> over three images.
        let g = geom(2, 6, 5, 3, 2, 0);
        let map = PatchMap::new(&g);
        let (pr, pc, len, c_out, nb) = (g.patch_rows(), g.patch_cols(), g.input_len(), 3, 3);
        let mut rng = Xoshiro256pp::seed_from(8);
        let mut uniform = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.next_f32() - 0.5).collect() };
        let (x, w, go) = (
            uniform(nb * len),
            uniform(c_out * pr),
            uniform(nb * c_out * pc),
        );
        let mut lhs = 0.0f32;
        let mut cols = vec![0.0; pr * pc];
        for (x, go) in x.chunks_exact(len).zip(go.chunks_exact(c_out * pc)) {
            map.lower(x, &mut cols, pc, 0);
            for c in 0..c_out {
                for p in 0..pc {
                    let y: f32 = (0..pr).map(|r| w[c * pr + r] * cols[r * pc + p]).sum();
                    lhs += y * go[c * pc + p];
                }
            }
        }
        let mut gx = vec![f32::NAN; x.len()];
        map.input_grad(
            &w,
            c_out,
            &go,
            &mut gx,
            &mut vec![0.0; map.input_grad_work(c_out)],
        );
        let rhs: f32 = x.iter().zip(&gx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "exceed its leading dimension")]
    fn panel_slot_past_the_leading_dimension_panics() {
        let g = geom(1, 3, 3, 2, 1, 0);
        let mut panel = vec![0.0; g.patch_rows() * 6];
        PatchMap::new(&g).lower(&[0.0; 9], &mut panel, 6, 4);
    }

    #[test]
    fn col2im_counts_patch_coverage() {
        // All-ones patch gradient: each input pixel accumulates once per
        // patch containing it. With 1×1 kernels that is exactly once.
        let g = geom(1, 4, 4, 1, 1, 0);
        let cols = vec![1.0; g.patch_rows() * g.patch_cols()];
        let mut grad = vec![0.0; g.input_len()];
        col2im(&g, &cols, &mut grad);
        assert!(grad.iter().all(|&x| x == 1.0));
    }

    fn randn(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256pp::seed_from(seed);
        crate::Tensor::randn(&[len], 1.0, &mut rng).into_vec()
    }

    /// `PatchMap::lower` on every level this host offers, in the middle
    /// slot of a three-image panel, against the definition, [`im2col`],
    /// bit for bit.
    fn assert_map_matches_definition(geom: &ConvGeom, seed: u64) {
        let map = PatchMap::new(geom);
        let (pr, pc) = (geom.patch_rows(), geom.patch_cols());
        let (ld, col0) = (3 * pc, pc);

        let x = randn(geom.input_len(), seed);
        let mut want = vec![0.0f32; pr * pc];
        im2col(geom, &x, &mut want);
        for isa in Isa::available() {
            let what = format!("{geom:?} {isa:?}");
            let mut panel = vec![f32::NAN; pr * ld];
            map.lower_at(isa, &x, &mut panel, ld, col0);
            for (r, row) in panel.chunks_exact(ld).enumerate() {
                assert_bits_eq(&row[col0..col0 + pc], &want[r * pc..(r + 1) * pc], &what);
                let outside = row[..col0].iter().chain(&row[col0 + pc..]);
                assert!(
                    outside.copied().all(f32::is_nan),
                    "{what}: row {r} written outside its slot"
                );
            }
        }
    }

    /// Specials planted among the random values of `v`: NaN, ±inf and
    /// `-0.0` in turn, `count` of them at seeded positions.
    fn plant_specials(v: &mut [f32], count: usize, seed: u64) {
        const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut rng = Xoshiro256pp::seed_from(seed);
        for k in 0..count {
            let at = rng.index(v.len());
            v[at] = SPECIALS[k % SPECIALS.len()];
        }
    }

    /// The input gradient of a convolution as the lowering defines it, one
    /// image at a time: `Wᵀ·go` summed onto a zeroed patch gradient,
    /// `c_out` ascending and no product skipped, then [`col2im`] onto
    /// zeros. `w` is `[c_out, patch_rows]`, `go` holds `nb` rows of
    /// `[c_out, patch_cols]`.
    fn input_grad_definition(geom: &ConvGeom, c_out: usize, w: &[f32], go: &[f32]) -> Vec<f32> {
        let (pr, pc, len) = (geom.patch_rows(), geom.patch_cols(), geom.input_len());
        let nb = go.len() / (c_out * pc);
        let mut grad = vec![0.0f32; nb * len];
        let mut gcols = vec![0.0f32; pr * pc];
        for (go, grad) in go.chunks_exact(c_out * pc).zip(grad.chunks_exact_mut(len)) {
            for (r, row) in gcols.chunks_exact_mut(pc).enumerate() {
                for (col, g) in row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for c in 0..c_out {
                        acc += w[c * pr + r] * go[c * pc + col];
                    }
                    *g = acc;
                }
            }
            col2im(geom, &gcols, grad);
        }
        grad
    }

    /// Bits equal, except that any NaN matches any NaN: Rust leaves the
    /// sign and payload of a NaN an operation produces unspecified, so two
    /// compilations of one chain of operations may differ there.
    fn assert_bits_eq_nan(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what} element {i}: {g} vs {w}");
        }
    }

    /// The input gradient at every level this host offers against
    /// [`input_grad_definition`], with NaN, ±inf and `-0.0` planted in
    /// both the weights and the output gradient. Returns how many of the
    /// compared elements were finite, and how many there were.
    fn assert_input_grad_matches_definition(
        geom: &ConvGeom,
        c_out: usize,
        seed: u64,
    ) -> (usize, usize) {
        let map = PatchMap::new(geom);
        let (pr, pc) = (geom.patch_rows(), geom.patch_cols());
        // Shared by every call, as a layer shares its work space.
        let mut work = vec![f32::NAN; map.input_grad_work(c_out)];
        let (mut finite, mut total) = (0, 0);
        for nb in [1, 7, 40] {
            let mut w = randn(c_out * pr, seed);
            let mut go = randn(nb * c_out * pc, seed.wrapping_add(1));
            plant_specials(&mut w, 4, seed.wrapping_add(2));
            // In every other image only: at the 2×2 stage one non-finite
            // output gradient reaches every input element of its image.
            for (s, go) in go
                .chunks_exact_mut(c_out * pc)
                .enumerate()
                .skip(1)
                .step_by(2)
            {
                plant_specials(go, 4, seed.wrapping_add(3 + s as u64));
            }
            let want = input_grad_definition(geom, c_out, &w, &go);
            finite += want.iter().filter(|g| g.is_finite()).count();
            total += want.len();
            for isa in Isa::available() {
                let what = format!("{geom:?} c_out {c_out} batch {nb} {isa:?}");
                let mut got = vec![f32::NAN; want.len()];
                map.input_grad_at(isa, &w, c_out, &go, &mut got, &mut work);
                assert_bits_eq_nan(&got, &want, &what);
            }
        }
        (finite, total)
    }

    #[test]
    fn input_grad_matches_definition_with_specials() {
        // The three ResLite geometries, then stride 2, pad 0, 5×5 and 1×1.
        for (c_in, hw, k, stride, pad, c_out) in [
            (12, 4, 3, 1, 1, 12),
            (12, 2, 3, 1, 1, 12),
            (3, 8, 3, 1, 1, 12),
            (4, 9, 3, 2, 1, 5),
            (3, 6, 3, 1, 0, 7),
            (2, 7, 5, 1, 2, 6),
            (5, 4, 1, 1, 0, 3),
        ] {
            let g = geom(c_in, hw, hw, k, stride, pad);
            let (finite, total) = assert_input_grad_matches_definition(&g, c_out, 29);
            assert!(
                0 < finite && finite < total,
                "{g:?}: {finite} of {total} finite"
            );
        }
    }

    #[test]
    fn patch_map_matches_definition_on_the_reslite_geometries() {
        for (c_in, hw) in [(3, 8), (12, 4), (12, 2)] {
            assert_map_matches_definition(&geom(c_in, hw, hw, 3, 1, 1), 17);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn patch_map_matches_definition(
            c_in in 1usize..5, h in 1usize..10, w in 1usize..10, k in 1usize..6,
            stride in 1usize..4, pad in 0usize..3, seed in any::<u64>(),
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let geom = ConvGeom { c_in, h, w, kh: k, kw: k, stride, pad };
            assert_map_matches_definition(&geom, seed);
            let _ = assert_input_grad_matches_definition(&geom, c_in + 2, seed);
        }
    }
}
