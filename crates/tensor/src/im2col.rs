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
//! with one entry per patch-matrix element, and lowering and its adjoint
//! are a gather and a scatter through the table in the definition's
//! row-major order — every `grad_input` element receives its
//! contributions in the same order, so the bits agree. The map works on a
//! patch *panel* `[c_in*kh*kw, nb*oh*ow]` that places several images side
//! by side, image `s` at column offset `s*oh*ow`, so a layer runs one GEMM
//! per panel instead of one per image.
//!
//! The gather is one loop, instantiated per instruction-set level like
//! the GEMM kernels ([`mod@crate::matmul`], "Instruction-set levels"): compiled
//! for AVX-512 it becomes masked vector gathers, and [`PatchMap::lower`]
//! runs that instance where the machine has it and a patch row fills a
//! register; copying floats, no level can change a bit. The scatter's
//! indices collide — that is what makes it an adjoint — but not within one
//! patch row: a kernel tap reaches each input position at most once. So
//! the map also keeps itself inverted per tap, and [`PatchMap::scatter_add`]
//! runs each row as a gather-add into one channel, rows in the
//! definition's order, which leaves every element's chain of additions as
//! it was.
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

    /// Adjoint of [`PatchMap::lower`]: scatter-add columns
    /// `col0..col0 + patch_cols` of a patch-gradient panel
    /// `[patch_rows, ld]` into one image's input gradient (accumulating,
    /// like [`col2im`]).
    pub fn scatter_add(&self, panel: &[f32], ld: usize, col0: usize, grad_input: &mut [f32]) {
        self.scatter_add_at(Isa::detect(), panel, ld, col0, grad_input);
    }

    /// [`PatchMap::scatter_add`] on the instance of one level.
    ///
    /// Every input element receives its contributions in patch-row order,
    /// as in [`col2im`], and `+=` even where an element is hit once
    /// (assigning would turn `0.0 + -0.0` into `-0.0`), so the bits are
    /// the definition's whichever loop runs. Where a channel has 16
    /// positions or more, the rows run channel by channel, tap by tap: one
    /// tap reaches each position at most once, so a row is a gather
    /// through `taps` into the channel's gradient instead of a scatter
    /// whose targets may collide — masked vector gathers under AVX-512.
    /// Measured at the ResLite geometries, 40 samples: 0.6× the scatter
    /// under AVX-512 and 0.8–0.9× compiled portable; compiled for AVX2 no
    /// faster than portable, so AVX2 runs the portable instance. On four
    /// positions a channel (the 2×2 stage) it was slower at every level,
    /// so there the scatter through `idx` stays.
    fn scatter_add_at(
        &self,
        isa: Isa,
        panel: &[f32],
        ld: usize,
        col0: usize,
        grad_input: &mut [f32],
    ) {
        assert_eq!(grad_input.len(), self.geom.input_len(), "grad buffer size");
        let pc = self.check_panel(panel.len(), ld, col0);
        let hw = self.geom.h * self.geom.w;
        if hw < 16 {
            for (row, idx) in panel.chunks_exact(ld).zip(self.idx().chunks_exact(pc)) {
                for (&g, &i) in row[col0..col0 + pc].iter().zip(idx) {
                    if let Some(x) = grad_input.get_mut(i as usize) {
                        *x += g;
                    }
                }
            }
            return;
        }
        let isa = match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => isa,
            _ => Isa::Portable,
        };
        let (taps, kk) = (self.taps(), self.geom.kh * self.geom.kw);
        isa.run(
            #[inline(always)]
            move || {
                for (c, grad) in grad_input.chunks_exact_mut(hw).enumerate() {
                    for (t, tap) in taps.chunks_exact(hw).enumerate() {
                        let at = (c * kk + t) * ld + col0;
                        gather_add(tap, &panel[at..at + pc], grad);
                    }
                }
            },
        );
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

/// `grad[q] += row[tap[q]]` wherever `tap[q]` is not `PAD`: the rows of
/// one tap of [`PatchMap::scatter_add`] into one channel. A function of
/// its own, like [`gather_rows`], so that its instance knows `grad` and
/// `row` do not overlap; an add under a mask, never an add of `0.0`,
/// which would turn a `-0.0` the tap does not reach into `0.0`.
#[inline(always)]
fn gather_add(tap: &[u32], row: &[f32], grad: &mut [f32]) {
    for (g, &i) in grad.iter_mut().zip(tap) {
        if let Some(v) = row.get(i as usize) {
            *g += v;
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
    fn panel_forms_are_adjoint_at_a_column_offset() {
        // <lower(x), y> == <x, scatter_add(y)> for the second of three
        // image slots; the other slots of the panel stay untouched.
        let g = geom(2, 6, 5, 3, 2, 0);
        let map = PatchMap::new(&g);
        let (pr, pc) = (g.patch_rows(), g.patch_cols());
        let (ld, col0) = (3 * pc, pc);
        let mut rng = Xoshiro256pp::seed_from(8);
        let x: Vec<f32> = (0..g.input_len()).map(|_| rng.next_f32() - 0.5).collect();
        let y: Vec<f32> = (0..pr * ld).map(|_| rng.next_f32() - 0.5).collect();
        let mut ax = vec![f32::NAN; pr * ld];
        map.lower(&x, &mut ax, ld, col0);
        let mut aty = vec![0.0; x.len()];
        map.scatter_add(&y, ld, col0, &mut aty);
        let mut lhs = 0.0f32;
        for r in 0..pr {
            for col in 0..ld {
                let v = ax[r * ld + col];
                if (col0..col0 + pc).contains(&col) {
                    lhs += v * y[r * ld + col];
                } else {
                    assert!(v.is_nan(), "slot outside the image written at ({r},{col})");
                }
            }
        }
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");

        // The definition is the ld = patch_cols, col0 = 0 case.
        let mut flat = vec![0.0; pr * pc];
        im2col(&g, &x, &mut flat);
        for r in 0..pr {
            assert_eq!(
                flat[r * pc..(r + 1) * pc],
                ax[r * ld + col0..r * ld + col0 + pc]
            );
        }
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

    /// `PatchMap::lower` on every level this host offers and
    /// `scatter_add`, in the middle slot of a three-image panel, against
    /// the definition, [`im2col`]/[`col2im`], bit for bit.
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

        // Scatter-add accumulates: onto a non-zero buffer that also holds
        // -0.0, where `+=` and `=` would differ in the sign of zero.
        let y = randn(pr * ld, seed.wrapping_add(1));
        let mut cols = vec![0.0f32; pr * pc];
        for (r, row) in y.chunks_exact(ld).enumerate() {
            cols[r * pc..(r + 1) * pc].copy_from_slice(&row[col0..col0 + pc]);
        }
        let mut want = randn(geom.input_len(), seed.wrapping_add(2));
        want.iter_mut().step_by(3).for_each(|g| *g = -0.0);
        let before = want.clone();
        col2im(geom, &cols, &mut want);
        for isa in Isa::available() {
            let mut got = before.clone();
            map.scatter_add_at(isa, &y, ld, col0, &mut got);
            assert_bits_eq(&got, &want, &format!("{geom:?} {isa:?}"));
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
        }
    }
}
