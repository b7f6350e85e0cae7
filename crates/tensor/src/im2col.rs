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
//! every step uses a [`PatchMap`]: the arithmetic runs once, into tables,
//! and [`PatchMap::lower_panel`] fills a patch *panel*
//! `[c_in*kh*kw, nb*oh*ow]` that places `nb` images side by side, image
//! `s` at column offset `s*oh*ow`, so a layer runs one GEMM per panel
//! instead of one per image.
//!
//! **Shifted rows.** Take a stride-1 convolution whose output is the size
//! of its input (`kh = kw = 2p + 1`; every conv the models build). Lay
//! channel `c` of the panel's images end to end in one row with `p·w + p`
//! floats of margin on each side: patch row `(c, ky, kx)` is that row
//! shifted by `(ky − p)·w + (kx − p)`, except in the columns whose tap
//! lands in the padding, which hold `+0.0`. So the map keeps, per tap, a
//! `u32` mask over the widest panel's columns (all ones where the tap
//! copies), and a patch row is one pass over all `nb·oh·ow` columns:
//! `f32::from_bits(src.to_bits() & mask)`. The pass runs on the instance
//! of the machine's level like the GEMM kernels
//! ([`mod@crate::matmul`], "Instruction-set levels"); a select, never a
//! multiply by the mask, so every float is the one [`im2col`] copies —
//! `NaN·0` would be NaN. Any other geometry is gathered image by image
//! through a table with one input index per element of one image's patch
//! matrix, portable; only tests build such geometries.
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
//! its constructor, for its widest panel, and shares it with its clones);
//! nothing is cached for the life of the process. Masks and indices are
//! `u32`, read once per lowered float: 20.7 KB of masks at most for a
//! ResLite geometry (the 8×8 stem's 9 taps over nine images), and 2.3 KB
//! for its per-tap inverse.

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

    /// `pad·w + pad`, if every patch row is its input channel shifted:
    /// stride 1 and an output the size of the input (`kh = kw =
    /// 2·pad + 1`). `None` for any other geometry.
    fn shift_margin(&self) -> Option<usize> {
        let same = self.kh == 2 * self.pad + 1 && self.kw == 2 * self.pad + 1;
        (self.stride == 1 && same).then_some(self.pad * self.w + self.pad)
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

/// The lowering of one [`ConvGeom`] into panels of up to `images`
/// images, and the same lowering inverted per kernel tap. The only place
/// a layer's stride/pad/kernel arithmetic runs.
#[derive(Debug)]
pub struct PatchMap {
    geom: ConvGeom,
    /// Most images a panel holds.
    images: usize,
    /// [`PatchMap::lowering`] followed by [`PatchMap::taps`], in one
    /// allocation: as two, the second measured +0.3 MB of peak RSS on a
    /// ResLite run (heap fragmentation around a long-lived small block).
    table: Vec<u32>,
    /// Where `taps` starts in `table`.
    split: usize,
}

impl PatchMap {
    /// Tabulate `geom` for panels of up to `images` images.
    pub fn new(geom: &ConvGeom, images: usize) -> Self {
        assert!(geom.input_len() < PAD as usize, "input too long for u32");
        assert!(images > 0, "a panel holds at least one image");
        let (oh, ow) = (geom.oh(), geom.ow());
        let (pc, kk) = (oh * ow, geom.kh * geom.kw);
        // An element is inside the image iff its coordinate in the padded
        // image falls in `pad..pad + dim`.
        let (ys, xs) = (geom.pad..geom.pad + geom.h, geom.pad..geom.pad + geom.w);
        let mut idx = Vec::with_capacity(geom.patch_rows() * pc + kk * geom.h * geom.w);
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
        idx.resize(lowered + kk * hw, PAD);
        let (rows, taps) = idx.split_at_mut(lowered);
        for (tap, row) in taps.chunks_exact_mut(hw).zip(rows.chunks_exact(pc)) {
            for (col, &i) in row.iter().enumerate() {
                if let Some(q) = tap.get_mut(i as usize) {
                    *q = col as u32;
                }
            }
        }
        let table = match geom.shift_margin() {
            None => idx,
            // Tap `t`'s mask: all ones where its first channel's row
            // copies, zero in the padding, once per image of the widest
            // panel.
            Some(_) => {
                let (rows, taps) = idx.split_at(lowered);
                let mut table = Vec::with_capacity(kk * images * pc + taps.len());
                for row in rows.chunks_exact(pc).take(kk) {
                    let mask = row.iter().map(|&i| if i == PAD { 0 } else { u32::MAX });
                    for _ in 0..images {
                        table.extend(mask.clone());
                    }
                }
                table.extend_from_slice(taps);
                table
            }
        };
        PatchMap {
            geom: *geom,
            images,
            split: table.len() - kk * hw,
            table,
        }
    }

    /// For a shifted geometry, per kernel tap the `u32` mask of the
    /// widest panel's columns; for any other, for each element of one
    /// image's patch matrix, row-major, the input index it copies, or
    /// `PAD`.
    fn lowering(&self) -> &[u32] {
        &self.table[..self.split]
    }

    /// For each tap `t = ky·kw + kx` and each position `q` of one input
    /// channel, the column of patch row `t` that copies `q`, or `PAD`. A
    /// tap copies each position at most once, so this is the first `kh·kw`
    /// rows of the gather table inverted, and it serves every channel.
    fn taps(&self) -> &[u32] {
        &self.table[self.split..]
    }

    /// Floats of work space [`PatchMap::lower_panel`] takes: one input
    /// channel of the widest panel, laid end to end with its margins.
    pub fn lower_work(&self) -> usize {
        self.geom
            .shift_margin()
            .map_or(0, |m| self.images * self.geom.h * self.geom.w + 2 * m)
    }

    /// Lower `nb` images `[nb, input_len]` (at most the map's `images`)
    /// into the patch panel `[patch_rows, nb·patch_cols]`, image `s` at
    /// column offset `s·patch_cols`; the `nb = 1` panel is [`im2col`]'s.
    /// `work` holds at least [`PatchMap::lower_work`] floats; nothing it
    /// held reaches the panel.
    pub fn lower_panel(&self, images: &[f32], panel: &mut [f32], work: &mut [f32]) {
        self.lower_panel_at(Isa::detect(), images, panel, work);
    }

    /// [`PatchMap::lower_panel`] with its shifted rows on the instance of
    /// one level; copying floats, no level can change a bit.
    fn lower_panel_at(&self, isa: Isa, images: &[f32], panel: &mut [f32], work: &mut [f32]) {
        let g = &self.geom;
        let (len, pc) = (g.input_len(), g.patch_cols());
        assert_eq!(images.len() % len, 0, "input buffer size");
        let nb = images.len() / len;
        assert!(
            nb <= self.images,
            "panel of {nb} images, map built for {}",
            self.images
        );
        let n = nb * pc;
        assert_eq!(panel.len(), g.patch_rows() * n, "panel buffer size");
        let Some(margin) = g.shift_margin() else {
            for (s, image) in images.chunks_exact(len).enumerate() {
                gather_rows(self.lowering(), pc, image, panel, n, s * pc);
            }
            return;
        };
        assert!(work.len() >= self.lower_work(), "work space size");
        let shift = Shift {
            masks: self.lowering(),
            stride: self.images * pc,
            len,
            hw: g.h * g.w,
            w: g.w,
            kw: g.kw,
            kk: g.kh * g.kw,
            margin,
        };
        let row = &mut work[..n + 2 * margin];
        isa.run(
            #[inline(always)]
            move || shift.rows(images, panel, row),
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
}

/// What [`PatchMap::lower_panel`] reads for a shifted geometry: with
/// channel `c` of a panel's images laid end to end in a row behind a
/// margin of `pad·w + pad` floats, patch row `(c, ky, kx)` is that row
/// from `ky·w + kx` on, masked to `+0.0` where the tap lands in the
/// padding.
#[derive(Clone, Copy)]
struct Shift<'a> {
    /// `[kk, stride]`: per tap, all ones where its column copies.
    masks: &'a [u32],
    /// Columns of the widest panel; a narrower one reads a prefix.
    stride: usize,
    /// Floats of one image, `c_in·h·w`.
    len: usize,
    /// Floats of one channel of one image, `h·w`.
    hw: usize,
    w: usize,
    kw: usize,
    /// Taps of one kernel, `kh·kw`.
    kk: usize,
    /// `pad·w + pad`.
    margin: usize,
}

impl Shift<'_> {
    /// Every row of the panel: each channel of the images copied into
    /// `row` between its margins (left as they were: every float read
    /// from them is masked), then its `kk` patch rows in one pass over
    /// the panel's columns each. A select, never a multiply by the mask:
    /// `NaN·0` is NaN.
    #[inline(always)]
    fn rows(self, images: &[f32], panel: &mut [f32], row: &mut [f32]) {
        let n = row.len() - 2 * self.margin;
        for (c, rows) in panel.chunks_exact_mut(self.kk * n).enumerate() {
            let chan = &mut row[self.margin..self.margin + n];
            for (dst, image) in chan
                .chunks_exact_mut(self.hw)
                .zip(images.chunks_exact(self.len))
            {
                dst.copy_from_slice(&image[c * self.hw..(c + 1) * self.hw]);
            }
            for (t, dst) in rows.chunks_exact_mut(n).enumerate() {
                let src = &row[t / self.kw * self.w + t % self.kw..][..n];
                let mask = &self.masks[t * self.stride..][..n];
                for ((d, &x), &m) in dst.iter_mut().zip(src).zip(mask) {
                    *d = f32::from_bits(x.to_bits() & m);
                }
            }
        }
    }
}

/// The gather of [`PatchMap::lower_panel`] for a geometry without a
/// constant shift: row `r` of `idx` (`pc` entries) selects what goes to
/// columns `col0..col0 + pc` of row `r` of `panel`.
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
        let map = PatchMap::new(&g, 1);
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
            map.lower_panel(x, &mut cols, &mut []);
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
    #[should_panic(expected = "panel of 3 images, map built for 2")]
    fn panel_wider_than_the_map_panics() {
        let g = geom(1, 3, 3, 3, 1, 1);
        let map = PatchMap::new(&g, 2);
        let mut panel = vec![0.0; g.patch_rows() * 3 * g.patch_cols()];
        map.lower_panel(&[0.0; 27], &mut panel, &mut vec![0.0; map.lower_work()]);
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

    /// `PatchMap::lower_panel` on every level this host offers, for a
    /// map of `images` images, at one image, about half of them and all,
    /// against the definition, [`im2col`], image by image and bit for
    /// bit, with NaN, ±inf and `-0.0` planted in the input. The panel and
    /// the work space start as NaN, and the panel sits between two guard
    /// floats that must stay so.
    fn assert_panel_matches_definition(geom: &ConvGeom, images: usize, seed: u64) {
        let map = PatchMap::new(geom, images);
        let (pr, pc, len) = (geom.patch_rows(), geom.patch_cols(), geom.input_len());
        let mut want = vec![0.0f32; pr * pc];
        for nb in [1, images / 2 + 1, images] {
            let mut x = randn(nb * len, seed);
            plant_specials(&mut x, 4, seed.wrapping_add(1));
            let n = nb * pc;
            for isa in Isa::available() {
                let what = format!("{geom:?} {nb} of {images} images {isa:?}");
                let mut buf = vec![f32::NAN; pr * n + 2];
                let mut work = vec![f32::NAN; map.lower_work()];
                let panel = &mut buf[1..=pr * n];
                map.lower_panel_at(isa, &x, panel, &mut work);
                for (s, x) in x.chunks_exact(len).enumerate() {
                    im2col(geom, x, &mut want);
                    for (r, want) in want.chunks_exact(pc).enumerate() {
                        let got = &panel[r * n + s * pc..r * n + (s + 1) * pc];
                        assert_bits_eq(got, want, &format!("{what}: image {s} row {r}"));
                    }
                }
                let guards = [buf[0], buf[pr * n + 1]];
                assert!(
                    guards.iter().all(|g| g.is_nan()),
                    "{what}: written outside the panel"
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
        let map = PatchMap::new(geom, 1);
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
    fn panel_lowering_matches_definition_on_the_reslite_geometries() {
        // With the panel widths `Conv2d` gives them.
        for (c_in, hw, images) in [(3, 8, 9), (12, 4, 9), (12, 2, 37)] {
            assert_panel_matches_definition(&geom(c_in, hw, hw, 3, 1, 1), images, 17);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn panel_lowering_matches_definition(
            c_in in 1usize..5, h in 1usize..10, w in 1usize..10, k in 1usize..6,
            stride in 1usize..4, pad in 0usize..3, seed in any::<u64>(),
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let geom = ConvGeom { c_in, h, w, kh: k, kw: k, stride, pad };
            assert_panel_matches_definition(&geom, 3, seed);
            let _ = assert_input_grad_matches_definition(&geom, c_in + 2, seed);
        }
    }
}
