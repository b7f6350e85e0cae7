//! Convolution and pooling layers (im2col-lowered).
//!
//! Inputs stay rank-2 `[batch, c*h*w]`; each layer knows its spatial
//! geometry. This keeps the model plumbing uniform with the dense path.

use crate::layer::{he_std, init_weights_biases, Layer};
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{ConvGeom, PatchMap};
use fedwcm_tensor::matmul::{matmul_a_bt_into, matmul_into};
use fedwcm_tensor::Tensor;
use std::sync::Arc;

/// Most floats one patch panel may hold. A layer lowers
/// `PANEL_FLOATS / (patch_rows · patch_cols)` samples (at least one) side
/// by side; the bound keeps the panel and the work space beside it in
/// cache and independent of the batch size. It also fixes how the weight
/// gradient is summed (see [`Conv2d`]), so changing it is a numeric epoch
/// for convolutional models.
const PANEL_FLOATS: usize = 1 << 14;

/// 2-D convolution with square kernels, zero padding, shared stride.
///
/// Weights are `[c_out, c_in*kh*kw]` row-major plus `c_out` biases. A
/// batch is lowered panel by panel: [`Conv2d::panel_samples`] samples are
/// unrolled side by side into one patch panel `[c_in*kh*kw, nb·oh·ow]`,
/// so the forward pass and the weight gradient are one GEMM each per panel
/// instead of one per sample.
///
/// Outputs, input gradients and bias gradients are bit-identical to
/// lowering one sample at a time — batching columns does not touch any
/// element's reduction. The weight gradient is one dot product over all
/// `nb·oh·ow` columns of a panel, panels added in ascending order: its
/// summation order is a function of the layer geometry, the batch size
/// and `PANEL_FLOATS` only, never of the thread count.
///
/// Patches move through a [`PatchMap`] built once in [`Conv2d::new`] for
/// the layer's widest panel and shared by every clone of the layer
/// (per-worker training models, per-chunk evaluation replicas); training
/// and evaluation lower a whole panel in one [`PatchMap::lower_panel`]
/// call, its row in the layer's work space. The input gradient is not
/// lowered: it is [`PatchMap::input_grad`] over the whole batch, which
/// sums each element's chain as the lowering would without forming the
/// patch-gradient panel. [`Layer::backward_params`] skips it and allocates
/// no input gradient.
#[derive(Clone)]
pub struct Conv2d {
    geom: ConvGeom,
    map: Arc<PatchMap>,
    c_out: usize,
    /// Patch panels of the last `forward(train = true)` batch, one after
    /// another; `batch * patch_rows * patch_cols` floats in all.
    cached_cols: Vec<f32>,
    cached_batch: usize,
    /// Work space while training: one panel's `[c_out, n]` (GEMM output,
    /// or the output gradient in panel layout) and the lowering's row, or
    /// the input gradient's (see [`PatchMap::input_grad`]).
    scratch: Vec<f32>,
}

impl Conv2d {
    /// New conv layer over input `[c_in, h, w]`.
    pub fn new(
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let geom = ConvGeom {
            c_in,
            h,
            w,
            kh: k,
            kw: k,
            stride,
            pad,
        };
        Conv2d {
            geom,
            // Also validates the geometry eagerly.
            map: Arc::new(PatchMap::new(&geom, panel_samples(&geom))),
            c_out,
            cached_cols: Vec::new(),
            cached_batch: 0,
            scratch: Vec::new(),
        }
    }

    /// Samples lowered into one patch panel, from the geometry alone.
    pub fn panel_samples(&self) -> usize {
        panel_samples(&self.geom)
    }

    fn weight_len(&self) -> usize {
        self.c_out * self.geom.patch_rows()
    }

    /// Floats of work space a training step takes: one panel's
    /// `[c_out, n]` at the widest and [`PatchMap::lower_panel`]'s, or
    /// [`PatchMap::input_grad`]'s.
    fn train_work(&self, widest: usize) -> usize {
        (self.c_out * widest + self.map.lower_work()).max(self.map.input_grad_work(self.c_out))
    }

    /// The backward pass, panel by panel: parameter gradients always, the
    /// input gradient into `grad_in` when somebody will read it.
    fn backward_panels(
        &mut self,
        params: &[f32],
        grad_params: &mut [f32],
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
    ) {
        let batch = self.cached_batch;
        assert!(batch > 0, "conv backward without forward(train=true)");
        assert_eq!(grad_out.rows(), batch);
        let c_out = self.c_out;
        let pr = self.geom.patch_rows();
        let pc = self.geom.patch_cols();
        assert_eq!(grad_out.cols(), c_out * pc);
        let (w, _) = params.split_at(self.weight_len());
        let (gw, gb) = grad_params.split_at_mut(self.weight_len());

        let per_panel = self.panel_samples();
        let widest = per_panel.min(batch) * pc;
        let work_len = self.train_work(widest);
        let work = work_space(&mut self.scratch, work_len);
        for s0 in (0..batch).step_by(per_panel) {
            let nb = per_panel.min(batch - s0);
            let n = nb * pc;
            let cols = &self.cached_cols[s0 * pr * pc..(s0 + nb) * pr * pc];
            // The panel's output gradient as [c_out, n], sample s at
            // column offset s·pc like the patches.
            let go = &mut work[..c_out * n];
            for s in 0..nb {
                let row = grad_out.row(s0 + s); // [c_out, pc]
                for (c, g) in gb.iter_mut().enumerate() {
                    let gs = &row[c * pc..(c + 1) * pc];
                    // gb[c] += Σ spatial go
                    *g += gs.iter().sum::<f32>();
                    go[c * n + s * pc..c * n + (s + 1) * pc].copy_from_slice(gs);
                }
            }
            // gW[c_out, pr] += go · colsᵀ  (A·Bᵀ on [c_out,n]·[pr,n]ᵀ)
            matmul_a_bt_into(go, cols, gw, c_out, n, pr);
        }
        if let Some(grad_in) = grad_in {
            let (go, gx) = (grad_out.as_slice(), grad_in.as_mut_slice());
            self.map.input_grad(w, c_out, go, gx, work);
        }
    }
}

/// Samples lowered into one patch panel of `geom`.
fn panel_samples(geom: &ConvGeom) -> usize {
    (PANEL_FLOATS / (geom.patch_rows() * geom.patch_cols())).max(1)
}

/// The first `len` floats of a layer's work space, growing it on first
/// use.
fn work_space(scratch: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(
            in_features,
            self.geom.input_len(),
            "conv input width mismatch"
        );
        self.c_out * self.geom.patch_cols()
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.c_out
    }

    fn init_params(&self, params: &mut [f32], rng: &mut Xoshiro256pp) {
        init_weights_biases(
            params,
            self.weight_len(),
            he_std(self.geom.patch_rows()),
            rng,
        );
    }

    fn forward(&mut self, params: &[f32], input: &Tensor, train: bool) -> Tensor {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.geom.input_len(),
            "conv forward width mismatch"
        );
        let (w, b) = params.split_at(self.weight_len());
        let c_out = self.c_out;
        let pr = self.geom.patch_rows();
        let pc = self.geom.patch_cols();
        let mut out = Tensor::zeros(&[batch, c_out * pc]);
        if train {
            self.cached_cols.resize(batch * pr * pc, 0.0);
            self.cached_batch = batch;
        }
        let per_panel = self.panel_samples();
        let widest = per_panel.min(batch) * pc;
        // Training lowers into `cached_cols`, and sizes the work space for
        // the backward pass too; only evaluation takes patches from it,
        // and drops it with the call: an evaluation-only model holds no
        // panel-sized buffers.
        let (y_len, lower_len) = (c_out * widest, self.map.lower_work());
        let mut unretained = Vec::new();
        let (scratch, work_len) = if train {
            let len = self.train_work(widest);
            (&mut self.scratch, len)
        } else {
            (&mut unretained, y_len + lower_len + pr * widest)
        };
        let (y, work) = work_space(scratch, work_len).split_at_mut(y_len);
        let (lower_work, patches) = work.split_at_mut(lower_len);
        let len = self.geom.input_len();
        for s0 in (0..batch).step_by(per_panel) {
            let nb = per_panel.min(batch - s0);
            let n = nb * pc;
            let cols = if train {
                &mut self.cached_cols[s0 * pr * pc..(s0 + nb) * pr * pc]
            } else {
                &mut patches[..pr * n]
            };
            let images = &input.as_slice()[s0 * len..(s0 + nb) * len];
            self.map.lower_panel(images, cols, lower_work);
            // [c_out, pr] · [pr, n] -> [c_out, n]
            let y = &mut y[..c_out * n];
            y.fill(0.0);
            matmul_into(w, cols, y, c_out, pr, n);
            for s in 0..nb {
                let orow = out.row_mut(s0 + s);
                for (c, &bias) in b.iter().enumerate() {
                    let ys = &y[c * n + s * pc..c * n + (s + 1) * pc];
                    for (o, v) in orow[c * pc..(c + 1) * pc].iter_mut().zip(ys) {
                        *o = v + bias;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&[grad_out.rows(), self.geom.input_len()]);
        self.backward_panels(params, grad_params, grad_out, Some(&mut grad_in));
        grad_in
    }

    fn backward_params(&mut self, params: &[f32], grad_params: &mut [f32], grad_out: &Tensor) {
        self.backward_panels(params, grad_params, grad_out, None);
    }

    fn release_cache(&mut self) {
        self.cached_cols = Vec::new();
        self.cached_batch = 0;
        self.scratch = Vec::new();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Non-overlapping 2×2 average pooling over `[c, h, w]`.
///
/// Each pair of input rows, which `h` being even lines up with one output
/// row across channels and samples alike, is one output row. A window
/// sums from `0.0` in row-major order and each input gradient is written
/// as `0.0 + g`, as a `+=` onto zeros would be, so a `-0.0` comes out as
/// `+0.0`.
#[derive(Clone)]
pub struct AvgPool2d {
    c: usize,
    h: usize,
    w: usize,
}

impl AvgPool2d {
    /// New pooling layer; `h` and `w` must be even.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "pool input dims must be even"
        );
        AvgPool2d { c, h, w }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(
            in_features,
            self.c * self.h * self.w,
            "pool input width mismatch"
        );
        self.c * (self.h / 2) * (self.w / 2)
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor, _train: bool) -> Tensor {
        let mut out = Tensor::zeros(&[input.rows(), self.c * (self.h / 2) * (self.w / 2)]);
        let rows = input.as_slice().chunks_exact(2 * self.w);
        for (rows, o) in rows.zip(out.as_mut_slice().chunks_exact_mut(self.w / 2)) {
            let (r0, r1) = rows.split_at(self.w);
            for ((o, a), b) in o.iter_mut().zip(r0.chunks_exact(2)).zip(r1.chunks_exact(2)) {
                *o = (0.0 + a[0] + a[1] + b[0] + b[1]) * 0.25;
            }
        }
        out
    }

    fn backward(&mut self, _params: &[f32], _grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.cols(), self.c * (self.h / 2) * (self.w / 2));
        let mut grad_in = Tensor::zeros(&[grad_out.rows(), self.c * self.h * self.w]);
        let rows = grad_in.as_mut_slice().chunks_exact_mut(2 * self.w);
        for (rows, go) in rows.zip(grad_out.as_slice().chunks_exact(self.w / 2)) {
            let (r0, r1) = rows.split_at_mut(self.w);
            for ((a, b), &g) in r0.chunks_exact_mut(2).zip(r1.chunks_exact_mut(2)).zip(go) {
                let g = 0.0 + g * 0.25;
                a.fill(g);
                b.fill(g);
            }
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `[c, h, w] → [c]`.
#[derive(Clone)]
pub struct GlobalAvgPool {
    c: usize,
    spatial: usize,
}

impl GlobalAvgPool {
    /// New global pooling over `[c, h, w]`.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        GlobalAvgPool { c, spatial: h * w }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "gap"
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(
            in_features,
            self.c * self.spatial,
            "gap input width mismatch"
        );
        self.c
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor, _train: bool) -> Tensor {
        let batch = input.rows();
        let mut out = Tensor::zeros(&[batch, self.c]);
        let inv = 1.0 / self.spatial as f32;
        for s in 0..batch {
            let x = input.row(s);
            let o = out.row_mut(s);
            for c in 0..self.c {
                o[c] = x[c * self.spatial..(c + 1) * self.spatial]
                    .iter()
                    .sum::<f32>()
                    * inv;
            }
        }
        out
    }

    fn backward(&mut self, _params: &[f32], _grad_params: &mut [f32], grad_out: &Tensor) -> Tensor {
        let batch = grad_out.rows();
        assert_eq!(grad_out.cols(), self.c);
        let mut grad_in = Tensor::zeros(&[batch, self.c * self.spatial]);
        let inv = 1.0 / self.spatial as f32;
        for s in 0..batch {
            let go = grad_out.row(s);
            let gi = grad_in.row_mut(s);
            for c in 0..self.c {
                let g = go[c] * inv;
                gi[c * self.spatial..(c + 1) * self.spatial].fill(g);
            }
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
#[path = "../../tensor/tests/support/reference.rs"]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{
        assert_bits_eq, matmul_a_bt_into_ref, matmul_at_b_into_ref, matmul_into_ref,
    };
    use super::*;
    use fedwcm_stats::rng::Rng;
    use fedwcm_tensor::im2col::{col2im, im2col};

    /// The lowering `Conv2d` replaced, kept as the oracle: one im2col and
    /// one reference GEMM per sample. Returns the output, and the input
    /// gradient for `grad_out` with `grads` accumulated.
    fn per_sample_reference(
        geom: &ConvGeom,
        c_out: usize,
        params: &[f32],
        input: &Tensor,
        grad_out: &Tensor,
        grads: &mut [f32],
    ) -> (Tensor, Tensor) {
        let (pr, pc) = (geom.patch_rows(), geom.patch_cols());
        let (w, b) = params.split_at(c_out * pr);
        let (gw, gb) = grads.split_at_mut(c_out * pr);
        let batch = input.rows();
        let mut out = Tensor::zeros(&[batch, c_out * pc]);
        let mut grad_in = Tensor::zeros(&[batch, geom.input_len()]);
        let mut cols = vec![0.0f32; pr * pc];
        let mut gcols = vec![0.0f32; pr * pc];
        for s in 0..batch {
            im2col(geom, input.row(s), &mut cols);
            let orow = out.row_mut(s);
            matmul_into_ref(w, &cols, orow, c_out, pr, pc);
            for (c, &bias) in b.iter().enumerate() {
                for y in &mut orow[c * pc..(c + 1) * pc] {
                    *y += bias;
                }
            }
            let go = grad_out.row(s);
            matmul_a_bt_into_ref(go, &cols, gw, c_out, pc, pr);
            for (c, g) in gb.iter_mut().enumerate() {
                *g += go[c * pc..(c + 1) * pc].iter().sum::<f32>();
            }
            gcols.fill(0.0);
            matmul_at_b_into_ref(w, go, &mut gcols, c_out, pr, pc);
            col2im(geom, &gcols, grad_in.row_mut(s));
        }
        (out, grad_in)
    }

    /// Bits equal, except that any NaN matches any NaN: Rust leaves the
    /// sign and payload of a NaN an arithmetic operation produces
    /// unspecified, so the GEMM and its reference may differ there.
    fn assert_bits_eq_nan(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what} element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn panel_lowering_matches_per_sample_reference() {
        // The three ResLite geometries at a training step (40), a ragged
        // panel (9 and 37 are full panels of the stem and 4×4 stage, and
        // of the 2×2 stage), an evaluation batch (256) and one image; then
        // a stride-2 / pad-0 layer on both sides of its panel boundary.
        const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (c_in, hw, c_out, stride, pad) in [
            (3, 8, 12, 1, 1),
            (12, 4, 12, 1, 1),
            (12, 2, 12, 1, 1),
            (4, 13, 5, 2, 0),
        ] {
            let mut conv = Conv2d::new(c_in, hw, hw, c_out, 3, stride, pad);
            let panel = conv.panel_samples();
            assert!(panel > 1, "geometry must batch for the test to bite");
            let mut rng = Xoshiro256pp::seed_from(21);
            let mut params = vec![0.0; conv.param_len()];
            conv.init_params(&mut params, &mut rng);
            let w_len = conv.weight_len();
            for b in &mut params[w_len..] {
                *b = rng.next_f32() - 0.5;
            }
            let in_len = conv.geom.input_len();
            let out_len = conv.out_features(in_len);
            let (pr, pc) = (conv.geom.patch_rows(), conv.geom.patch_cols());
            let batches = if stride == 1 {
                vec![1, 9, 37, 40, 256]
            } else {
                vec![1, panel - 1, panel, panel + 1, 2 * panel + 3]
            };
            for batch in batches {
                let what =
                    |name: &str| format!("{name}, {c_in}x{hw}x{hw} stride {stride}, batch {batch}");
                let mut x = Tensor::randn(&[batch, in_len], 1.0, &mut rng);
                // NaN, ±inf and -0.0 in turn, at seeded input positions.
                for k in 0..4 + batch / 16 {
                    let at = rng.index(batch * in_len);
                    x.as_mut_slice()[at] = SPECIALS[k % SPECIALS.len()];
                }
                let go = Tensor::randn(&[batch, out_len], 1.0, &mut rng);
                // Preloaded gradients: both sides accumulate onto them.
                let g0: Vec<f32> = (0..params.len()).map(|_| rng.next_f32() - 0.5).collect();
                let (mut got_g, mut want_g) = (g0.clone(), g0);
                let (want_y, want_gx) =
                    per_sample_reference(&conv.geom, c_out, &params, &x, &go, &mut want_g);

                let eval_y = conv.forward(&params, &x, false);
                assert_bits_eq_nan(eval_y.as_slice(), want_y.as_slice(), &what("eval output"));
                let y = conv.forward(&params, &x, true);
                assert_bits_eq_nan(y.as_slice(), want_y.as_slice(), &what("output"));
                // The panels themselves are copies: every bit, NaN
                // payloads and the sign of zero included.
                let mut cols = vec![0.0f32; pr * pc];
                for s in 0..batch {
                    im2col(&conv.geom, x.row(s), &mut cols);
                    let (s0, i) = (s / panel * panel, s % panel);
                    let n = panel.min(batch - s0) * pc;
                    let panel_cols = &conv.cached_cols[s0 * pr * pc..s0 * pr * pc + pr * n];
                    for (r, want) in cols.chunks_exact(pc).enumerate() {
                        let got = &panel_cols[r * n + i * pc..r * n + (i + 1) * pc];
                        assert_bits_eq(got, want, &what(&format!("sample {s} patch row {r}")));
                    }
                }
                let gx = conv.backward(&params, &mut got_g, &go);
                assert_bits_eq(gx.as_slice(), want_gx.as_slice(), &what("input gradient"));
                assert_bits_eq(&got_g[w_len..], &want_g[w_len..], &what("bias gradient"));
                // One long dot product per panel re-associates the sum
                // over samples: close, not bitwise. A non-finite sum is
                // NaN or its infinity in any order.
                let scale = want_g[..w_len]
                    .iter()
                    .filter(|v| v.is_finite())
                    .fold(0.0f32, |m, v| m.max(v.abs()));
                for (i, (g, w)) in got_g[..w_len].iter().zip(&want_g[..w_len]).enumerate() {
                    let close = if w.is_finite() {
                        (g - w).abs() <= 1e-4 * scale
                    } else {
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
                    };
                    assert!(close, "{} element {i}: {g} vs {w}", what("weight gradient"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv backward without forward(train=true)")]
    fn backward_after_eval_only_forward_panics() {
        let mut conv = Conv2d::new(1, 3, 3, 2, 3, 1, 1);
        let params = vec![0.1; conv.param_len()];
        let x = Tensor::zeros(&[2, 9]);
        let y = conv.forward(&params, &x, false);
        let mut grads = vec![0.0; params.len()];
        let _ = conv.backward(&params, &mut grads, &y);
    }

    #[test]
    fn conv_identity_kernel_passthrough() {
        // 1×1 kernel with weight 1 reproduces the input channel.
        let mut conv = Conv2d::new(1, 3, 3, 1, 1, 1, 0);
        let params = vec![1.0, 0.0]; // w=1, b=0
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 9]);
        let y = conv.forward(&params, &x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_known_sum_kernel() {
        // 2×2 all-ones kernel on a 2×2 input, no pad → single output = sum.
        let mut conv = Conv2d::new(1, 2, 2, 1, 2, 1, 0);
        let params = vec![1.0, 1.0, 1.0, 1.0, 0.5]; // bias 0.5
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = conv.forward(&params, &x, false);
        assert_eq!(y.as_slice(), &[10.5]);
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let mut conv = Conv2d::new(2, 5, 5, 3, 3, 1, 1);
        let mut params = vec![0.0; conv.param_len()];
        conv.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[2, 2 * 5 * 5], 1.0, &mut rng);
        let out_len = conv.out_features(2 * 5 * 5);
        let proj = Tensor::randn(&[2, out_len], 1.0, &mut rng);
        let objective = |p: &[f32], c: &mut Conv2d| -> f32 {
            let y = c.forward(p, &x, false);
            y.as_slice()
                .iter()
                .zip(proj.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let _ = conv.forward(&params, &x, true);
        let mut grads = vec![0.0; params.len()];
        let gx = conv.backward(&params, &mut grads, &proj);
        let eps = 1e-2;
        for i in (0..params.len()).step_by(17) {
            let mut p = params.clone();
            p[i] += eps;
            let up = objective(&p, &mut conv);
            p[i] -= 2.0 * eps;
            let down = objective(&p, &mut conv);
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads[i]).abs() < 0.1,
                "param {i}: fd {fd} vs {}",
                grads[i]
            );
        }
        // Spot-check input gradient.
        let xs = x.as_slice().to_vec();
        for i in (0..xs.len()).step_by(13) {
            let mut xp = xs.clone();
            xp[i] += eps;
            let t = Tensor::from_vec(xp.clone(), &[2, 50]);
            let up: f32 = {
                let y = conv.forward(&params, &t, false);
                y.as_slice()
                    .iter()
                    .zip(proj.as_slice())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            xp[i] -= 2.0 * eps;
            let t = Tensor::from_vec(xp, &[2, 50]);
            let down: f32 = {
                let y = conv.forward(&params, &t, false);
                y.as_slice()
                    .iter()
                    .zip(proj.as_slice())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let fd = (up - down) / (2.0 * eps);
            assert!((fd - gx.as_slice()[i]).abs() < 0.1, "input {i}");
        }
    }

    #[test]
    fn avgpool_forward_means() {
        let mut pool = AvgPool2d::new(1, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = pool.forward(&[], &x, false);
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn avgpool_backward_distributes() {
        let mut pool = AvgPool2d::new(1, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let _ = pool.forward(&[], &x, true);
        let go = Tensor::from_vec(vec![8.0], &[1, 1]);
        let gi = pool.backward(&[], &mut [], &go);
        assert_eq!(gi.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    /// The reference for `AvgPool2d`, plain loops with the factor read at
    /// run time: forward output and backward input gradient.
    fn pool_reference(
        (c, h, w, f): (usize, usize, usize, usize),
        x: &Tensor,
        go: &Tensor,
    ) -> (Tensor, Tensor) {
        let (oh, ow) = (h / f, w / f);
        let mut out = Tensor::zeros(&[x.rows(), c * oh * ow]);
        let mut grad_in = Tensor::zeros(&[x.rows(), c * h * w]);
        let inv = 1.0 / (f * f) as f32;
        for s in 0..x.rows() {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let at = |dy: usize, dx: usize| (ch * h + oy * f + dy) * w + ox * f + dx;
                        let mut acc = 0.0f32;
                        for dy in 0..f {
                            for dx in 0..f {
                                acc += x.row(s)[at(dy, dx)];
                            }
                        }
                        let o = (ch * oh + oy) * ow + ox;
                        out.row_mut(s)[o] = acc * inv;
                        let g = go.row(s)[o] * inv;
                        for dy in 0..f {
                            for dx in 0..f {
                                grad_in.row_mut(s)[at(dy, dx)] += g;
                            }
                        }
                    }
                }
            }
        }
        (out, grad_in)
    }

    #[test]
    fn avgpool_matches_the_plain_loops() {
        let mut rng = Xoshiro256pp::seed_from(9);
        for (c, h, w) in [(1, 2, 2), (3, 2, 6), (3, 4, 6), (12, 8, 8)] {
            let mut pool = AvgPool2d::new(c, h, w);
            let x = Tensor::randn(&[4, c * h * w], 1.0, &mut rng);
            let go = Tensor::randn(&[4, c * h * w / 4], 1.0, &mut rng);
            let (want_y, want_gx) = pool_reference((c, h, w, 2), &x, &go);
            let y = pool.forward(&[], &x, true);
            let at = format!("{c}x{h}x{w}");
            assert_bits_eq(y.as_slice(), want_y.as_slice(), &format!("forward, {at}"));
            let gx = pool.backward(&[], &mut [], &go);
            assert_bits_eq(
                gx.as_slice(),
                want_gx.as_slice(),
                &format!("backward, {at}"),
            );
        }
    }

    /// Pooling's sums start at `0.0`, so a window of `-0.0` averages to
    /// `+0.0`, and a `-0.0` output gradient spreads as `+0.0`; a NaN
    /// stays in its window.
    #[test]
    fn avgpool_first_add_turns_negative_zero_positive() {
        let mut pool = AvgPool2d::new(1, 2, 4);
        let mut x = vec![-0.0f32; 8];
        x[2] = f32::NAN;
        let y = pool.forward(&[], &Tensor::from_vec(x, &[1, 8]), true);
        let y = y.as_slice();
        assert!(y[0].to_bits() == 0 && y[1].is_nan(), "forward: {y:?}");
        let go = Tensor::from_vec(vec![-0.0, f32::NAN], &[1, 2]);
        let gx = pool.backward(&[], &mut [], &go);
        // Row-major over the 1×2×4 input: the first window is the left two
        // columns of both rows.
        for (i, g) in gx.as_slice().iter().enumerate() {
            let first = i % 4 < 2;
            assert_eq!(first, g.to_bits() == 0, "element {i}: {g}");
            assert_eq!(!first, g.is_nan(), "element {i}: {g}");
        }
    }

    #[test]
    fn gap_forward_backward() {
        let mut gap = GlobalAvgPool::new(2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], &[1, 8]);
        let y = gap.forward(&[], &x, true);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let go = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let gi = gap.backward(&[], &mut [], &go);
        assert_eq!(&gi.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&gi.as_slice()[4..], &[2.0; 4]);
    }

    #[test]
    fn avgpool_adjoint_property() {
        // <pool(x), y> == <x, pool_backward(y)>
        let mut rng = Xoshiro256pp::seed_from(6);
        let mut pool = AvgPool2d::new(3, 4, 4);
        let x = Tensor::randn(&[2, 48], 1.0, &mut rng);
        let y = pool.forward(&[], &x, true);
        let g = Tensor::randn(&[2, 12], 1.0, &mut rng);
        let gi = pool.backward(&[], &mut [], &g);
        let lhs: f32 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(gi.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3);
        let _ = rng.next_u64();
    }
}
