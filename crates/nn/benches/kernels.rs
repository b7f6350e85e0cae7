//! Kernel throughput benchmarks: the numeric substrate under every
//! federated round at the shapes a training step issues, plus the
//! tiled-vs-naive matmul ablation.

use fedwcm_nn::conv::AvgPool2d;
use fedwcm_nn::opt::momentum_blend;
use fedwcm_nn::Layer;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{ConvGeom, PatchMap};
use fedwcm_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use fedwcm_tensor::{ops, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[path = "../../tensor/tests/support/reference.rs"]
mod reference;
use reference::matmul_naive;

/// The three GEMM entry points at the shapes a training step really
/// issues (median time per call; flops are `2·m·k·n`): the ResLite panels
/// `Conv2d` forms at a 40-sample step — nine samples a stem or 4×4 panel,
/// 37 a 2×2 panel, and the ragged last panels — its classifier, and the
/// MLP's dense layers at its step batch of 10; then the forward GEMMs of
/// evaluation (the 600-sample test set as 256-row batches and a ragged
/// one of 88, through the MLP's two dense layers and ResLite's
/// classifier), each `a_bt` row beside an `into` row of equal
/// multiply-accumulates. They run whatever kernel instance this machine
/// selects. One naive row is the ablation.
fn bench_gemm() {
    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    type Shapes = &'static [(usize, usize, usize)];
    const ENTRY_POINTS: [(&str, Gemm, Shapes); 3] = [
        (
            "into",
            matmul_into,
            &[
                (12, 27, 576),
                (12, 108, 144),
                (12, 108, 148),
                (12, 108, 12),
                (10, 256, 64),
                (10, 10, 256),
                (256, 256, 64),
                (88, 256, 64),
                (256, 10, 256),
                (88, 10, 256),
                (256, 10, 12),
                (88, 10, 12),
            ],
        ),
        (
            "a_bt",
            matmul_a_bt_into,
            &[
                (12, 576, 27),
                (12, 144, 108),
                (12, 148, 108),
                (12, 12, 108),
                (40, 12, 10),
                (10, 64, 256),
                (10, 256, 10),
                (256, 64, 256),
                (88, 64, 256),
                (256, 256, 10),
                (88, 256, 10),
                (256, 12, 10),
                (88, 12, 10),
            ],
        ),
        (
            "at_b",
            matmul_at_b_into,
            &[
                (12, 108, 144),
                (12, 108, 148),
                (12, 108, 12),
                (10, 256, 64),
                (10, 10, 256),
            ],
        ),
    ];
    let mut rng = Xoshiro256pp::seed_from(1);
    for (name, gemm, shapes) in ENTRY_POINTS {
        for &(m, k, n) in shapes {
            // Operand lengths by entry point: `a` is always `[m, k]`.
            let (b_len, c_len) = match name {
                "into" => (k * n, m * n),
                "a_bt" => (n * k, m * n),
                _ => (m * n, k * n),
            };
            let a = Tensor::randn(&[m * k], 1.0, &mut rng);
            let b = Tensor::randn(&[b_len], 1.0, &mut rng);
            let mut out = vec![0.0f32; c_len];
            bench(&format!("gemm/{name}/{m}x{k}x{n}"), || {
                out.fill(0.0);
                gemm(black_box(a.as_slice()), b.as_slice(), &mut out, m, k, n);
            });
        }
    }
    let (m, k, n) = (12, 108, 144);
    let a = Tensor::randn(&[m * k], 1.0, &mut rng);
    let b = Tensor::randn(&[k * n], 1.0, &mut rng);
    bench(&format!("gemm/naive/{m}x{k}x{n}"), || {
        matmul_naive(black_box(a.as_slice()), b.as_slice(), m, k, n)
    });
}

/// Row-parallel `A·B` against the same product inline, either side of
/// `fedwcm_tensor::matmul`'s `PAR_FLOP_MIN` (multiply-accumulates, `m·k·n`):
/// the floor sits where the two-thread row stops losing to the one-thread
/// row, i.e. where half the product costs more than one scoped spawn.
/// Below the floor both rows run the same inline code.
fn bench_gemm_par() {
    let mut rng = Xoshiro256pp::seed_from(3);
    for (m, k, n) in [
        (128, 256, 128),
        (192, 256, 160),
        (256, 256, 256),
        (512, 256, 256),
        (512, 512, 256),
    ] {
        let a = Tensor::randn(&[m * k], 1.0, &mut rng);
        let b = Tensor::randn(&[k * n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        for threads in [1usize, 2] {
            bench(&format!("gemm_par/into_{threads}t/{m}x{k}x{n}"), || {
                out.fill(0.0);
                fedwcm_parallel::with_intra_threads(threads, || {
                    matmul_into(black_box(a.as_slice()), b.as_slice(), &mut out, m, k, n);
                });
            });
        }
    }
}

fn bench_blas1() {
    let n = 1 << 16;
    let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    let mut y: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
    bench("blas1/axpy_64k", || {
        ops::axpy(black_box(0.5), black_box(&x), black_box(&mut y));
    });
    bench("blas1/dot_64k", || ops::dot(black_box(&x), black_box(&y)));
    let m: Vec<f32> = (0..n).map(|i| (i as f32 * 0.5).sin()).collect();
    bench("blas1/momentum_blend_64k", || {
        momentum_blend(
            black_box(&mut y),
            black_box(&x),
            black_box(&m),
            black_box(0.1),
            black_box(1e-6),
        );
    });
}

/// The work around a ResLite step's GEMMs, at the step's batch of 40:
/// each conv geometry lowered one panel at a time as `Conv2d` lowers it
/// (a full panel — 9 images at the stem and 4×4 stage, 37 at 2×2 — and
/// the ragged last one, 4 or 3 images), the input gradient of the two
/// residual geometries (12 output channels; the stem computes none), and
/// the first pooling layer.
fn bench_lowering() {
    const BATCH: usize = 40;
    const C_OUT: usize = 12;
    let mut rng = Xoshiro256pp::seed_from(2);
    for (c_in, hw, images) in [(3usize, 8usize, 9usize), (12, 4, 9), (12, 2, 37)] {
        let geom = ConvGeom {
            c_in,
            h: hw,
            w: hw,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let map = PatchMap::new(&geom, images);
        let pc = geom.patch_cols();
        let x = Tensor::randn(&[BATCH, geom.input_len()], 1.0, &mut rng);
        let w = Tensor::randn(&[C_OUT, geom.patch_rows()], 1.0, &mut rng);
        let go = Tensor::randn(&[BATCH, C_OUT * pc], 1.0, &mut rng);
        let mut grads = Tensor::zeros(&[BATCH, geom.input_len()]);
        let mut work = vec![0.0f32; map.input_grad_work(C_OUT).max(map.lower_work())];
        let mut panel = vec![0.0f32; geom.patch_rows() * images * pc];
        let shape = format!("{c_in}x{hw}x{hw}");
        for nb in [images, BATCH % images] {
            let x = &x.as_slice()[..nb * geom.input_len()];
            let panel = &mut panel[..geom.patch_rows() * nb * pc];
            bench(&format!("lowering/lower_panel/{shape}/{nb}"), || {
                map.lower_panel(black_box(x), panel, &mut work);
            });
        }
        if c_in == 3 {
            continue;
        }
        bench(&format!("lowering/input_grad/{shape}"), || {
            map.input_grad(
                black_box(w.as_slice()),
                C_OUT,
                black_box(go.as_slice()),
                grads.as_mut_slice(),
                &mut work,
            );
        });
    }
    let mut pool = AvgPool2d::new(12, 8, 8);
    let x = Tensor::randn(&[BATCH, 12 * 8 * 8], 1.0, &mut rng);
    let go = Tensor::randn(&[BATCH, 12 * 4 * 4], 1.0, &mut rng);
    bench("lowering/avgpool2d_fwd_40x12x8x8", || {
        pool.forward(&[], black_box(&x), true)
    });
    bench("lowering/avgpool2d_bwd_40x12x8x8", || {
        pool.backward(&[], &mut [], black_box(&go))
    });
}

/// The server's two sweeps over a round of `mlp_xdev` uploads (50 of
/// 19,210 parameters): the containment filter's squared norms, four
/// uploads at a time, and the weighted sum the aggregation writes, four
/// uploads to a pass.
fn bench_round_sweeps() {
    const UPLOADS: usize = 50;
    const PARAMS: usize = 19_210;
    let deltas: Vec<Vec<f32>> = (0..UPLOADS)
        .map(|k| (0..PARAMS).map(|i| ((i * 7 + k) as f32).sin()).collect())
        .collect();
    let refs: Vec<&[f32]> = deltas.iter().map(Vec::as_slice).collect();
    let weights: Vec<f32> = (0..UPLOADS).map(|k| 1.0 / (k + 1) as f32).collect();
    let mut out = vec![0.0f32; PARAMS];
    bench("aggregation/gate_norms_50x19210", || {
        ops::norms_sq(black_box(&refs))
    });
    bench("aggregation/weighted_average_50x19210", || {
        ops::axpy_sum(black_box(&mut out), UPLOADS, |k| (weights[k], refs[k]));
    });
}

fn bench_weighted_sum() {
    // DESIGN.md ablation 4: deterministic parallel reduction vs sequential.
    let n = 1 << 17;
    let parts: Vec<Vec<f32>> = (0..10)
        .map(|k| (0..n).map(|i| ((i + k) as f32).sin()).collect())
        .collect();
    let refs: Vec<(&[f32], f32)> = parts.iter().map(|p| (p.as_slice(), 0.1f32)).collect();
    for threads in [1usize, 4] {
        bench(
            &format!("aggregation/weighted_sum_10x128k/{threads}"),
            || {
                let mut acc = vec![0.0f32; n];
                fedwcm_parallel::weighted_sum_into(&mut acc, black_box(&refs), threads);
                acc
            },
        );
    }
}

/// Timing samples per row.
const SAMPLES: usize = 20;

/// Time `f` and print one row: calibrate a batch of calls to about
/// 2 ms, time [`SAMPLES`] batches, and report the median nanoseconds a
/// call. Every result goes through `black_box`.
fn bench<O>(id: &str, mut f: impl FnMut() -> O) {
    let mut batch = |calls: u64| {
        let t0 = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        t0.elapsed()
    };
    let mut calls = 1u64;
    while batch(calls) < Duration::from_millis(2) && calls < 1 << 20 {
        calls *= 4;
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| batch(calls).as_nanos() as f64 / calls as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    println!(
        "bench: {id:<48} {:>14.1} ns/iter (median of {SAMPLES})",
        ns[SAMPLES / 2]
    );
}

fn main() {
    bench_gemm();
    bench_gemm_par();
    bench_lowering();
    bench_blas1();
    bench_weighted_sum();
    bench_round_sweeps();
}
