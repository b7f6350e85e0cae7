//! Kernel throughput benchmarks: the numeric substrate under every
//! federated round at the shapes a training step issues, plus the
//! tiled-vs-naive matmul ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedwcm_nn::conv::AvgPool2d;
use fedwcm_nn::opt::momentum_blend;
use fedwcm_nn::Layer;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{ConvGeom, PatchMap};
use fedwcm_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use fedwcm_tensor::{ops, Tensor};
use std::hint::black_box;

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
fn bench_gemm(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("gemm");
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
            group.bench_function(BenchmarkId::new(name, format!("{m}x{k}x{n}")), |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    gemm(black_box(a.as_slice()), b.as_slice(), &mut out, m, k, n);
                });
            });
        }
    }
    let (m, k, n) = (12, 108, 144);
    let a = Tensor::randn(&[m * k], 1.0, &mut rng);
    let b = Tensor::randn(&[k * n], 1.0, &mut rng);
    group.bench_function(BenchmarkId::new("naive", format!("{m}x{k}x{n}")), |bch| {
        bch.iter(|| black_box(matmul_naive(black_box(a.as_slice()), b.as_slice(), m, k, n)));
    });
    group.finish();
}

/// Row-parallel `A·B` against the same product inline, either side of
/// `fedwcm_tensor::matmul`'s `PAR_FLOP_MIN` (multiply-accumulates, `m·k·n`):
/// the floor sits where the two-thread row stops losing to the one-thread
/// row, i.e. where half the product costs more than one scoped spawn.
/// Below the floor both rows run the same inline code.
fn bench_gemm_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_par");
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
            let id = BenchmarkId::new(format!("into_{threads}t"), format!("{m}x{k}x{n}"));
            group.bench_function(id, |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    fedwcm_parallel::with_intra_threads(threads, || {
                        matmul_into(black_box(a.as_slice()), b.as_slice(), &mut out, m, k, n);
                    });
                });
            });
        }
    }
    group.finish();
}

fn bench_blas1(c: &mut Criterion) {
    let mut group = c.benchmark_group("blas1");
    let n = 1 << 16;
    let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    let mut y: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
    group.bench_function("axpy_64k", |b| {
        b.iter(|| {
            ops::axpy(black_box(0.5), black_box(&x), black_box(&mut y));
        });
    });
    group.bench_function("dot_64k", |b| {
        b.iter(|| black_box(ops::dot(black_box(&x), black_box(&y))));
    });
    group.bench_function("momentum_blend_64k", |b| {
        b.iter(|| {
            momentum_blend(black_box(&mut y), black_box(&x), black_box(0.1));
        });
    });
    group.finish();
}

/// The data movement around a ResLite step's GEMMs, at the step's batch
/// of 40: each conv geometry lowered and scattered back in panel layout
/// (40 images side by side, as `Conv2d` places them), and the first
/// pooling layer.
fn bench_lowering(c: &mut Criterion) {
    const BATCH: usize = 40;
    let mut group = c.benchmark_group("lowering");
    let mut rng = Xoshiro256pp::seed_from(2);
    for (c_in, hw) in [(3usize, 8usize), (12, 4), (12, 2)] {
        let geom = ConvGeom {
            c_in,
            h: hw,
            w: hw,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let map = PatchMap::new(&geom);
        let (pc, ld) = (geom.patch_cols(), BATCH * geom.patch_cols());
        let images = Tensor::randn(&[BATCH, geom.input_len()], 1.0, &mut rng);
        let mut grads = Tensor::zeros(&[BATCH, geom.input_len()]);
        let mut panel = vec![0.0f32; geom.patch_rows() * ld];
        let shape = format!("{c_in}x{hw}x{hw}");
        group.bench_function(BenchmarkId::new("patch_map_lower", &shape), |b| {
            b.iter(|| {
                for s in 0..BATCH {
                    map.lower(black_box(images.row(s)), &mut panel, ld, s * pc);
                }
            });
        });
        group.bench_function(BenchmarkId::new("patch_map_scatter_add", &shape), |b| {
            b.iter(|| {
                for s in 0..BATCH {
                    map.scatter_add(black_box(&panel), ld, s * pc, grads.row_mut(s));
                }
            });
        });
    }
    let mut pool = AvgPool2d::new(12, 8, 8, 2);
    let x = Tensor::randn(&[BATCH, 12 * 8 * 8], 1.0, &mut rng);
    let go = Tensor::randn(&[BATCH, 12 * 4 * 4], 1.0, &mut rng);
    group.bench_function("avgpool2d_fwd_40x12x8x8", |b| {
        b.iter(|| black_box(pool.forward(&[], black_box(&x), true)));
    });
    group.bench_function("avgpool2d_bwd_40x12x8x8", |b| {
        b.iter(|| black_box(pool.backward(&[], &mut [], black_box(&go))));
    });
    group.finish();
}

fn bench_weighted_sum(c: &mut Criterion) {
    // DESIGN.md ablation 4: deterministic parallel reduction vs sequential.
    let mut group = c.benchmark_group("aggregation");
    let n = 1 << 17;
    let parts: Vec<Vec<f32>> = (0..10)
        .map(|k| (0..n).map(|i| ((i + k) as f32).sin()).collect())
        .collect();
    let refs: Vec<(&[f32], f32)> = parts.iter().map(|p| (p.as_slice(), 0.1f32)).collect();
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("weighted_sum_10x128k", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let mut acc = vec![0.0f32; n];
                    fedwcm_parallel::weighted_sum_into(&mut acc, black_box(&refs), t);
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_gemm_par, bench_lowering, bench_blas1, bench_weighted_sum
);
criterion_main!(kernels);
