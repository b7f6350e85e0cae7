//! Kernel throughput benchmarks: the numeric substrate under every
//! federated round, plus the tiled-vs-naive matmul ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedwcm_nn::conv::AvgPool2d;
use fedwcm_nn::opt::momentum_blend;
use fedwcm_nn::Layer;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{ConvGeom, PatchMap};
use fedwcm_tensor::matmul::{matmul, matmul_a_bt};
use fedwcm_tensor::{ops, Tensor};
use std::hint::black_box;

#[path = "../../tensor/tests/support/reference.rs"]
mod reference;
use reference::matmul_naive;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = Xoshiro256pp::seed_from(1);
    for n in [32usize, 128] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("tiled", n), &n, |bch, _| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| {
                black_box(matmul_naive(
                    black_box(a.as_slice()),
                    black_box(b.as_slice()),
                    n,
                    n,
                    n,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("a_bt", n), &n, |bch, _| {
            bch.iter(|| black_box(matmul_a_bt(black_box(&a), black_box(&b))));
        });
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
    targets = bench_matmul, bench_lowering, bench_blas1, bench_weighted_sum
);
criterion_main!(kernels);
