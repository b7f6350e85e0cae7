//! Scalar reference GEMMs and a bitwise comparison for differential tests
//! and benchmarks.
//!
//! Not part of any crate's API: test and bench targets pull this file in
//! with `#[path = ".../tests/support/reference.rs"] mod reference;`. The
//! three `*_into_ref` loops are the kernels `fedwcm-tensor` shipped before
//! the register-tiled ones and define, element by element, the addition
//! chain the tiled kernels must reproduce bit for bit.

#![allow(dead_code, reason = "each including target uses its own subset")]

/// Panics unless `got` and `want` agree bit for bit.
pub fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} element {i}: {g} vs {w}");
    }
}

/// Reference O(n³) naive multiply: `[m,k]·[k,n] -> [m,n]`, one scalar
/// k-ascending sum per element.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `C += A·B`, i-k-j with k-blocking and the zero-skip branch.
pub fn matmul_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    const KB: usize = 256;
    for k0 in (0..k).step_by(KB) {
        let kend = (k0 + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for kk in k0..kend {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (cj, bj) in crow.iter_mut().zip(brow) {
                    *cj += aik * bj;
                }
            }
        }
    }
}

/// `C += A·Bᵀ`, one [`dot_ref`] per output element.
pub fn matmul_a_bt_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cij) in crow.iter_mut().enumerate() {
            *cij += dot_ref(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// The four-way unrolled dot product of `fedwcm_tensor::ops::dot`.
pub fn dot_ref(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
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

/// `C += Aᵀ·B`, rank-1 updates sample by sample with the zero-skip branch.
pub fn matmul_at_b_into_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let crow = &mut c[kk * n..(kk + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    }
}
