//! Negacyclic polynomial arithmetic in `Z_q[x]/(x^N + 1)` with `q = 2^62`.
//!
//! Coefficients live in `u64` reduced mod `q`; since `q` is a power of
//! two, reduction is a mask. Negacyclic convolution wraps `x^N = −1`.
//!
//! Because `q = 2^62` divides `2^64`, a chain of wrapping `u64` additions
//! and subtractions masked once at the end equals the same chain masked
//! after every term. [`negacyclic_mul_sparse`] relies on that to sum a
//! block of output coefficients over all taps in registers and mask once.

/// Ciphertext modulus `q = 2^62`.
pub const Q: u64 = 1 << 62;
/// Mask for reduction mod `q`.
pub const Q_MASK: u64 = Q - 1;

/// Reduce mod q.
#[inline]
pub fn modq(x: u64) -> u64 {
    x & Q_MASK
}

/// Addition mod q.
#[inline]
pub fn addq(a: u64, b: u64) -> u64 {
    (a.wrapping_add(b)) & Q_MASK
}

/// Subtraction mod q.
#[inline]
pub fn subq(a: u64, b: u64) -> u64 {
    (a.wrapping_sub(b)) & Q_MASK
}

/// Output coefficients per block of the product. Sixteen `u64`
/// accumulators stay in registers across all taps; blocks of eight and of
/// thirty-two measured slower.
const BLOCK: usize = 16;

/// Negacyclic product of a dense polynomial `a` by a **sparse ternary**
/// polynomial given as signed positions: `plus` are the indices with
/// coefficient +1, `minus` with −1. Accumulates into `out` (pre-zeroed by
/// the caller if a fresh product is wanted); panics on an index ≥ N.
///
/// With `ext = [−a, a]`, the term `a·x^k` puts `ext[N + i − k]` on
/// coefficient `i`: `a[i − k]` for `i ≥ k`, and the wrapped `−a[N + i − k]`
/// (`x^N = −1`) below. Each block of [`BLOCK`] output coefficients sums
/// every tap's window of `ext` in wrapping `u64` arithmetic and is masked
/// once as it is added to `out`. Since `q = 2^62` divides `2^64`, that is
/// bit for bit what an `addq` / `subq` per term leaves, whatever `out`
/// held. A tail shorter than a block takes the same sum one coefficient
/// at a time.
pub fn negacyclic_mul_sparse(a: &[u64], plus: &[usize], minus: &[usize], out: &mut [u64]) {
    let n = a.len();
    assert_eq!(out.len(), n, "output length mismatch");
    assert!(
        plus.iter().chain(minus).all(|&k| k < n),
        "sparse index out of range"
    );
    if plus.is_empty() && minus.is_empty() {
        // Nothing is added, so nothing is reduced either.
        return;
    }
    let ext: Vec<u64> = a
        .iter()
        .map(|x| x.wrapping_neg())
        .chain(a.iter().copied())
        .collect();
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for (i, block) in (0..).step_by(BLOCK).zip(blocks.by_ref()) {
        let sum: [u64; BLOCK] = tap_sum(&ext, n + i, plus, minus);
        for (o, s) in block.iter_mut().zip(sum) {
            *o = addq(*o, s);
        }
    }
    let tail = blocks.into_remainder();
    let start = n - tail.len();
    for (i, o) in (start..).zip(tail) {
        let [s] = tap_sum(&ext, n + i, plus, minus);
        *o = addq(*o, s);
    }
}

/// `Σ_plus ext[at − k .. at − k + W] − Σ_minus …`, lane by lane, wrapping.
#[inline(always)]
fn tap_sum<const W: usize>(ext: &[u64], at: usize, plus: &[usize], minus: &[usize]) -> [u64; W] {
    let mut acc = [0u64; W];
    for &k in plus {
        for (s, &x) in acc.iter_mut().zip(&ext[at - k..][..W]) {
            *s = s.wrapping_add(x);
        }
    }
    for &k in minus {
        for (s, &x) in acc.iter_mut().zip(&ext[at - k..][..W]) {
            *s = s.wrapping_sub(x);
        }
    }
    acc
}

/// Interpret a mod-q coefficient as a signed value in `(−q/2, q/2]`.
#[inline]
#[expect(
    clippy::cast_possible_wrap,
    reason = "each branch casts a magnitude of at most q/2 = 2^61, which fits i64"
)]
pub fn to_signed(x: u64) -> i64 {
    if x > Q / 2 {
        -((Q - x) as i64)
    } else {
        x as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_stats::rng::{Rng, Xoshiro256pp};

    #[test]
    fn mod_arithmetic_wraps() {
        assert_eq!(addq(Q - 1, 2), 1);
        assert_eq!(subq(0, 1), Q - 1);
    }

    #[test]
    fn sparse_mul_identity() {
        // Multiplying by x^0 (plus = [0]) is the identity.
        let a = vec![3u64, 1, 4, 1];
        let mut out = vec![0u64; 4];
        negacyclic_mul_sparse(&a, &[0], &[], &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn sparse_mul_shift_wraps_negacyclically() {
        // a = 1 (constant). a·x^3 in degree-4 ring = x^3; a·x^4 = −1.
        let a = vec![1u64, 0, 0, 0];
        let mut out = vec![0u64; 4];
        negacyclic_mul_sparse(&a, &[3], &[], &mut out);
        assert_eq!(out, vec![0, 0, 0, 1]);
        // Shift of x^1 by x^3: x^4 = −1.
        let x1 = vec![0u64, 1, 0, 0];
        let mut out = vec![0u64; 4];
        negacyclic_mul_sparse(&x1, &[3], &[], &mut out);
        assert_eq!(out, vec![Q - 1, 0, 0, 0]);
    }

    #[test]
    fn sparse_mul_matches_dense_reference() {
        // Compare against a naive dense negacyclic product for a ternary
        // second operand.
        let n = 16usize;
        let a: Vec<u64> = (0..n as u64).map(|i| i * 37 + 5).collect();
        let plus = [1usize, 7, 12];
        let minus = [0usize, 9];
        // Dense reference.
        let mut s = vec![0i64; n];
        for &p in &plus {
            s[p] += 1;
        }
        for &m in &minus {
            s[m] -= 1;
        }
        let mut dense = vec![0i128; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &sj) in s.iter().enumerate() {
                let prod = ai as i128 * sj as i128;
                let k = i + j;
                if k < n {
                    dense[k] += prod;
                } else {
                    dense[k - n] -= prod;
                }
            }
        }
        let expect: Vec<u64> = dense
            .iter()
            .map(|&v| u64::try_from(v.rem_euclid(i128::from(Q))).unwrap())
            .collect();
        let mut out = vec![0u64; n];
        negacyclic_mul_sparse(&a, &plus, &minus, &mut out);
        assert_eq!(out, expect);
    }

    /// The per-coefficient loop [`negacyclic_mul_sparse`] shipped with:
    /// one wrap test per term.
    fn negacyclic_mul_sparse_ref(a: &[u64], plus: &[usize], minus: &[usize], out: &mut [u64]) {
        let n = a.len();
        for (ks, sign) in [(plus, false), (minus, true)] {
            for &k in ks {
                for (i, &ai) in a.iter().enumerate() {
                    let j = i + k;
                    let (at, negate) = if j < n { (j, sign) } else { (j - n, !sign) };
                    out[at] = if negate {
                        subq(out[at], ai)
                    } else {
                        addq(out[at], ai)
                    };
                }
            }
        }
    }

    /// Lengths below, at and between multiples of any block width the
    /// product may use (24 is not a multiple of 16), up to the scheme's
    /// N = 4096 with a 64-tap secret; `out` starts at or above q in one
    /// pass and reduced in the other, and both must come out as the
    /// per-term loop leaves them.
    #[test]
    fn split_shift_matches_the_per_coefficient_loop() {
        let mut rng = Xoshiro256pp::seed_from(62);
        for n in [4usize, 16, 24, 64, 4096] {
            let a: Vec<u64> = (0..n).map(|_| modq(rng.next_u64())).collect();
            let reduced: Vec<u64> = (0..n).map(|_| modq(rng.next_u64())).collect();
            let unreduced: Vec<u64> = (0..n).map(|_| rng.next_u64() | Q).collect();
            let mut cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
                (vec![], vec![]),
                (vec![0], vec![]),
                (vec![], vec![0]),
                (vec![1], vec![1]),
                (vec![n - 1], vec![]),
                (vec![], vec![n - 1]),
                (vec![0, 1, n - 1], vec![n - 1, 1, 0]),
            ];
            let most = 9.min(n + 1);
            for _ in 0..32 {
                let (np, nm) = (rng.index(most), rng.index(most));
                cases.push((rng.sample_indices(n, np), rng.sample_indices(n, nm)));
            }
            if n >= 64 {
                // A secret's shape: 64 distinct taps, each sign a coin flip.
                for _ in 0..4 {
                    let (mut plus, mut minus) = (Vec::new(), Vec::new());
                    for k in rng.sample_indices(n, 64) {
                        if rng.bernoulli(0.5) {
                            plus.push(k);
                        } else {
                            minus.push(k);
                        }
                    }
                    cases.push((plus, minus));
                }
            }
            for (plus, minus) in cases {
                for start in [&reduced, &unreduced] {
                    let (mut got, mut want) = (start.clone(), start.clone());
                    negacyclic_mul_sparse(&a, &plus, &minus, &mut got);
                    negacyclic_mul_sparse_ref(&a, &plus, &minus, &mut want);
                    assert_eq!(got, want, "n {n} plus {plus:?} minus {minus:?}");
                }
            }
        }
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(to_signed(5), 5);
        assert_eq!(to_signed(Q - 3), -3);
        assert_eq!(to_signed(Q / 2), i64::try_from(Q / 2).unwrap());
    }
}
