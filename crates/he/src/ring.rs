//! Negacyclic polynomial arithmetic in `Z_q[x]/(x^N + 1)` with `q = 2^62`.
//!
//! Coefficients live in `u64` reduced mod `q`; since `q` is a power of
//! two, reduction is a mask. Negacyclic convolution wraps `x^N = −1`.

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

/// Elementwise polynomial addition.
pub fn poly_add(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert!(
        a.len() == b.len() && b.len() == out.len(),
        "poly length mismatch"
    );
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = addq(x, y);
    }
}

/// Elementwise polynomial subtraction.
pub fn poly_sub(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert!(
        a.len() == b.len() && b.len() == out.len(),
        "poly length mismatch"
    );
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = subq(x, y);
    }
}

/// Negacyclic product of a dense polynomial `a` by a **sparse ternary**
/// polynomial given as signed positions: `plus` are the indices with
/// coefficient +1, `minus` with −1. Accumulates into `out` (pre-zeroed by
/// the caller if a fresh product is wanted).
///
/// Complexity O(N · (|plus| + |minus|)) — the only product the scheme
/// needs (dense·secret), so no NTT machinery is required.
pub fn negacyclic_mul_sparse(a: &[u64], plus: &[usize], minus: &[usize], out: &mut [u64]) {
    assert_eq!(out.len(), a.len(), "output length mismatch");
    for &k in plus {
        add_shifted(a, k, out, addq, subq);
    }
    for &k in minus {
        add_shifted(a, k, out, subq, addq);
    }
}

/// `out ⊕= a · x^k`: the terms that stay below `x^N` take `straight`, the
/// ones that wrap (`x^N = −1`) take `wrapped`. The shift is cut at
/// `N − k` into two zips, so no loop tests for the wrap per coefficient.
#[inline(always)]
fn add_shifted(
    a: &[u64],
    k: usize,
    out: &mut [u64],
    straight: impl Fn(u64, u64) -> u64,
    wrapped: impl Fn(u64, u64) -> u64,
) {
    assert!(k < a.len(), "sparse index out of range");
    let (low, high) = a.split_at(a.len() - k);
    for (o, &x) in out[k..].iter_mut().zip(low) {
        *o = straight(*o, x);
    }
    for (o, &x) in out[..k].iter_mut().zip(high) {
        *o = wrapped(*o, x);
    }
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
    fn poly_add_sub_roundtrip() {
        let a = vec![1u64, Q - 1, 7, 0];
        let b = vec![5u64, 3, Q - 2, 9];
        let mut s = vec![0u64; 4];
        poly_add(&a, &b, &mut s);
        let mut back = vec![0u64; 4];
        poly_sub(&s, &b, &mut back);
        assert_eq!(back, a);
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

    #[test]
    fn split_shift_matches_the_per_coefficient_loop() {
        let n = 64usize;
        let mut rng = Xoshiro256pp::seed_from(62);
        let a: Vec<u64> = (0..n).map(|_| modq(rng.next_u64())).collect();
        let start: Vec<u64> = (0..n).map(|_| modq(rng.next_u64())).collect();
        let mut cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0], vec![]),
            (vec![], vec![0]),
            (vec![1], vec![1]),
            (vec![n - 1], vec![]),
            (vec![], vec![n - 1]),
            (vec![0, 1, n - 1], vec![n - 1, 1, 0]),
        ];
        for _ in 0..32 {
            let (np, nm) = (rng.index(9), rng.index(9));
            cases.push((rng.sample_indices(n, np), rng.sample_indices(n, nm)));
        }
        for (plus, minus) in cases {
            let (mut got, mut want) = (start.clone(), start.clone());
            negacyclic_mul_sparse(&a, &plus, &minus, &mut got);
            negacyclic_mul_sparse_ref(&a, &plus, &minus, &mut want);
            assert_eq!(got, want, "plus {plus:?} minus {minus:?}");
        }
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(to_signed(5), 5);
        assert_eq!(to_signed(Q - 3), -3);
        assert_eq!(to_signed(Q / 2), i64::try_from(Q / 2).unwrap());
    }
}
