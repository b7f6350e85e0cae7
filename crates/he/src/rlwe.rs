//! Symmetric RLWE encryption with additive homomorphism.

use crate::ring::{addq, modq, negacyclic_mul_sparse, subq, to_signed, Q};
use fedwcm_stats::rng::{Rng, Xoshiro256pp};

/// Scheme parameters.
#[derive(Clone, Copy, Debug)]
pub struct RlweParams {
    /// Ring degree `N` (power of two). Also the max packable vector length.
    pub degree: usize,
    /// Plaintext modulus `t` (counts must stay below `t` after summation).
    pub plain_modulus: u64,
    /// Hamming weight of the ternary secret.
    pub secret_weight: usize,
    /// Noise magnitude bound (uniform in `[-noise, noise]`).
    pub noise_bound: u64,
}

impl RlweParams {
    /// BFV-shaped defaults: `N = 4096`, `t = 2^20`, sparse ternary secret.
    pub fn default_params() -> Self {
        RlweParams {
            degree: 4096,
            plain_modulus: 1 << 20,
            secret_weight: 64,
            noise_bound: 8,
        }
    }

    /// Smaller parameters for fast tests.
    pub fn test_params() -> Self {
        RlweParams {
            degree: 256,
            plain_modulus: 1 << 16,
            secret_weight: 16,
            noise_bound: 4,
        }
    }

    /// Scaling factor `Δ = q / t`.
    pub fn delta(&self) -> u64 {
        Q / self.plain_modulus
    }

    /// Serialized ciphertext size in bytes: two polynomials of `N`
    /// 8-byte coefficients.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.degree * 8
    }

    fn validate(&self) {
        assert!(
            self.degree.is_power_of_two() && self.degree >= 16,
            "degree must be a power of two ≥ 16"
        );
        assert!(
            self.plain_modulus >= 2 && self.plain_modulus <= Q / 4,
            "bad plaintext modulus"
        );
        assert!(self.secret_weight >= 2 && self.secret_weight <= self.degree / 2);
        assert!(self.noise_bound >= 1);
    }
}

/// A sparse ternary secret key.
#[derive(Clone, Debug)]
pub struct SecretKey {
    params: RlweParams,
    plus: Vec<usize>,
    minus: Vec<usize>,
}

impl SecretKey {
    /// Generate a fresh key.
    pub fn generate(params: RlweParams, rng: &mut Xoshiro256pp) -> Self {
        params.validate();
        let positions = rng.sample_indices(params.degree, params.secret_weight);
        let (mut plus, mut minus) = (Vec::new(), Vec::new());
        for p in positions {
            if rng.bernoulli(0.5) {
                plus.push(p);
            } else {
                minus.push(p);
            }
        }
        // Guarantee both signs appear (degenerate keys weaken nothing
        // functionally, but keep the distribution sane).
        if plus.is_empty() {
            if let Some(p) = minus.pop() {
                plus.push(p);
            }
        }
        if minus.is_empty() {
            if let Some(p) = plus.pop() {
                minus.push(p);
            }
        }
        SecretKey {
            params,
            plus,
            minus,
        }
    }

    /// Scheme parameters bound to this key.
    pub fn params(&self) -> &RlweParams {
        &self.params
    }

    /// Encrypt a vector of small non-negative integers (coefficient
    /// packing: value `i` goes into coefficient `i`). The vector must fit
    /// in the ring degree and each value below the plaintext modulus.
    pub fn encrypt(&self, values: &[u64], rng: &mut Xoshiro256pp) -> Ciphertext {
        let p = &self.params;
        assert!(values.len() <= p.degree, "too many values for ring degree");
        assert!(
            values.iter().all(|&v| v < p.plain_modulus),
            "plaintext value exceeds modulus"
        );
        let n = p.degree;
        let delta = p.delta();

        // c1 = a ← uniform R_q
        let c1: Vec<u64> = (0..n).map(|_| modq(rng.next_u64())).collect();
        // c0 = a·s + e + Δ·m
        let mut c0 = vec![0u64; n];
        negacyclic_mul_sparse(&c1, &self.plus, &self.minus, &mut c0);
        for c in c0.iter_mut() {
            // e = draw − noise ∈ [−noise, noise], added mod q
            let draw = rng.next_below(2 * p.noise_bound + 1);
            *c = subq(addq(*c, draw), p.noise_bound);
        }
        for (c, &v) in c0.iter_mut().zip(values) {
            *c = addq(*c, delta.wrapping_mul(v) & (Q - 1));
        }
        Ciphertext { c0, c1, added: 1 }
    }

    /// Decrypt to a vector of `len` values.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rem_euclid by plain_modulus, a u64, leaves a value in [0, plain_modulus)"
    )]
    pub fn decrypt(&self, ct: &Ciphertext, len: usize) -> Vec<u64> {
        let p = &self.params;
        assert!(len <= p.degree, "requested length exceeds ring degree");
        assert_eq!(ct.c0.len(), p.degree, "ciphertext degree mismatch");
        let delta = p.delta() as i128;
        // m̃ = c0 + c1·(−s) = Δ·m + e_total: the secret's signs swapped,
        // accumulated onto a copy of c0.
        let mut noisy = ct.c0.clone();
        negacyclic_mul_sparse(&ct.c1, &self.minus, &self.plus, &mut noisy);
        noisy[..len]
            .iter()
            .map(|&x| {
                let v = to_signed(x) as i128;
                let m = (v + delta / 2).div_euclid(delta);
                m.rem_euclid(p.plain_modulus as i128) as u64
            })
            .collect()
    }
}

/// An RLWE ciphertext (pair of ring elements).
#[derive(Clone, Debug)]
pub struct Ciphertext {
    c0: Vec<u64>,
    c1: Vec<u64>,
    /// How many fresh ciphertexts have been summed into this one (noise
    /// grows linearly; tracked for budget assertions).
    pub added: usize,
}

impl Ciphertext {
    /// Homomorphic addition: `Enc(m1) + Enc(m2) = Enc(m1 + m2)`.
    pub fn add_assign(&mut self, other: &Ciphertext) {
        assert_eq!(self.c0.len(), other.c0.len(), "ciphertext degree mismatch");
        for (x, &y) in self.c0.iter_mut().zip(&other.c0) {
            *x = addq(*x, y);
        }
        for (x, &y) in self.c1.iter_mut().zip(&other.c1) {
            *x = addq(*x, y);
        }
        self.added += other.added;
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        (self.c0.len() + self.c1.len()) * 8
    }

    /// Serialize to the wire format: little-endian degree header followed
    /// by `c0` then `c1` coefficients.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.byte_len());
        out.extend_from_slice(&(self.c0.len() as u64).to_le_bytes());
        for &x in self.c0.iter().chain(&self.c1) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Parse the wire format produced by [`Ciphertext::to_bytes`].
    /// Returns `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Ciphertext> {
        let (header, body) = bytes.split_first_chunk::<8>()?;
        // `n` is off the wire: the length it implies is computed checked
        // and compared with the bytes actually present before anything is
        // reserved, so what is reserved is bounded by `body.len()`.
        let n = usize::try_from(u64::from_le_bytes(*header)).ok()?;
        if n == 0 || !n.is_power_of_two() || n.checked_mul(16)? != body.len() {
            return None;
        }
        let mut coeffs = Vec::with_capacity(body.len() / 8);
        for chunk in body.chunks_exact(8) {
            let v = u64::from_le_bytes(chunk.try_into().ok()?);
            if v >= crate::ring::Q {
                return None;
            }
            coeffs.push(v);
        }
        let c1 = coeffs.split_off(n);
        Some(Ciphertext {
            c0: coeffs,
            c1,
            added: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(seed: u64) -> (SecretKey, Xoshiro256pp) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let key = SecretKey::generate(RlweParams::test_params(), &mut rng);
        (key, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (key, mut rng) = setup(1);
        let values: Vec<u64> = (0..100).map(|i| (i * 7) % 1000).collect();
        let ct = key.encrypt(&values, &mut rng);
        assert_eq!(key.decrypt(&ct, values.len()), values);
    }

    #[test]
    fn zero_and_max_values() {
        let (key, mut rng) = setup(2);
        let t = key.params().plain_modulus;
        let values = vec![0u64, t - 1, 1, 0];
        let ct = key.encrypt(&values, &mut rng);
        assert_eq!(key.decrypt(&ct, 4), values);
    }

    #[test]
    fn homomorphic_addition() {
        let (key, mut rng) = setup(3);
        let a = vec![10u64, 20, 30];
        let b = vec![1u64, 2, 3];
        let mut ca = key.encrypt(&a, &mut rng);
        let cb = key.encrypt(&b, &mut rng);
        ca.add_assign(&cb);
        assert_eq!(key.decrypt(&ca, 3), vec![11, 22, 33]);
        assert_eq!(ca.added, 2);
    }

    #[test]
    fn many_party_aggregation_is_exact() {
        let (key, mut rng) = setup(4);
        let parties = 100usize;
        let classes = 10usize;
        let mut expected = vec![0u64; classes];
        let mut acc: Option<Ciphertext> = None;
        for p in 0..parties {
            let counts: Vec<u64> = (0..classes)
                .map(|c| ((p * 31 + c * 7) % 50) as u64)
                .collect();
            for (e, &c) in expected.iter_mut().zip(&counts) {
                *e += c;
            }
            let ct = key.encrypt(&counts, &mut rng);
            match acc.as_mut() {
                None => acc = Some(ct),
                Some(a) => a.add_assign(&ct),
            }
        }
        let total = acc.unwrap();
        assert_eq!(total.added, parties);
        assert_eq!(key.decrypt(&total, classes), expected);
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let (key, mut rng) = setup(5);
        let (other, _) = setup(6);
        let values = vec![42u64; 8];
        let ct = key.encrypt(&values, &mut rng);
        let wrong = other.decrypt(&ct, 8);
        assert_ne!(wrong, values, "wrong key should not decrypt");
    }

    #[test]
    fn ciphertexts_randomised() {
        let (key, mut rng) = setup(7);
        let values = vec![5u64; 4];
        let c1 = key.encrypt(&values, &mut rng);
        let c2 = key.encrypt(&values, &mut rng);
        assert_ne!(c1.c0, c2.c0, "ciphertexts must be probabilistic");
    }

    #[test]
    fn ciphertext_size_independent_of_payload() {
        let (key, mut rng) = setup(8);
        let small = key.encrypt(&[1], &mut rng);
        let large = key.encrypt(&vec![1u64; 200], &mut rng);
        assert_eq!(small.byte_len(), large.byte_len());
        assert_eq!(small.byte_len(), key.params().ciphertext_bytes());
    }

    #[test]
    fn serialization_roundtrip() {
        let (key, mut rng) = setup(10);
        let values = vec![17u64, 0, 999, 3];
        let ct = key.encrypt(&values, &mut rng);
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), 8 + ct.byte_len());
        let back = Ciphertext::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(key.decrypt(&back, 4), values);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(Ciphertext::from_bytes(&[]).is_none());
        assert!(Ciphertext::from_bytes(&[0u8; 8]).is_none()); // n = 0
                                                              // Truncated body.
        let mut bad = Vec::new();
        bad.extend_from_slice(&16u64.to_le_bytes());
        bad.extend_from_slice(&[0u8; 16]);
        assert!(Ciphertext::from_bytes(&bad).is_none());
        // Out-of-range coefficient.
        let mut oob = Vec::new();
        oob.extend_from_slice(&1u64.to_le_bytes());
        oob.extend_from_slice(&u64::MAX.to_le_bytes());
        oob.extend_from_slice(&0u64.to_le_bytes());
        assert!(Ciphertext::from_bytes(&oob).is_none());
    }

    #[test]
    #[should_panic]
    fn oversized_plaintext_rejected() {
        let (key, mut rng) = setup(9);
        let t = key.params().plain_modulus;
        let _ = key.encrypt(&[t], &mut rng);
    }
}
