//! Property-based tests for the HE substrate: correctness of the scheme
//! under arbitrary inputs.

use fedwcm_he::rlwe::{Ciphertext, RlweParams, SecretKey};
use fedwcm_stats::rng::Xoshiro256pp;
use proptest::prelude::*;

/// A length header is attacker-controlled: `8 + 16·n` used to wrap for
/// `n = 2^60` (so an eight-byte buffer *passed* the length check in a
/// release build and `Vec::with_capacity(2·n)` aborted), and to panic on
/// the multiply in a test build. Every header that promises more than
/// the buffer holds is `None`, before anything is reserved.
#[test]
fn oversized_length_headers_are_rejected_without_reserving() {
    for n in [1u64 << 60, 1 << 63, u64::MAX, 1 << 59, 1 << 32] {
        assert!(
            Ciphertext::from_bytes(&n.to_le_bytes()).is_none(),
            "header n = {n:#x} over an empty body"
        );
        // The same header over a body that is real but far too short.
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 32]);
        assert!(Ciphertext::from_bytes(&bytes).is_none(), "n = {n:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encrypt_decrypt_arbitrary_vectors(
        seed in any::<u64>(),
        values in prop::collection::vec(0u64..60_000, 1..100),
    ) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let key = SecretKey::generate(RlweParams::test_params(), &mut rng);
        let ct = key.encrypt(&values, &mut rng);
        prop_assert_eq!(key.decrypt(&ct, values.len()), values);
    }

    #[test]
    fn additive_homomorphism_chain(seed in any::<u64>(), parties in 2usize..30) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let key = SecretKey::generate(RlweParams::test_params(), &mut rng);
        let classes = 8usize;
        let mut expected = vec![0u64; classes];
        let mut acc: Option<Ciphertext> = None;
        for p in 0..parties {
            let vals: Vec<u64> = (0..classes).map(|c| ((p * 13 + c * 7) % 100) as u64).collect();
            for (e, &v) in expected.iter_mut().zip(&vals) {
                *e += v;
            }
            let ct = key.encrypt(&vals, &mut rng);
            match acc.as_mut() {
                None => acc = Some(ct),
                Some(a) => a.add_assign(&ct),
            }
        }
        prop_assert_eq!(key.decrypt(&acc.unwrap(), classes), expected);
    }

    #[test]
    fn serialization_total(seed in any::<u64>(), values in prop::collection::vec(0u64..1000, 1..50)) {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let key = SecretKey::generate(RlweParams::test_params(), &mut rng);
        let ct = key.encrypt(&values, &mut rng);
        let bytes = ct.to_bytes();
        let back = Ciphertext::from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(key.decrypt(&back, values.len()), values);
        // Mutating the header or truncating must not panic.
        let mut broken = bytes.clone();
        broken.truncate(bytes.len() / 2);
        let _ = Ciphertext::from_bytes(&broken);
    }
}
