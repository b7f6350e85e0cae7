//! Golden ciphertext bytes at the scheme's default parameters (N = 4096,
//! q = 2^62, t = 2^20). Each digest (`he_golden/*` in
//! `results/golden.tsv`) is the 64-bit FNV-1a of
//! `Ciphertext::to_bytes()` for a fixed key seed and stream seed, so a
//! change to the negacyclic product, the order of the RNG draws, the
//! packing or the homomorphic sum that moves one ciphertext bit fails
//! here; the decrypted vectors are checked alongside.

use fedwcm_he::rlwe::{Ciphertext, RlweParams, SecretKey};
use fedwcm_stats::rng::Xoshiro256pp;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::Golden;

const KEY_SEED: u64 = 0x00C0_FFEE;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn key() -> SecretKey {
    SecretKey::generate(
        RlweParams::default_params(),
        &mut Xoshiro256pp::seed_from(KEY_SEED),
    )
}

/// `len` values spread over the whole plaintext range `[0, 2^20)`.
fn spread(len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (i * 40_503 + 17) % (1 << 20))
        .collect()
}

#[test]
fn fresh_ciphertexts_match_their_golden_digests() {
    let key = key();
    let mut golden = Golden::new("he_golden/fresh");
    for len in [1, 10, 100, 4096] {
        let values = spread(len);
        let ct = key.encrypt(&values, &mut Xoshiro256pp::seed_from(len as u64));
        let bytes = ct.to_bytes();
        golden.check(&len.to_string(), format!("{:#018x}", fnv1a(&bytes)));
        assert_eq!(key.decrypt(&ct, len), values, "length {len}");
        let back = Ciphertext::from_bytes(&bytes).expect("the bytes parse back");
        assert_eq!(back.to_bytes(), bytes, "length {len}");
    }
    golden.finish();
}

/// 200 clients' 100-class counts summed into client 0's ciphertext, as
/// the §5.5 protocol sums them: the sum's bytes and its decryption.
#[test]
fn a_200_ciphertext_sum_matches_its_golden_digest() {
    let key = key();
    let (clients, classes) = (200u64, 100usize);
    let counts = |p: u64| -> Vec<u64> {
        (0..classes as u64)
            .map(|c| (p * 131 + c * 29) % 5_000)
            .collect()
    };
    let mut rng = Xoshiro256pp::seed_from(200);
    let mut sum = key.encrypt(&counts(0), &mut rng);
    let mut expected = counts(0);
    for p in 1..clients {
        let values = counts(p);
        sum.add_assign(&key.encrypt(&values, &mut rng));
        for (e, v) in expected.iter_mut().zip(values) {
            *e += v;
        }
    }
    assert_eq!(sum.added, 200);
    let mut golden = Golden::new("he_golden/sum");
    golden.check("200", format!("{:#018x}", fnv1a(&sum.to_bytes())));
    golden.finish();
    assert_eq!(key.decrypt(&sum, classes), expected);
}
