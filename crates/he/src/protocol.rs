//! The BatchCrypt-style private distribution-aggregation protocol (§5.5).
//!
//! 1. a randomly selected client generates the key pair and shares the
//!    encryption capability (symmetric key in this functional model);
//! 2. every client encrypts its local class-count vector and uploads it;
//! 3. the server sums the ciphertexts homomorphically (never decrypting);
//! 4. the key holder decrypts the aggregate and publishes the global
//!    class distribution.
//!
//! The report mirrors Table 6's accounting: plaintext size, ciphertext
//! size, per-client encryption time, and total upload volume (which is
//! independent of the client count per ciphertext, as the paper notes).

use crate::rlwe::{RlweParams, SecretKey};
use fedwcm_stats::rng::{stream, Xoshiro256pp};
use fedwcm_trace::{Clock, WallClock};

/// Size/time accounting for one protocol run.
#[derive(Clone, Debug)]
pub struct ProtocolReport {
    /// Number of classes aggregated.
    pub classes: usize,
    /// Number of participating clients.
    pub clients: usize,
    /// Serialized plaintext size per client (bytes): 8-byte counts plus an
    /// 8-byte length header.
    pub plaintext_bytes: usize,
    /// Serialized ciphertext size per client (bytes).
    pub ciphertext_bytes: usize,
    /// Total upload volume (all clients' ciphertexts, bytes).
    pub total_upload_bytes: usize,
    /// Mean per-client encryption time (seconds).
    pub encrypt_seconds_per_client: f64,
    /// Aggregation + decryption time on the server/key-holder (seconds).
    pub aggregate_seconds: f64,
}

/// Run the full protocol over per-client class counts; returns the exact
/// global counts and the accounting report.
// The report's byte counters saturate: a bare `+` or `*` does not compile.
#[deny(clippy::arithmetic_side_effects)]
pub fn aggregate_distributions(
    client_counts: &[Vec<usize>],
    params: RlweParams,
    seed: u64,
) -> (Vec<usize>, ProtocolReport) {
    assert!(!client_counts.is_empty(), "no clients");
    let classes = client_counts[0].len();
    assert!(
        classes >= 1 && classes <= params.degree,
        "class count must fit the ring"
    );
    assert!(
        client_counts.iter().all(|c| c.len() == classes),
        "inconsistent class counts"
    );
    // Noise/overflow budget: the summed counts must stay below t.
    let max_total: u64 = (0..classes)
        .map(|c| client_counts.iter().map(|v| v[c] as u64).sum())
        .max()
        .unwrap_or(0);
    assert!(
        max_total < params.plain_modulus,
        "aggregated counts exceed the plaintext modulus"
    );

    // Step 1: key generation by a designated client.
    let mut key_rng = Xoshiro256pp::stream(seed, &[stream::HE_PROTOCOL, 0]);
    let key = SecretKey::generate(params, &mut key_rng);

    // Steps 2–3: each client encrypts and the server adds the ciphertext
    // to the running sum at once, so at most two are alive. Timings only
    // measure cost for the report (never fed back into any computation)
    // and come from the sanctioned wall-time source, fedwcm-trace's
    // `WallClock`: the encrypt ticks and the add ticks are summed apart.
    let clock = WallClock::new();
    let since = |t: u64| clock.tick().saturating_sub(t);
    let encrypt = |k: usize, counts: &[usize]| {
        let mut rng =
            Xoshiro256pp::stream(seed, &[stream::HE_PROTOCOL, (k as u64).saturating_add(1)]);
        let values: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        key.encrypt(&values, &mut rng)
    };
    let t = clock.tick();
    let mut acc = encrypt(0, &client_counts[0]);
    let (mut encrypt_ns, mut aggregate_ns) = (since(t), 0u64);
    for (k, counts) in client_counts.iter().enumerate().skip(1) {
        let t = clock.tick();
        let ct = encrypt(k, counts);
        let t_add = clock.tick();
        acc.add_assign(&ct);
        encrypt_ns = encrypt_ns.saturating_add(t_add.saturating_sub(t));
        aggregate_ns = aggregate_ns.saturating_add(since(t_add));
    }

    // Step 4: key-holder decryption.
    let t = clock.tick();
    let decrypted = key.decrypt(&acc, classes);
    aggregate_ns = aggregate_ns.saturating_add(since(t));
    let encrypt_seconds_per_client = encrypt_ns as f64 / 1e9 / client_counts.len() as f64;
    let aggregate_seconds = aggregate_ns as f64 / 1e9;

    let global: Vec<usize> = decrypted
        .iter()
        .map(|&v| usize::try_from(v).unwrap_or(usize::MAX))
        .collect();
    let ciphertext_bytes = params.ciphertext_bytes();
    let report = ProtocolReport {
        classes,
        clients: client_counts.len(),
        plaintext_bytes: classes.saturating_mul(8).saturating_add(8),
        ciphertext_bytes,
        total_upload_bytes: ciphertext_bytes.saturating_mul(client_counts.len()),
        encrypt_seconds_per_client,
        aggregate_seconds,
    };
    (global, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_for(clients: usize, classes: usize) -> Vec<Vec<usize>> {
        (0..clients)
            .map(|k| (0..classes).map(|c| (k * 13 + c * 5) % 40).collect())
            .collect()
    }

    #[test]
    fn protocol_recovers_exact_global_counts() {
        let counts = counts_for(20, 10);
        let mut expected = vec![0usize; 10];
        for row in &counts {
            for (e, &c) in expected.iter_mut().zip(row) {
                *e += c;
            }
        }
        let (global, report) = aggregate_distributions(&counts, RlweParams::test_params(), 42);
        assert_eq!(global, expected);
        assert_eq!(report.clients, 20);
        assert_eq!(report.classes, 10);
    }

    #[test]
    fn ciphertext_size_constant_in_classes() {
        let params = RlweParams::test_params();
        let (_, r10) = aggregate_distributions(&counts_for(5, 10), params, 1);
        let (_, r100) = aggregate_distributions(&counts_for(5, 100), params, 1);
        assert_eq!(r10.ciphertext_bytes, r100.ciphertext_bytes);
        // While the plaintext grows linearly — Table 6's contrast.
        assert!(r100.plaintext_bytes > r10.plaintext_bytes * 5);
    }

    #[test]
    fn upload_scales_with_clients_not_classes() {
        let params = RlweParams::test_params();
        let (_, r5) = aggregate_distributions(&counts_for(5, 10), params, 1);
        let (_, r50) = aggregate_distributions(&counts_for(50, 10), params, 1);
        assert_eq!(r50.total_upload_bytes, 10 * r5.total_upload_bytes);
    }

    #[test]
    #[should_panic]
    fn overflow_budget_enforced() {
        // Counts that would exceed the plaintext modulus must be rejected.
        let params = RlweParams::test_params(); // t = 2^16
        let counts = vec![vec![60_000usize; 4]; 3];
        let _ = aggregate_distributions(&counts, params, 1);
    }

    #[test]
    fn deterministic_result_per_seed() {
        let counts = counts_for(8, 12);
        let params = RlweParams::test_params();
        let (a, _) = aggregate_distributions(&counts, params, 9);
        let (b, _) = aggregate_distributions(&counts, params, 9);
        assert_eq!(a, b);
    }
}
