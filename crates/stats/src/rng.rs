//! Core pseudo-random generator: xoshiro256++ with splitmix64 seeding.
//!
//! xoshiro256++ (Blackman & Vigna, 2019) is the standard fast, high-quality
//! non-cryptographic generator; splitmix64 is the recommended seeder and
//! also serves as our stream-splitting hash, so that each
//! `(seed, round, client, purpose)` tuple gets a statistically independent
//! stream regardless of how many worker threads execute the simulation.

/// Minimal RNG interface used throughout the workspace.
///
/// Implementors must produce uniformly distributed `u64`s; all the derived
/// helpers (floats, ranges, shuffles) are provided.
pub trait Rng {
    /// Next uniformly distributed 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; divide by 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be nonzero");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle in place.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement,
    /// returned in ascending order. Panics if `k > n`.
    ///
    /// This is the client-sampling primitive: `P_r ⊂ {1..K}` each round.
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n} without replacement");
        // Partial Fisher–Yates over an index vector: O(n) setup, O(k) swaps.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

/// splitmix64 step: the recommended seeding function for xoshiro.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent sub-seed from a base seed and a stream label.
///
/// Experiments key their streams as
/// `split_seed(seed, &[round, client_id, PURPOSE])`, which makes every
/// stochastic decision reproducible independent of execution order.
pub fn split_seed(seed: u64, labels: &[u64]) -> u64 {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    let mut out = splitmix64(&mut s);
    for &l in labels {
        s ^= l.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        out ^= splitmix64(&mut s).rotate_left(17);
    }
    out
}

/// First-position stream labels: what a stream is *for*.
///
/// Every `Xoshiro256pp::stream(seed, &[LABEL, …])` in the workspace
/// names its purpose with one of these, so two purposes cannot share a
/// label by accident — the table is one screen, and a unit test asserts
/// the values pairwise distinct. Distinct labels are what keeps fault
/// and network draws from correlating with training and sampling draws
/// under one seed (`crates/fl/tests/stream_independence.rs` states the
/// property end to end). The values are frozen: changing one moves
/// every bit drawn from its stream.
pub mod stream {
    macro_rules! labels {
        ($($(#[$doc:meta])* $id:ident = $v:literal;)*) => {
            $($(#[$doc])* pub const $id: u64 = $v;)*

            /// Every label of the table, by name.
            pub const ALL: &[(&str, u64)] = &[$((stringify!($id), $v)),*];
        };
    }

    labels! {
        /// `fl`: the cohort sampled in a round, keyed `(round)`.
        SAMPLE = 0x5A3B;
        /// `fl`: one client's local training (batch order), keyed
        /// `(round, client)`.
        LOCAL = 0xC11E;
        /// `faults`: client-fault draws, keyed `(round, client)`.
        FAULT = 0xFA17;
        /// `transport`: frame-level network fault draws, keyed
        /// `(round, client, attempt)`.
        NET = 0x4E17;
        /// `transport`: retry-backoff jitter, keyed like [`NET`] and
        /// apart from it so backoff timing never perturbs the fault
        /// schedule.
        NET_JITTER = 0x4E77;
        /// `data::synth`: class prototypes.
        DATA_PROTO = 0xDA7A_0001;
        /// `data::synth`: training samples.
        DATA_TRAIN = 0xDA7A_0002;
        /// `data::synth`: test samples.
        DATA_TEST = 0xDA7A_0003;
        /// `data::partition`: the paper's partition, keyed
        /// `(clients, β bits)`.
        PARTITION_PAPER = 0x9A27;
        /// `data::partition`: the FedGrab partition, keyed alike.
        PARTITION_FEDGRAB = 0xFED6;
        /// `he::protocol`: key generation (`0`) and per-client
        /// encryption noise (`1 + client`).
        HE_PROTOCOL = 0x4E1;
    }
}

/// xoshiro256++ generator state.
///
/// Period 2^256 − 1; passes BigCrush. Not cryptographically secure (the HE
/// crate uses its own wider construction for noise sampling but seeds it
/// from here — the reproduction does not claim cryptographic security).
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via four splitmix64 draws, per the reference implementation.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is invalid; splitmix64 cannot produce it from any
        // seed, but guard anyway.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Xoshiro256pp { s }
    }

    /// Seed an independent stream from `(seed, labels)`; see [`split_seed`].
    pub fn stream(seed: u64, labels: &[u64]) -> Self {
        Self::seed_from(split_seed(seed, labels))
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_labels_are_pairwise_distinct() {
        for (i, (a, va)) in stream::ALL.iter().enumerate() {
            for (b, vb) in &stream::ALL[i + 1..] {
                assert_ne!(va, vb, "stream labels {a} and {b} share {va:#X}");
            }
        }
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Xoshiro256pp::seed_from(42);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from(1);
        let mut b = Xoshiro256pp::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_near_half() {
        let mut r = Xoshiro256pp::seed_from(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_unbiased_small_bound() {
        let mut r = Xoshiro256pp::seed_from(9);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn sample_indices_distinct_sorted_and_in_range() {
        let mut r = Xoshiro256pp::seed_from(11);
        for _ in 0..100 {
            let s = r.sample_indices(50, 10);
            assert_eq!(s.len(), 10);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_population() {
        let mut r = Xoshiro256pp::seed_from(11);
        let s = r.sample_indices(8, 8);
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_uniform_inclusion() {
        // Each of n=10 items should appear in a k=3 sample with prob 0.3.
        let mut r = Xoshiro256pp::seed_from(13);
        let mut hits = [0usize; 10];
        let trials = 50_000;
        for _ in 0..trials {
            for i in r.sample_indices(10, 3) {
                hits[i] += 1;
            }
        }
        for &h in &hits {
            let frac = h as f64 / trials as f64;
            assert!((frac - 0.3).abs() < 0.02, "inclusion prob {frac}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256pp::seed_from(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_seed_labels_matter() {
        let a = split_seed(42, &[1, 2, 3]);
        let b = split_seed(42, &[1, 2, 4]);
        let c = split_seed(42, &[3, 2, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And stable:
        assert_eq!(a, split_seed(42, &[1, 2, 3]));
    }

    #[test]
    fn stream_independence_rough() {
        // Streams for adjacent clients should be uncorrelated: compare the
        // sign agreement of centered draws.
        let mut a = Xoshiro256pp::stream(42, &[0, 1]);
        let mut b = Xoshiro256pp::stream(42, &[0, 2]);
        let n = 20_000;
        let agree = (0..n)
            .filter(|_| (a.next_f64() < 0.5) == (b.next_f64() < 0.5))
            .count();
        let frac = agree as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "sign agreement {frac}");
    }

    #[test]
    #[should_panic]
    fn sample_more_than_population_panics() {
        let mut r = Xoshiro256pp::seed_from(1);
        let _ = r.sample_indices(3, 4);
    }
}
