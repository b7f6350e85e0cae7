//! Deterministic fault injection for federated simulations.
//!
//! The paper's evaluation assumes every sampled client returns a healthy
//! delta every round; production federations do not. This crate defines a
//! seeded, fully deterministic [`FaultPlan`]: a per-round, per-client
//! schedule of injected failures drawn from a dedicated RNG stream (the
//! same `Xoshiro256pp::stream` discipline the engine uses for client
//! sampling, under a fault-specific stream label). Because the plan has
//! its own seed and its own streams, attaching a plan to a simulation
//! **never perturbs** any existing RNG stream — client sampling, local
//! mini-batching, and model init draw exactly the same values with or
//! without a plan, and an all-zero-rate plan reproduces a fault-free run
//! bit for bit.
//!
//! # Fault taxonomy
//!
//! * **Dropout** — the client trains but its upload never reaches the
//!   server (crash, network partition, user closed the app).
//! * **Straggler** — the upload arrives `delay ≥ 1` rounds late; the
//!   server buffers it and merges it with a staleness discount.
//! * **Corruption** — the upload is damaged in transit/storage: NaN
//!   injection, sign flip, or norm blow-up. Injected *after* the client
//!   emitted a healthy delta, so it exercises the server's containment
//!   filter from the outside.
//! * **Replay** — a stale duplicate of the client's previous upload
//!   arrives instead of the fresh delta (retry bug, duplicated queue
//!   message).
//!
//! At most one fault is injected per `(round, client)` pair; the draw is
//! a single uniform variate partitioned by the configured rates, so the
//! schedule for any pair is a pure function of `(fault_seed, round,
//! client)` and is identical across thread counts, platforms, and runs.

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists and no unused
// dependency outside test code, no panicking shortcut anywhere; an
// exemption is an `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod rates;

use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// How an injected corruption damages a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Overwrite the first component with NaN (bit rot on the wire).
    NanInject,
    /// Negate every component (systematic encoding bug).
    SignFlip,
    /// Scale every component by `1e12` (unit/precision mix-up), pushing
    /// the norm past any sane containment threshold.
    NormBlowup,
}

/// One scheduled fault for a `(round, client)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The upload never arrives.
    Dropout,
    /// The upload arrives `delay` rounds late (`delay ≥ 1`).
    Straggler {
        /// Rounds of lateness; the staleness discount is `1/(1+delay)`.
        delay: usize,
    },
    /// The upload arrives damaged.
    Corrupt(Corruption),
    /// A stale duplicate of the client's previous upload arrives instead
    /// of the fresh delta.
    Replay,
}

/// Rates and seed defining a [`FaultPlan`].
///
/// Each rate is the per-`(round, client)` probability of that fault; the
/// rates must each lie in `[0, 1]` and sum to at most 1 (the remainder is
/// the healthy-upload probability).
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed of the dedicated fault RNG stream. Independent of the
    /// simulation seed: the same experiment can be re-run under a
    /// different fault realisation without touching any training stream.
    pub seed: u64,
    /// P(upload lost).
    pub dropout: f64,
    /// P(upload late).
    pub straggler: f64,
    /// Maximum straggler delay in rounds (delays are uniform on
    /// `1..=max_delay`); must be ≥ 1 whenever `straggler > 0`.
    pub max_delay: usize,
    /// P(upload corrupted).
    pub corruption: f64,
    /// P(stale duplicate replayed instead of the fresh upload).
    pub replay: f64,
}

impl FaultConfig {
    /// A fault-free configuration (all rates zero) under `seed`.
    pub fn zero(seed: u64) -> Self {
        FaultConfig {
            seed,
            dropout: 0.0,
            straggler: 0.0,
            max_delay: 1,
            corruption: 0.0,
            replay: 0.0,
        }
    }

    /// Validate rates; panics with context on misconfiguration.
    pub fn validate(&self) {
        rates::validate(&[
            ("dropout", self.dropout),
            ("straggler", self.straggler),
            ("corruption", self.corruption),
            ("replay", self.replay),
        ]);
        assert!(
            self.straggler == 0.0 || self.max_delay >= 1,
            "max_delay must be ≥ 1 when stragglers are enabled"
        );
    }
}

/// A seeded, fully deterministic per-round, per-client fault schedule.
///
/// The plan is stateless: [`FaultPlan::fault_for`] is a pure function, so
/// any component (engine, communication accounting, reports) can query
/// the same schedule independently and agree exactly.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Build a plan from a validated configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        cfg.validate();
        FaultPlan { cfg }
    }

    /// A plan that injects nothing (the bitwise no-op plan).
    pub fn zero(seed: u64) -> Self {
        Self::new(FaultConfig::zero(seed))
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if every rate is zero: the plan can never inject a fault.
    pub fn is_zero(&self) -> bool {
        self.cfg.dropout == 0.0
            && self.cfg.straggler == 0.0
            && self.cfg.corruption == 0.0
            && self.cfg.replay == 0.0
    }

    /// True if the plan can schedule replays. Only then does the engine
    /// keep a per-client upload cache, and a slot holds an upload only
    /// while a later round samples its client with a replay.
    pub fn has_replay(&self) -> bool {
        self.cfg.replay > 0.0
    }

    /// The fault injected for `(round, client)`, if any.
    ///
    /// A single uniform draw is partitioned by the configured rates in a
    /// fixed order (dropout, straggler, corruption, replay); straggler
    /// delay and corruption kind come from follow-up draws on the same
    /// dedicated stream.
    pub fn fault_for(&self, round: usize, client: usize) -> Option<FaultKind> {
        if self.is_zero() {
            return None;
        }
        let mut rng =
            Xoshiro256pp::stream(self.cfg.seed, &[stream::FAULT, round as u64, client as u64]);
        let u = rng.next_f64();
        match rates::pick(
            u,
            &[
                self.cfg.dropout,
                self.cfg.straggler,
                self.cfg.corruption,
                self.cfg.replay,
            ],
        ) {
            Some(0) => Some(FaultKind::Dropout),
            Some(1) => {
                let delay = 1 + rng.index(self.cfg.max_delay);
                Some(FaultKind::Straggler { delay })
            }
            Some(2) => {
                let kind = match rng.index(3) {
                    0 => Corruption::NanInject,
                    1 => Corruption::SignFlip,
                    _ => Corruption::NormBlowup,
                };
                Some(FaultKind::Corrupt(kind))
            }
            Some(3) => Some(FaultKind::Replay),
            _ => None,
        }
    }

    /// The faults scheduled for one round over the given sampled clients,
    /// as `(client, fault)` pairs in the order of `clients`.
    pub fn schedule(&self, round: usize, clients: &[usize]) -> Vec<(usize, FaultKind)> {
        clients
            .iter()
            .filter_map(|&c| self.fault_for(round, c).map(|f| (c, f)))
            .collect()
    }
}

/// Apply `corruption` to a delta in place (the transport-layer damage the
/// engine injects between client emission and server aggregation).
pub fn corrupt_delta(delta: &mut [f32], corruption: Corruption) {
    match corruption {
        Corruption::NanInject => {
            if let Some(d) = delta.first_mut() {
                *d = f32::NAN;
            }
        }
        Corruption::SignFlip => {
            for d in delta.iter_mut() {
                *d = -*d;
            }
        }
        Corruption::NormBlowup => {
            for d in delta.iter_mut() {
                *d *= 1e12;
            }
        }
    }
}

/// The staleness discount applied to a delta arriving `s` rounds late:
/// `1/(1+s)`. A fresh delta (`s = 0`) is undiscounted.
pub fn staleness_discount(s: usize) -> f32 {
    1.0 / (1.0 + s as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            dropout: 0.3,
            straggler: 0.1,
            max_delay: 3,
            corruption: 0.05,
            replay: 0.05,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = FaultPlan::new(chaos_cfg(7));
        let b = FaultPlan::new(chaos_cfg(7));
        for round in 0..50 {
            for client in 0..20 {
                assert_eq!(a.fault_for(round, client), b.fault_for(round, client));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(chaos_cfg(1));
        let b = FaultPlan::new(chaos_cfg(2));
        let clients: Vec<usize> = (0..30).collect();
        let differs = (0..30).any(|r| a.schedule(r, &clients) != b.schedule(r, &clients));
        assert!(
            differs,
            "seeds 1 and 2 produced identical 900-cell schedules"
        );
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = FaultPlan::zero(99);
        assert!(plan.is_zero());
        assert!(!plan.has_replay());
        for round in 0..100 {
            for client in 0..20 {
                assert_eq!(plan.fault_for(round, client), None);
            }
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::new(chaos_cfg(42));
        let trials = 20_000usize;
        let mut counts = [0usize; 4]; // dropout, straggler, corrupt, replay
        for i in 0..trials {
            match plan.fault_for(i / 100, i % 100) {
                Some(FaultKind::Dropout) => counts[0] += 1,
                Some(FaultKind::Straggler { delay }) => {
                    assert!((1..=3).contains(&delay));
                    counts[1] += 1;
                }
                Some(FaultKind::Corrupt(_)) => counts[2] += 1,
                Some(FaultKind::Replay) => counts[3] += 1,
                None => {}
            }
        }
        let frac = |c: usize| c as f64 / trials as f64;
        assert!(
            (frac(counts[0]) - 0.3).abs() < 0.02,
            "dropout {}",
            frac(counts[0])
        );
        assert!(
            (frac(counts[1]) - 0.1).abs() < 0.02,
            "straggler {}",
            frac(counts[1])
        );
        assert!(
            (frac(counts[2]) - 0.05).abs() < 0.01,
            "corrupt {}",
            frac(counts[2])
        );
        assert!(
            (frac(counts[3]) - 0.05).abs() < 0.01,
            "replay {}",
            frac(counts[3])
        );
    }

    #[test]
    fn corruption_kinds_behave() {
        let mut d = vec![1.0f32, -2.0, 3.0];
        corrupt_delta(&mut d, Corruption::SignFlip);
        assert_eq!(d, vec![-1.0, 2.0, -3.0]);
        corrupt_delta(&mut d, Corruption::NormBlowup);
        assert_eq!(d[1], 2.0e12);
        corrupt_delta(&mut d, Corruption::NanInject);
        assert!(d[0].is_nan());
        // Empty deltas are fine.
        corrupt_delta(&mut [], Corruption::NanInject);
    }

    #[test]
    fn staleness_discount_decays() {
        assert_eq!(staleness_discount(0), 1.0);
        assert_eq!(staleness_discount(1), 0.5);
        assert!(staleness_discount(3) < staleness_discount(2));
    }

    #[test]
    #[should_panic]
    fn rates_over_one_rejected() {
        let mut cfg = chaos_cfg(1);
        cfg.dropout = 0.9;
        cfg.straggler = 0.9;
        FaultPlan::new(cfg);
    }

    #[test]
    #[should_panic]
    fn negative_rate_rejected() {
        let mut cfg = FaultConfig::zero(1);
        cfg.replay = -0.1;
        FaultPlan::new(cfg);
    }
}
