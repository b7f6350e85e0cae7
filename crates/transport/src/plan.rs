//! Seeded, deterministic network-fault schedules at the frame level.
//!
//! A [`NetPlan`] is the frame-layer sibling of `fedwcm_faults::FaultPlan`:
//! a pure function from `(round, client, attempt)` to an optional
//! [`NetFault`], drawn from a dedicated RNG stream so that attaching a
//! plan never perturbs sampling, training, or client-level fault streams.
//! Where the fault plan models *application* failures (a client crashing,
//! a stale replay), the net plan models the *wire*: a frame lost, damaged,
//! duplicated, reordered, or delayed in flight. Retries index the third
//! coordinate, so attempt 0 and attempt 1 of the same upload see
//! independent draws — exactly how a real lossy link behaves.

use fedwcm_faults::rates;
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// One injected frame-level fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is lost: it never arrives.
    Drop,
    /// One bit of the frame is flipped in flight (`bit` is reduced modulo
    /// the frame's bit length by the link).
    Corrupt {
        /// Raw bit index; the link maps it into the frame.
        bit: u64,
    },
    /// The frame arrives twice.
    Duplicate,
    /// The frame is held back past later traffic before arriving.
    Reorder,
    /// The whole delivery arrives `rounds ≥ 1` rounds late, intact.
    Delay {
        /// Rounds of lateness (uniform on `1..=max_delay_rounds`).
        rounds: usize,
    },
}

/// Rates and seed defining a [`NetPlan`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Seed of the dedicated network RNG streams. Independent of the
    /// simulation and fault seeds.
    pub seed: u64,
    /// P(frame dropped).
    pub drop: f64,
    /// P(frame bit-corrupted).
    pub corrupt: f64,
    /// P(frame duplicated).
    pub duplicate: f64,
    /// P(frame reordered behind later traffic).
    pub reorder: f64,
    /// P(delivery delayed whole rounds).
    pub delay: f64,
    /// Maximum delay in rounds (delays are uniform on
    /// `1..=max_delay_rounds`); must be ≥ 1 whenever `delay > 0`.
    pub max_delay_rounds: usize,
}

impl NetConfig {
    /// A fault-free configuration (all rates zero) under `seed`.
    pub fn zero(seed: u64) -> Self {
        NetConfig {
            seed,
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            max_delay_rounds: 1,
        }
    }

    fn named_rates(&self) -> [(&'static str, f64); 5] {
        [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("dup", self.duplicate),
            ("reorder", self.reorder),
            ("delay", self.delay),
        ]
    }

    /// Validate rates; panics with context on misconfiguration.
    pub fn validate(&self) {
        rates::validate(&self.named_rates());
        assert!(
            self.delay == 0.0 || self.max_delay_rounds >= 1,
            "max_delay_rounds must be ≥ 1 when delays are enabled"
        );
    }

    /// Parse a CLI spec like `drop:0.1,corrupt:0.05,delay:2`.
    ///
    /// Comma-separated `key:value` pairs; keys: `drop`, `corrupt`, `dup`,
    /// `reorder`, `delayp` (delay *rate*), `delay` (max delay in rounds —
    /// also enables a default delay rate of 0.1 when `delayp` is unset),
    /// `seed`. Unknown keys, bad numbers, and invalid rate combinations
    /// are reported as errors rather than panics.
    pub fn parse(spec: &str) -> Result<NetConfig, String> {
        let mut cfg = NetConfig::zero(0);
        let mut delay_rate_set = false;
        let mut delay_rounds_set = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("net spec item `{part}` is not key:value"))?;
            let bad_num = |k: &str, v: &str| format!("net spec `{k}` has a bad number `{v}`");
            match key {
                "drop" => cfg.drop = value.parse().map_err(|_| bad_num(key, value))?,
                "corrupt" => cfg.corrupt = value.parse().map_err(|_| bad_num(key, value))?,
                "dup" => cfg.duplicate = value.parse().map_err(|_| bad_num(key, value))?,
                "reorder" => cfg.reorder = value.parse().map_err(|_| bad_num(key, value))?,
                "delayp" => {
                    cfg.delay = value.parse().map_err(|_| bad_num(key, value))?;
                    delay_rate_set = true;
                }
                "delay" => {
                    cfg.max_delay_rounds = value.parse().map_err(|_| bad_num(key, value))?;
                    delay_rounds_set = true;
                }
                "seed" => cfg.seed = value.parse().map_err(|_| bad_num(key, value))?,
                _ => return Err(format!("unknown net spec key `{key}`")),
            }
        }
        if delay_rounds_set && !delay_rate_set && cfg.max_delay_rounds >= 1 {
            cfg.delay = 0.1;
        }
        rates::check(&cfg.named_rates())?;
        if cfg.delay > 0.0 && cfg.max_delay_rounds < 1 {
            return Err("max delay rounds must be ≥ 1 when delays are enabled".to_string());
        }
        Ok(cfg)
    }
}

/// A seeded, fully deterministic frame-level network fault schedule.
///
/// Stateless: [`NetPlan::net_fault_for`] is a pure function, so the
/// engine, probes, and reports can query the same schedule independently
/// and agree exactly, across any thread count.
#[derive(Clone, Debug)]
pub struct NetPlan {
    cfg: NetConfig,
}

impl NetPlan {
    /// Build a plan from a validated configuration.
    pub fn new(cfg: NetConfig) -> Self {
        cfg.validate();
        NetPlan { cfg }
    }

    /// A plan that injects nothing (the bitwise no-op plan).
    pub fn zero(seed: u64) -> Self {
        Self::new(NetConfig::zero(seed))
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// True if every rate is zero: the plan can never inject a fault.
    pub fn is_zero(&self) -> bool {
        self.cfg.drop == 0.0
            && self.cfg.corrupt == 0.0
            && self.cfg.duplicate == 0.0
            && self.cfg.reorder == 0.0
            && self.cfg.delay == 0.0
    }

    /// The frame fault injected for attempt `attempt` of client
    /// `client`'s upload in `round`, if any.
    ///
    /// A single uniform draw is partitioned by the configured rates in a
    /// fixed order (drop, corrupt, dup, reorder, delay); the corrupted
    /// bit index and the delay length come from follow-up draws on the
    /// same dedicated stream.
    pub fn net_fault_for(&self, round: u64, client: u64, attempt: u32) -> Option<NetFault> {
        if self.is_zero() {
            return None;
        }
        let mut rng = Xoshiro256pp::stream(
            self.cfg.seed,
            &[stream::NET, round, client, u64::from(attempt)],
        );
        let u = rng.next_f64();
        match rates::pick(
            u,
            &[
                self.cfg.drop,
                self.cfg.corrupt,
                self.cfg.duplicate,
                self.cfg.reorder,
                self.cfg.delay,
            ],
        ) {
            Some(0) => Some(NetFault::Drop),
            Some(1) => Some(NetFault::Corrupt {
                bit: rng.next_u64(),
            }),
            Some(2) => Some(NetFault::Duplicate),
            Some(3) => Some(NetFault::Reorder),
            Some(4) => Some(NetFault::Delay {
                rounds: 1 + rng.index(self.cfg.max_delay_rounds),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_cfg(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            drop: 0.1,
            corrupt: 0.05,
            duplicate: 0.05,
            reorder: 0.05,
            delay: 0.05,
            max_delay_rounds: 2,
        }
    }

    #[test]
    fn schedule_is_pure() {
        let a = NetPlan::new(lossy_cfg(7));
        let b = NetPlan::new(lossy_cfg(7));
        for round in 0..30 {
            for client in 0..10 {
                for attempt in 0..4 {
                    assert_eq!(
                        a.net_fault_for(round, client, attempt),
                        b.net_fault_for(round, client, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn attempts_draw_independently() {
        let plan = NetPlan::new(NetConfig {
            drop: 0.5,
            ..NetConfig::zero(3)
        });
        let differs =
            (0..40u64).any(|c| plan.net_fault_for(0, c, 0) != plan.net_fault_for(0, c, 1));
        assert!(differs, "attempts 0 and 1 agreed on 40 straight clients");
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = NetPlan::zero(9);
        assert!(plan.is_zero());
        for round in 0..50 {
            for client in 0..10 {
                assert_eq!(plan.net_fault_for(round, client, 0), None);
            }
        }
    }

    #[test]
    fn delays_respect_the_cap() {
        let plan = NetPlan::new(NetConfig {
            delay: 1.0,
            max_delay_rounds: 3,
            ..NetConfig::zero(11)
        });
        for client in 0..100 {
            match plan.net_fault_for(0, client, 0) {
                Some(NetFault::Delay { rounds }) => assert!((1..=3).contains(&rounds)),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let cfg = NetConfig::parse("drop:0.1,delay:2").expect("valid spec");
        assert_eq!(cfg.drop, 0.1);
        assert_eq!(cfg.max_delay_rounds, 2);
        assert_eq!(cfg.delay, 0.1, "delay:N implies a default delay rate");
        let cfg = NetConfig::parse("drop:0.2,delayp:0.3,delay:4,seed:42").expect("valid spec");
        assert_eq!(cfg.delay, 0.3);
        assert_eq!(cfg.max_delay_rounds, 4);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(NetConfig::parse("drop").is_err());
        assert!(NetConfig::parse("drop:x").is_err());
        assert!(NetConfig::parse("warp:0.1").is_err());
        assert!(NetConfig::parse("drop:0.9,corrupt:0.9").is_err());
        assert!(NetConfig::parse("drop:-0.1").is_err());
    }

    #[test]
    #[should_panic]
    fn rates_over_one_rejected() {
        NetPlan::new(NetConfig {
            drop: 0.9,
            corrupt: 0.9,
            ..NetConfig::zero(1)
        });
    }
}
