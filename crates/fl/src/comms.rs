//! Communication-cost accounting.
//!
//! Appendix C argues the HE distribution-exchange cost is "negligible
//! compared to model transmission overhead in a typical federated
//! learning round"; this module quantifies that model-transmission side
//! so the comparison (and any bandwidth budgeting) is concrete. All
//! counters are `u64`: a paper-scale run (hundreds of clients, ResNet-18
//! parameters, hundreds of rounds) overflows 32-bit byte counts.
//!
//! The volumes are **nominal** and cadence-independent: every sampled
//! client downloads the model and uploads one delta per round regardless
//! of *when* the server applies it, so the buffered-K and async cadences
//! ([`crate::Cadence`]) move exactly the same bytes as the synchronous
//! barrier — they only shift the aggregation schedule. What a run really
//! moves under a fault plan or a lossy wire (lost, stale and retransmitted
//! uploads) the engine counts as it happens: [`crate::RoundRecord`]'s
//! `faults` and `net`, and the `fl.bytes.*` counters.

// Byte counters saturate: a bare `+`, `-` or `*` here is a compile error.
#![deny(clippy::arithmetic_side_effects)]

use crate::config::FlConfig;

/// Bytes moved in one direction for one client exchanging a full model
/// (f32 parameters).
pub fn model_bytes(param_len: usize) -> u64 {
    (param_len as u64).saturating_mul(4)
}

/// Per-round and full-run communication volumes for a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommReport {
    /// Clients sampled per round.
    pub sampled_per_round: u64,
    /// Nominal download bytes per round (server → sampled clients: the
    /// global model, plus the global momentum for momentum methods).
    pub down_bytes_per_round: u64,
    /// Nominal upload bytes per round (clients → server: one delta each,
    /// before any injected faults).
    pub up_bytes_per_round: u64,
    /// Nominal total bytes over the whole run.
    pub total_bytes: u64,
}

/// Compute the fault-free communication profile of a run.
///
/// `momentum_broadcast` adds one extra model-sized download per client
/// per round (FedCM/FedWCM ship `Δ_r` alongside the parameters).
pub fn communication_report(
    cfg: &FlConfig,
    param_len: usize,
    momentum_broadcast: bool,
) -> CommReport {
    let sampled = cfg.sampled_per_round() as u64;
    let model = model_bytes(param_len);
    let down_per_client = model.saturating_mul(if momentum_broadcast { 2 } else { 1 });
    let down = down_per_client.saturating_mul(sampled);
    let up = model.saturating_mul(sampled);
    CommReport {
        sampled_per_round: sampled,
        down_bytes_per_round: down,
        up_bytes_per_round: up,
        total_bytes: down.saturating_add(up).saturating_mul(cfg.rounds as u64),
    }
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    reason = "the tests recount with plain arithmetic, on volumes chosen to fit"
)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_round_volume() {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 100;
        cfg.participation = 0.1;
        cfg.rounds = 500;
        let r = communication_report(&cfg, 11_000_000, false); // ResNet-18-ish
        assert_eq!(r.sampled_per_round, 10);
        assert_eq!(r.up_bytes_per_round, 10 * 44_000_000);
        assert_eq!(r.down_bytes_per_round, r.up_bytes_per_round);
        assert_eq!(r.total_bytes, 500 * 2 * 10 * 44_000_000);
    }

    #[test]
    fn counters_survive_paper_scale_volumes() {
        // 500 clients × full participation × ResNet-18 × 1000 rounds is
        // ~88 TB — far past u32 (and past usize on 32-bit targets).
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 500;
        cfg.participation = 1.0;
        cfg.rounds = 1000;
        let r = communication_report(&cfg, 11_000_000, true);
        assert!(r.total_bytes > u64::from(u32::MAX));
        assert_eq!(
            r.total_bytes,
            (r.down_bytes_per_round + r.up_bytes_per_round) * 1000
        );
    }

    #[test]
    fn momentum_broadcast_doubles_downlink_only() {
        let cfg = FlConfig::default_sim();
        let plain = communication_report(&cfg, 1000, false);
        let momentum = communication_report(&cfg, 1000, true);
        assert_eq!(
            momentum.down_bytes_per_round,
            2 * plain.down_bytes_per_round
        );
        assert_eq!(momentum.up_bytes_per_round, plain.up_bytes_per_round);
    }

    #[test]
    fn he_overhead_is_negligible_vs_model_traffic() {
        // The Appendix-C claim, checked quantitatively: 100 clients with a
        // ResNet-18-sized model move ~880 MB/round; the one-off HE
        // exchange is ~65 KB per client (6.5 MB total) — well under 1% of
        // a single round.
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 100;
        cfg.participation = 1.0;
        let round = communication_report(&cfg, 11_000_000, false);
        let he_total = 100 * 65_536u64;
        assert!(
            (he_total as f64) < 0.01 * round.up_bytes_per_round as f64,
            "HE {} vs round {}",
            he_total,
            round.up_bytes_per_round
        );
    }
}
