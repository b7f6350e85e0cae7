//! Communication-cost accounting.
//!
//! Appendix C argues the HE distribution-exchange cost is "negligible
//! compared to model transmission overhead in a typical federated
//! learning round"; this module quantifies that model-transmission side
//! so the comparison (and any bandwidth budgeting) is concrete. All
//! counters are `u64`: a paper-scale run (hundreds of clients, ResNet-18
//! parameters, hundreds of rounds) overflows 32-bit byte counts.
//!
//! **Nominal** volumes are cadence-independent: every sampled client
//! downloads the model and uploads one delta per round regardless of
//! *when* the server applies it, so the buffered-K and async cadences
//! ([`crate::Cadence`]) move exactly the same bytes as the synchronous
//! barrier — they only shift the aggregation schedule. That claim
//! covers nominal volume only: a lossy wire transport adds
//! retransmissions on top, which depend on the network plan, not the
//! cadence. Fold those in with [`CommReport::with_transport`], which
//! keeps the books balanced as `total = nominal + retransmitted`.

// Byte counters saturate: a bare `+`, `-` or `*` here is a compile error.
#![deny(clippy::arithmetic_side_effects)]

use crate::config::FlConfig;
use crate::engine::sampled_clients_for;
use fedwcm_faults::{FaultKind, FaultPlan};
use fedwcm_transport::NetCounters;

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
    /// Total bytes over the whole run. Under a fault plan this is the
    /// *actual* volume: dropped uploads never transit, straggler
    /// retransmissions transit twice.
    pub total_bytes: u64,
    /// Upload bytes that arrived stale — straggler retransmissions
    /// delivered rounds late, plus replayed duplicate deltas. Zero
    /// without a fault plan.
    pub stale_upload_bytes: u64,
    /// Upload bytes that never transited because the client dropped out.
    /// Zero without a fault plan.
    pub dropped_upload_bytes: u64,
    /// Upload bytes re-transmitted by the wire transport after a Nack
    /// or timeout. Zero without a network plan (measured at runtime,
    /// folded in via [`CommReport::with_transport`]).
    pub retransmitted_bytes: u64,
    /// Upload bytes that arrived in frames the receiver rejected
    /// (checksum or framing damage). Zero without a network plan.
    pub rejected_bytes: u64,
}

impl CommReport {
    /// Fold measured transport counters into a nominal report: the
    /// retransmitted bytes join `total_bytes` (they really crossed the
    /// wire) and both runtime tallies become visible, so
    /// `total = nominal + retransmitted` holds by construction.
    pub fn with_transport(mut self, net: &NetCounters) -> CommReport {
        self.retransmitted_bytes = net.retransmitted_bytes;
        self.rejected_bytes = net.rejected_bytes;
        self.total_bytes = self.total_bytes.saturating_add(net.retransmitted_bytes);
        self
    }
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
        stale_upload_bytes: 0,
        dropped_upload_bytes: 0,
        retransmitted_bytes: 0,
        rejected_bytes: 0,
    }
}

/// Like [`communication_report`], but walks the fault plan's actual
/// schedule round by round (via [`sampled_clients_for`], so the
/// accounting agrees exactly with what the engine injects):
///
/// * a **dropout** never uploads — its bytes move from the total into
///   `dropped_upload_bytes`;
/// * a **straggler** uploads twice — the timed-out original plus the late
///   retransmission, which also counts as stale;
/// * a **replay** uploads a duplicate stale delta (same size, stale);
/// * **corruption** damages bytes in transit without changing volume.
pub fn communication_report_with_faults(
    cfg: &FlConfig,
    param_len: usize,
    momentum_broadcast: bool,
    plan: &FaultPlan,
) -> CommReport {
    let mut report = communication_report(cfg, param_len, momentum_broadcast);
    let model = model_bytes(param_len);
    let mut total = report
        .down_bytes_per_round
        .saturating_mul(cfg.rounds as u64);
    for round in 0..cfg.rounds {
        for client in sampled_clients_for(cfg, round) {
            match plan.fault_for(round, client) {
                Some(FaultKind::Dropout) => {
                    report.dropped_upload_bytes = report.dropped_upload_bytes.saturating_add(model)
                }
                Some(FaultKind::Straggler { .. }) => {
                    total = total.saturating_add(model.saturating_mul(2));
                    report.stale_upload_bytes = report.stale_upload_bytes.saturating_add(model);
                }
                Some(FaultKind::Replay) => {
                    total = total.saturating_add(model);
                    report.stale_upload_bytes = report.stale_upload_bytes.saturating_add(model);
                }
                Some(FaultKind::Corrupt(_)) | None => total = total.saturating_add(model),
            }
        }
    }
    report.total_bytes = total;
    report
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    reason = "the tests recount with plain arithmetic, on volumes chosen to fit"
)]
mod tests {
    use super::*;
    use fedwcm_faults::FaultConfig;

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

    #[test]
    fn zero_rate_plan_matches_plain_report() {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 20;
        cfg.participation = 0.5;
        cfg.rounds = 30;
        let plain = communication_report(&cfg, 5000, true);
        let faulted =
            communication_report_with_faults(&cfg, 5000, true, &FaultPlan::zero(cfg.seed));
        assert_eq!(plain, faulted);
    }

    #[test]
    fn fault_plan_accounting_balances() {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 20;
        cfg.participation = 0.5;
        cfg.rounds = 40;
        let plan = FaultPlan::new(FaultConfig {
            dropout: 0.3,
            straggler: 0.2,
            replay: 0.1,
            corruption: 0.1,
            ..FaultConfig::zero(7)
        });
        let model = model_bytes(5000);
        let plain = communication_report(&cfg, 5000, false);
        let r = communication_report_with_faults(&cfg, 5000, false, &plan);

        // Count the schedule independently and check the books balance:
        // total = nominal − dropped + one extra transit per straggler.
        let (mut dropouts, mut stragglers, mut replays) = (0u64, 0u64, 0u64);
        for round in 0..cfg.rounds {
            for client in sampled_clients_for(&cfg, round) {
                match plan.fault_for(round, client) {
                    Some(FaultKind::Dropout) => dropouts += 1,
                    Some(FaultKind::Straggler { .. }) => stragglers += 1,
                    Some(FaultKind::Replay) => replays += 1,
                    _ => {}
                }
            }
        }
        assert!(
            dropouts > 0 && stragglers > 0 && replays > 0,
            "schedule too sparse to exercise accounting"
        );
        assert_eq!(r.dropped_upload_bytes, dropouts * model);
        assert_eq!(r.stale_upload_bytes, (stragglers + replays) * model);
        assert_eq!(
            r.total_bytes,
            plain.total_bytes - dropouts * model + stragglers * model
        );
    }

    #[test]
    fn transport_books_balance() {
        let cfg = FlConfig::default_sim();
        let nominal = communication_report(&cfg, 1000, true);
        let net = NetCounters {
            frames_sent: 40,
            retries: 6,
            retransmitted_bytes: 6 * 4000,
            rejected_frames: 2,
            rejected_bytes: 2 * 4000,
            ..NetCounters::default()
        };
        let r = nominal.with_transport(&net);
        assert_eq!(r.retransmitted_bytes, 24_000);
        assert_eq!(r.rejected_bytes, 8_000);
        // total = nominal + retransmitted, exactly.
        assert_eq!(r.total_bytes, nominal.total_bytes + 24_000);
        // Nominal per-round figures are untouched by the transport.
        assert_eq!(r.up_bytes_per_round, nominal.up_bytes_per_round);
        assert_eq!(r.down_bytes_per_round, nominal.down_bytes_per_round);
    }

    #[test]
    fn fault_free_transport_changes_nothing() {
        let cfg = FlConfig::default_sim();
        let nominal = communication_report(&cfg, 1000, false);
        assert_eq!(nominal.with_transport(&NetCounters::default()), nominal);
    }
}
