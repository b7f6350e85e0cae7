//! Simulation configuration.

use crate::cadence::Cadence;

/// Hyper-parameters of a federated simulation, mirroring the paper's
/// experimental setup section (§7.1).
#[derive(Clone, Debug)]
pub struct FlConfig {
    /// Total number of clients `K` (paper default 100; 40 for the
    /// 100-class presets).
    pub clients: usize,
    /// Fraction of clients sampled per round (paper default 0.1).
    pub participation: f64,
    /// Communication rounds `R`.
    pub rounds: usize,
    /// Local epochs per round (paper default 5).
    pub local_epochs: usize,
    /// Mini-batch size (paper default 50).
    pub batch_size: usize,
    /// Local learning rate `η_l` (paper default 0.1).
    pub local_lr: f32,
    /// Global learning rate `η_g` (paper default 1).
    pub global_lr: f32,
    /// Base experiment seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Worker threads for parallel client training (0 = auto).
    pub threads: usize,
    /// Evaluate on the test set every `eval_every` rounds (and at the end).
    pub eval_every: usize,
    /// Minimum fraction of the round's sampled clients that must report a
    /// healthy update for aggregation to proceed. Below quorum the round
    /// skips the momentum update (clients keep reusing the previous
    /// direction) instead of aggregating a biased sample. `0.0` disables
    /// the rule (any non-empty round aggregates, the pre-fault behaviour).
    ///
    /// Quorum rule: only **this round's fresh healthy uploads** count
    /// toward the numerator — late-merged straggler uploads from earlier
    /// cohorts never do, so a round can't pass quorum purely on stale
    /// arrivals while zero sampled clients reported. The denominator is
    /// the round's sampled cohort size. On a quorum-failed round, late
    /// arrivals are re-queued (staleness bumped) rather than discarded.
    /// The rule applies to the [`Cadence::Sync`] barrier only; buffered
    /// and async cadences gate on buffer occupancy instead.
    pub quorum_frac: f64,
    /// Server aggregation cadence: when accumulated uploads are applied
    /// to the global model. [`Cadence::Sync`] (the default) is the
    /// classic one-barrier-per-round loop; see [`Cadence`] for the
    /// buffered and asynchronous alternatives.
    pub cadence: Cadence,
}

impl FlConfig {
    /// Paper-style defaults scaled for CPU simulation.
    pub fn default_sim() -> Self {
        FlConfig {
            clients: 20,
            participation: 0.25,
            rounds: 40,
            local_epochs: 2,
            batch_size: 20,
            local_lr: 0.1,
            global_lr: 1.0,
            seed: 42,
            threads: 0,
            eval_every: 5,
            quorum_frac: 0.0,
            cadence: Cadence::Sync,
        }
    }

    /// Number of clients sampled each round (at least one).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "participation is asserted in (0, 1], so the rounded product lies in [0, clients]"
    )]
    pub fn sampled_per_round(&self) -> usize {
        assert!(
            self.participation > 0.0 && self.participation <= 1.0,
            "participation must be in (0,1], got {}",
            self.participation
        );
        ((self.clients as f64 * self.participation).round() as usize).clamp(1, self.clients)
    }

    /// Resolved worker-thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            fedwcm_parallel::default_threads()
        } else {
            self.threads
        }
    }

    /// Validate invariants; panics with context on misconfiguration.
    pub fn validate(&self) {
        assert!(self.clients >= 1, "need at least one client");
        assert!(self.rounds >= 1, "need at least one round");
        assert!(self.local_epochs >= 1, "need at least one local epoch");
        assert!(self.batch_size >= 1, "need a positive batch size");
        assert!(
            self.local_lr > 0.0 && self.global_lr > 0.0,
            "learning rates must be positive"
        );
        assert!(self.eval_every >= 1, "eval_every must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&self.quorum_frac),
            "quorum_frac must be in [0,1], got {}",
            self.quorum_frac
        );
        self.cadence.validate();
        let _ = self.sampled_per_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_per_round_rounds_and_clamps() {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 100;
        cfg.participation = 0.1;
        assert_eq!(cfg.sampled_per_round(), 10);
        cfg.participation = 0.001;
        assert_eq!(cfg.sampled_per_round(), 1);
        cfg.participation = 1.0;
        assert_eq!(cfg.sampled_per_round(), 100);
    }

    #[test]
    fn default_config_is_valid() {
        FlConfig::default_sim().validate();
    }

    #[test]
    #[should_panic]
    fn zero_participation_rejected() {
        let mut cfg = FlConfig::default_sim();
        cfg.participation = 0.0;
        let _ = cfg.sampled_per_round();
    }

    #[test]
    #[should_panic]
    fn quorum_above_one_rejected() {
        let mut cfg = FlConfig::default_sim();
        cfg.quorum_frac = 1.5;
        cfg.validate();
    }
}
