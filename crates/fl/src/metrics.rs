//! Round-by-round histories, fault accounting, and summary statistics.

use fedwcm_trace::MetricsSnapshot;
use fedwcm_transport::NetCounters;

/// Per-round tally of injected faults and their handling (all zero on a
/// fault-free run; see `fedwcm-faults` for the taxonomy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundFaults {
    /// Uploads lost to injected dropout.
    pub dropouts: u32,
    /// Uploads delayed this round (buffered for a later round).
    pub stragglers: u32,
    /// Buffered late uploads merged into this round (with their
    /// staleness discount applied).
    pub late_merged: u32,
    /// Late uploads that arrived on a round which skipped aggregation
    /// (empty or quorum-failed) and were re-queued — undiscounted, with
    /// their staleness bumped — instead of being discarded. Each
    /// re-queue also retracts the round's `late_merged` count for that
    /// upload, so a given arrival is tallied as merged *or* re-queued,
    /// never both.
    pub late_requeued: u32,
    /// Uploads corrupted in transit this round.
    pub corruptions: u32,
    /// Uploads replaced by a stale replayed duplicate this round.
    pub replays: u32,
    /// True if fewer than `quorum_frac` of the sampled clients reported a
    /// healthy update, so the round skipped aggregation.
    pub quorum_failed: bool,
}

impl RoundFaults {
    /// Total faults injected this round (late merges are the *handling*
    /// of an earlier straggler injection, so they are not re-counted).
    pub fn injected(&self) -> u32 {
        self.dropouts + self.stragglers + self.corruptions + self.replays
    }
}

/// One round's record.
#[derive(Clone, Debug, Default)]
pub struct RoundRecord {
    /// Round index.
    pub round: usize,
    /// Mean local training loss across the clients that reported this
    /// round; `None` when no client reported (fully dropped round).
    pub train_loss: Option<f64>,
    /// L2 norm of the applied server direction.
    pub update_norm: f64,
    /// Test accuracy, if this round was evaluated.
    pub test_acc: Option<f64>,
    /// Momentum value α used (momentum methods only).
    pub alpha: Option<f64>,
    /// Aggregation events applied to the global model this round: 0 or 1
    /// under the sync cadence, one per buffer flush under buffered-K, and
    /// one per individual staleness-weighted apply under async.
    pub aggregations: u32,
    /// Client updates discarded this round by the containment filter
    /// (a non-finite loss or delta, or a delta norm of at least `1e6`;
    /// see `engine::admit`).
    pub dropped_updates: usize,
    /// Injected-fault tally for this round.
    pub faults: RoundFaults,
    /// Transport activity for this round: frames sent, retries, rejected
    /// frames, and deliveries degraded to dropout. All zero when no
    /// network plan (or a zero-rate plan) is attached.
    pub net: NetCounters,
}

/// A full training trajectory for one algorithm run.
#[derive(Clone, Debug)]
pub struct History {
    /// Algorithm display name.
    pub name: String,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
    /// Snapshot of the run's metrics registry (empty unless a registry
    /// was attached via `Simulation::with_metrics`). Checkpoints carry
    /// it, so a resumed run's counters continue where they left off.
    pub metrics: MetricsSnapshot,
}

impl History {
    /// New empty history.
    pub fn new(name: impl Into<String>) -> Self {
        History {
            name: name.into(),
            records: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// All `(round, accuracy)` evaluation points.
    pub fn accuracy_series(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.test_acc.map(|a| (r.round, a)))
            .collect()
    }

    /// Mean accuracy over the last `window` evaluations (the reported
    /// "final accuracy"; robust to single-round noise).
    pub fn final_accuracy(&self, window: usize) -> f64 {
        let series = self.accuracy_series();
        if series.is_empty() {
            return 0.0;
        }
        let take = window.max(1).min(series.len());
        let tail = &series[series.len() - take..];
        tail.iter().map(|&(_, a)| a).sum::<f64>() / take as f64
    }

    /// Best accuracy observed at any evaluation.
    pub fn best_accuracy(&self) -> f64 {
        self.accuracy_series()
            .iter()
            .map(|&(_, a)| a)
            .fold(0.0, f64::max)
    }

    /// First round at which accuracy reached `threshold`, if ever.
    pub fn rounds_to_reach(&self, threshold: f64) -> Option<usize> {
        self.accuracy_series()
            .iter()
            .find(|&&(_, a)| a >= threshold)
            .map(|&(r, _)| r)
    }

    /// Summarize this run's injected faults and, against an optional
    /// fault-free baseline, the accuracy cost they exacted.
    pub fn resilience_report(&self, baseline: Option<&History>) -> ResilienceReport {
        let mut totals = RoundFaults::default();
        let mut quorum_failures = 0usize;
        let mut contained = 0usize;
        for r in &self.records {
            totals.dropouts += r.faults.dropouts;
            totals.stragglers += r.faults.stragglers;
            totals.late_merged += r.faults.late_merged;
            totals.late_requeued += r.faults.late_requeued;
            totals.corruptions += r.faults.corruptions;
            totals.replays += r.faults.replays;
            if r.faults.quorum_failed {
                quorum_failures += 1;
            }
            contained += r.dropped_updates;
        }
        let final_accuracy = self.final_accuracy(1);
        ResilienceReport {
            rounds: self.records.len(),
            totals,
            net: self.net_totals(),
            quorum_failures,
            contained_updates: contained,
            final_accuracy,
            baseline_accuracy: baseline.map(|b| b.final_accuracy(1)),
            accuracy_delta: baseline.map(|b| final_accuracy - b.final_accuracy(1)),
        }
    }

    /// Transport counters summed over every round (all zero when no
    /// network plan was attached).
    pub fn net_totals(&self) -> NetCounters {
        let mut totals = NetCounters::default();
        for r in &self.records {
            totals.merge(&r.net);
        }
        totals
    }

    /// Standard deviation of accuracy over the last `window` evaluations —
    /// large values indicate the oscillation/non-convergence signature the
    /// paper reports for FedCM under long tails.
    pub fn tail_accuracy_std(&self, window: usize) -> f64 {
        let series = self.accuracy_series();
        if series.len() < 2 {
            return 0.0;
        }
        let take = window.max(2).min(series.len());
        let tail: Vec<f64> = series[series.len() - take..]
            .iter()
            .map(|&(_, a)| a)
            .collect();
        fedwcm_stats::describe::stddev(&tail)
    }
}

/// Whole-run fault summary produced by [`History::resilience_report`]:
/// what was injected, how the server coped, and (against a fault-free
/// baseline) what the faults cost in accuracy.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceReport {
    /// Rounds in the run.
    pub rounds: usize,
    /// Per-fault-type totals over all rounds.
    pub totals: RoundFaults,
    /// Transport totals over all rounds: retries attempted, frames
    /// rejected, deliveries degraded to dropout (zero without a plan).
    pub net: NetCounters,
    /// Rounds that failed quorum and skipped aggregation.
    pub quorum_failures: usize,
    /// Updates discarded by the containment filter (includes the
    /// corrupted uploads it absorbed).
    pub contained_updates: usize,
    /// Final accuracy of this (faulted) run.
    pub final_accuracy: f64,
    /// Final accuracy of the baseline run, when one was supplied.
    pub baseline_accuracy: Option<f64>,
    /// `final_accuracy − baseline_accuracy`, when a baseline was supplied.
    pub accuracy_delta: Option<f64>,
}

impl core::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "resilience report over {} rounds", self.rounds)?;
        writeln!(
            f,
            "  injected: {} dropouts, {} stragglers ({} merged late, {} re-queued), {} corruptions, {} replays",
            self.totals.dropouts,
            self.totals.stragglers,
            self.totals.late_merged,
            self.totals.late_requeued,
            self.totals.corruptions,
            self.totals.replays
        )?;
        writeln!(
            f,
            "  handled:  {} quorum failures, {} updates contained",
            self.quorum_failures, self.contained_updates
        )?;
        if !self.net.is_zero() {
            writeln!(
                f,
                "  network:  {} frames sent, {} retries, {} rejected, {} duplicates, {} delayed, {} degraded to dropout",
                self.net.frames_sent,
                self.net.retries,
                self.net.rejected_frames,
                self.net.duplicates,
                self.net.delayed,
                self.net.degraded
            )?;
        }
        write!(f, "  final accuracy: {:.4}", self.final_accuracy)?;
        if let (Some(base), Some(delta)) = (self.baseline_accuracy, self.accuracy_delta) {
            write!(f, " (baseline {base:.4}, delta {delta:+.4})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with(accs: &[(usize, f64)]) -> History {
        let mut h = History::new("test");
        for &(round, acc) in accs {
            h.records.push(RoundRecord {
                round,
                train_loss: Some(1.0),
                update_norm: 0.5,
                test_acc: Some(acc),
                alpha: None,
                aggregations: 1,
                dropped_updates: 0,
                faults: RoundFaults::default(),
                net: NetCounters::default(),
            });
        }
        h
    }

    #[test]
    fn final_accuracy_averages_tail() {
        let h = history_with(&[(0, 0.1), (5, 0.5), (10, 0.7), (15, 0.9)]);
        assert!((h.final_accuracy(2) - 0.8).abs() < 1e-12);
        assert!((h.final_accuracy(100) - 0.55).abs() < 1e-12);
        assert_eq!(History::new("x").final_accuracy(3), 0.0);
    }

    #[test]
    fn best_and_threshold() {
        let h = history_with(&[(0, 0.2), (5, 0.8), (10, 0.6)]);
        assert_eq!(h.best_accuracy(), 0.8);
        assert_eq!(h.rounds_to_reach(0.7), Some(5));
        assert_eq!(h.rounds_to_reach(0.9), None);
    }

    #[test]
    fn tail_std_detects_oscillation() {
        let stable = history_with(&[(0, 0.70), (1, 0.71), (2, 0.70), (3, 0.71)]);
        let unstable = history_with(&[(0, 0.1), (1, 0.6), (2, 0.15), (3, 0.5)]);
        assert!(unstable.tail_accuracy_std(4) > stable.tail_accuracy_std(4) * 5.0);
    }

    #[test]
    fn unevaluated_rounds_skipped() {
        let mut h = History::new("x");
        h.records.push(RoundRecord {
            round: 0,
            train_loss: Some(1.0),
            update_norm: 0.1,
            test_acc: None,
            alpha: None,
            aggregations: 1,
            dropped_updates: 0,
            faults: RoundFaults::default(),
            net: NetCounters::default(),
        });
        assert!(h.accuracy_series().is_empty());
    }

    #[test]
    fn resilience_report_totals_and_delta() {
        let mut faulted = history_with(&[(0, 0.4), (1, 0.6)]);
        faulted.records[0].faults = RoundFaults {
            dropouts: 2,
            stragglers: 1,
            late_merged: 0,
            late_requeued: 1,
            corruptions: 1,
            replays: 0,
            quorum_failed: true,
        };
        faulted.records[1].faults = RoundFaults {
            dropouts: 1,
            stragglers: 0,
            late_merged: 1,
            late_requeued: 0,
            corruptions: 0,
            replays: 1,
            quorum_failed: false,
        };
        faulted.records[1].dropped_updates = 1;
        let baseline = history_with(&[(0, 0.5), (1, 0.7)]);
        let rep = faulted.resilience_report(Some(&baseline));
        assert_eq!(rep.totals.dropouts, 3);
        assert_eq!(rep.totals.stragglers, 1);
        assert_eq!(rep.totals.late_merged, 1);
        assert_eq!(rep.totals.late_requeued, 1);
        assert_eq!(rep.totals.corruptions, 1);
        assert_eq!(rep.totals.replays, 1);
        assert_eq!(rep.totals.injected(), 6);
        assert_eq!(rep.quorum_failures, 1);
        assert_eq!(rep.contained_updates, 1);
        assert!((rep.accuracy_delta.expect("baseline given") + 0.1).abs() < 1e-12);
        // Display formatting shouldn't panic and mentions the counts.
        let text = rep.to_string();
        assert!(text.contains("3 dropouts"));
        assert!(text.contains("1 quorum failures"));
        assert!(
            !text.contains("network:"),
            "no transport activity, no network line"
        );
    }

    #[test]
    fn resilience_report_surfaces_transport_outcomes() {
        let mut h = history_with(&[(0, 0.4), (1, 0.6)]);
        h.records[0].net = NetCounters {
            frames_sent: 12,
            retries: 3,
            rejected_frames: 2,
            rejected_bytes: 96,
            retransmitted_bytes: 144,
            ..NetCounters::default()
        };
        h.records[1].net = NetCounters {
            frames_sent: 10,
            degraded: 1,
            delayed: 1,
            duplicates: 1,
            ..NetCounters::default()
        };
        let rep = h.resilience_report(None);
        assert_eq!(rep.net.frames_sent, 22);
        assert_eq!(rep.net.retries, 3);
        assert_eq!(rep.net.rejected_frames, 2);
        assert_eq!(rep.net.degraded, 1);
        assert_eq!(rep.net, h.net_totals());
        let text = rep.to_string();
        assert!(text.contains("22 frames sent"));
        assert!(text.contains("3 retries"));
        assert!(text.contains("1 degraded to dropout"));
    }
}
