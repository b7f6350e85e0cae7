//! Output checks: every repetition of a run must repeat the warm-up's
//! history bit for bit, and every loss, norm and accuracy must be finite.

use fedwcm_fl::{History, RoundRecord};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

fn opt_bits(x: Option<f64>) -> [u64; 2] {
    match x {
        Some(v) => [1, v.to_bits()],
        None => [0, 0],
    }
}

/// FNV-1a over every bit of a [`RoundRecord`].
pub fn round_hash(r: &RoundRecord) -> u64 {
    let mut h = FNV_OFFSET;
    let f = &r.faults;
    let n = &r.net;
    let words = [
        r.round as u64,
        r.update_norm.to_bits(),
        u64::from(r.aggregations),
        r.dropped_updates as u64,
        u64::from(f.dropouts),
        u64::from(f.stragglers),
        u64::from(f.late_merged),
        u64::from(f.late_requeued),
        u64::from(f.corruptions),
        u64::from(f.replays),
        u64::from(f.quorum_failed),
        n.frames_sent,
        n.retries,
        n.rejected_frames,
        n.duplicates,
        n.delayed,
        n.degraded,
        n.retransmitted_bytes,
        n.rejected_bytes,
    ];
    for w in opt_bits(r.train_loss)
        .into_iter()
        .chain(opt_bits(r.test_acc))
        .chain(opt_bits(r.alpha))
        .chain(words)
    {
        fnv(&mut h, w);
    }
    h
}

/// Per-round hashes of a history.
pub fn round_hashes(h: &History) -> Vec<u64> {
    h.records.iter().map(round_hash).collect()
}

/// One digest of a whole history (its round hashes, in order).
pub fn history_digest(h: &History) -> u64 {
    let mut d = FNV_OFFSET;
    fnv(&mut d, h.records.len() as u64);
    for r in &h.records {
        fnv(&mut d, round_hash(r));
    }
    d
}

/// True when every loss, norm and accuracy of the round is finite.
pub fn round_finite(r: &RoundRecord) -> bool {
    r.update_norm.is_finite()
        && r.train_loss.is_none_or(f64::is_finite)
        && r.test_acc.is_none_or(f64::is_finite)
        && r.alpha.is_none_or(f64::is_finite)
}

/// Rounds of `h` that fail against the reference hashes: a round fails
/// when any bit of its record differs from the reference's or a value
/// is non-finite; a history of the wrong length fails every round.
pub fn failed_rounds(h: &History, reference: &[u64]) -> usize {
    if h.records.len() != reference.len() {
        return reference.len().max(h.records.len());
    }
    h.records
        .iter()
        .zip(reference)
        .filter(|(r, &want)| round_hash(r) != want || !round_finite(r))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_fl::RoundFaults;
    use fedwcm_transport::NetCounters;

    fn record(round: usize, loss: f64) -> RoundRecord {
        RoundRecord {
            round,
            train_loss: Some(loss),
            update_norm: 0.5,
            test_acc: None,
            alpha: Some(0.1),
            aggregations: 1,
            dropped_updates: 0,
            faults: RoundFaults::default(),
            net: NetCounters::default(),
        }
    }

    #[test]
    fn one_flipped_bit_fails_exactly_that_round() {
        let mut h = History::new("x");
        h.records = vec![record(0, 2.0), record(1, 1.5), record(2, 1.0)];
        let reference = round_hashes(&h);
        assert_eq!(failed_rounds(&h, &reference), 0);
        let d0 = history_digest(&h);
        h.records[1].train_loss = Some(f64::from_bits(1.5f64.to_bits() ^ 1));
        assert_eq!(failed_rounds(&h, &reference), 1);
        assert_ne!(history_digest(&h), d0);
        h.records[2].update_norm = f64::NAN;
        assert_eq!(failed_rounds(&h, &reference), 2);
        h.records.pop();
        assert_eq!(failed_rounds(&h, &reference), 3);
    }
}
