//! Order statistics over timing samples.
//!
//! Interference on the host only ever adds time to a sample, so a low
//! order statistic over many repetitions of the same computation is the
//! steady estimate of its cost; the median and p90 say how noisy the
//! host was.

use fedwcm_stats::describe::median;

/// The low order statistic every timing metric reports: the
/// third-smallest sample. Dropping the two smallest guards against a
/// timer glitch; with fewer than three samples the largest one stands in.
pub fn third_smallest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[2.min(s.len() - 1)]
}

/// Index, in a sorted sample of `n`, of the highest percentile that
/// still has at least ten samples beyond it; the median's index when the
/// sample is too small for that.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    n.saturating_sub(11).max(n / 2)
}

/// The sample at [`tail_index`].
pub fn tail(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[tail_index(s.len())]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method): the driver computes spreads with
/// that function, so `set` and `compare` must agree with it to the digit.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver holds each end-to-end metric's bound against.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_smallest_picks_rank_three() {
        assert_eq!(third_smallest(&[9.0, 1.0, 5.0, 3.0, 7.0]), 5.0);
        assert_eq!(third_smallest(&[2.0, 1.0]), 2.0);
        assert_eq!(third_smallest(&[4.0]), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: index 89 has 10 samples above it (90..=99).
        assert_eq!(tail_index(100), 89);
        assert_eq!(tail_index(22), 11);
        // Too few samples for ten beyond: fall back to the (upper) median.
        assert_eq!(tail_index(21), 10);
        assert_eq!(tail_index(20), 10);
        assert_eq!(tail_index(1), 0);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&s), 89.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&s) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
