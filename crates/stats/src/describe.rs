//! Descriptive statistics used by the analysis and experiment crates.
//!
//! These back the paper's summary quantities: mean accuracies over seeds,
//! quantity-skew summaries for the FedGrab partition (Fig. 11), the
//! imbalance-driven temperature in Eq. (4) (total-variation distance to the
//! target distribution), and Gini/concentration indices — plus the
//! paired-seed inference a claim across methods rests on: a 95 % Student-t
//! interval and an exact sign test.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for slices with < 2 elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile, `q ∈ [0, 1]`. Panics on empty or
/// NaN-bearing input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN in quantile input");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Gini coefficient of a non-negative vector (0 = perfectly equal,
/// → 1 = maximally concentrated). Used to summarise client quantity skew.
pub fn gini(xs: &[f64]) -> f64 {
    assert!(
        xs.iter().all(|&x| x >= 0.0),
        "gini needs non-negative values"
    );
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = xs.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    // NaN is impossible here: the `x >= 0.0` assert above rejects it
    // (comparisons with NaN are false), so `total_cmp` is a pure
    // drop-in for the partial comparison.
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Gini = (2 Σ i·x_(i) / (n Σ x)) − (n+1)/n, with 1-based ranks.
    let weighted: f64 = v.iter().enumerate().map(|(i, &x)| (i + 1) as f64 * x).sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// Total-variation distance between two distributions over the same
/// support: `½ Σ |p_c − q_c|`. This is the imbalance measure that drives
/// the adaptive temperature in Eq. (4).
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution supports differ");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Numerically-stable softmax with temperature `t > 0`:
/// `softmax(x/t)`. This is Eq. (4)'s weighting kernel.
pub fn softmax_with_temperature(xs: &[f64], t: f64) -> Vec<f64> {
    assert!(t > 0.0, "temperature must be positive");
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|&x| ((x - max) / t).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Two-sided 95 % Student-t quantiles, `t(0.975, df)` for df 1..=29.
const T975: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// `(mean, half_width)` of the two-sided 95 % Student-t interval of the
/// mean of `xs`. Panics unless `2 <= xs.len() <= 30`.
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    assert!(
        (2..=T975.len() + 1).contains(&n),
        "mean_ci takes 2..=30 values, got {n}"
    );
    let sample_var = variance(xs) * n as f64 / (n - 1) as f64;
    (mean(xs), T975[n - 2] * (sample_var / n as f64).sqrt())
}

/// [`mean_ci`] of the per-seed differences `a[i] - b[i]`.
pub fn paired_diff_ci(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "paired samples differ in length");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    mean_ci(&diffs)
}

/// Exact two-sided sign test of `a[i]` against `b[i]`, ties dropped: the
/// probability, under a fair coin, of a split at least as uneven as the
/// observed wins and losses. 1 when every pair ties.
pub fn sign_test(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples differ in length");
    let wins = a.iter().zip(b).filter(|(x, y)| x > y).count();
    let losses = a.iter().zip(b).filter(|(x, y)| x < y).count();
    let n = wins + losses;
    // Σ_{i ≤ min(wins, losses)} C(n, i), the binomial coefficient built up
    // term by term.
    let (mut term, mut tail) = (1.0, 1.0);
    for i in 1..=wins.min(losses) {
        term *= (n + 1 - i) as f64 / i as f64;
        tail += term;
    }
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        assert!((gini(&[1.0, 1.0, 1.0, 1.0])).abs() < 1e-12);
        // One holder of everything among n=4 → Gini = (n-1)/n = 0.75.
        assert!((gini(&[0.0, 0.0, 0.0, 8.0]) - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tv_distance_properties() {
        let p = [0.5, 0.5];
        let q = [1.0, 0.0];
        assert!((total_variation(&p, &q) - 0.5).abs() < 1e-12);
        assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    fn softmax_temperature_sharpens_and_flattens() {
        let s = [1.0, 2.0, 3.0];
        let sharp = softmax_with_temperature(&s, 0.1);
        let flat = softmax_with_temperature(&s, 100.0);
        assert!(sharp[2] > 0.99);
        assert!((flat[0] - 1.0 / 3.0).abs() < 0.01);
        for w in [&sharp, &flat] {
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax_with_temperature(&[1000.0, 1001.0], 1.0);
        let b = softmax_with_temperature(&[0.0, 1.0], 1.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn t_quantiles_match_the_printed_table() {
        for (df, t) in [(1, 12.706), (4, 2.776), (9, 2.262), (29, 2.045)] {
            assert_eq!(T975[df - 1], t, "df {df}");
        }
    }

    #[test]
    fn mean_ci_by_hand() {
        // Mean 3, sample sd √2.5, df 4: half-width 2.776·√2.5/√5 = 2.776/√2.
        let (m, h) = mean_ci(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m, 3.0);
        assert!((h - 2.776 / 2f64.sqrt()).abs() < 1e-12);
        // Differences 1, 1, 1: no spread, so no width.
        assert_eq!(
            paired_diff_ci(&[2.0, 3.0, 4.0], &[1.0, 2.0, 3.0]),
            (1.0, 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "2..=30")]
    fn mean_ci_rejects_more_than_thirty_values() {
        mean_ci(&[0.0; 31]);
    }

    #[test]
    fn sign_test_by_hand() {
        // 9 wins of 10: 2·(C(10,0) + C(10,1)) / 2^10.
        let a = [1.0; 10];
        let mut b = [0.0; 10];
        b[0] = 2.0;
        assert_eq!(sign_test(&a, &b), 22.0 / 1024.0);
        // 5 wins of 5, and a tie dropped: 2 / 2^5.
        assert_eq!(
            sign_test(&[1.0; 6], &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            2.0 / 32.0
        );
        // All ties, and an even split, prove nothing.
        assert_eq!(sign_test(&[1.0; 3], &[1.0; 3]), 1.0);
        assert_eq!(sign_test(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
    }
}
