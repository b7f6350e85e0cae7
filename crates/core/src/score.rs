//! Eq. (3)'s scarcity score of one client's class counts, and the
//! imbalance-driven temperature of Eq. (4). Both read the global class
//! distribution of a [`ClassPrior`](crate::prior::ClassPrior), built from
//! the counts §5.5's encrypted exchange returns; only
//! [`FedWcm::prepare`](crate::FedWcm::prepare), kept for the benchmark
//! harness, still sums every client's counts in the clear.

use fedwcm_stats::describe::total_variation;

/// Which reading of Eq. (3) scores a client.
///
/// The paper writes `s_k = Σ_c |p̂_c − p_c| · n_{k,c} / Σ_c n_{k,c}` and
/// states that "a higher score indicates that the client has more globally
/// scarce data". Taken literally, the absolute value breaks that
/// semantics: under a long tail the *head* class has the largest
/// deviation `|p̂ − p|`, so head-rich clients would score highest — the
/// opposite of the intent. The default therefore uses the **rectified
/// deviation** `max(p̂_c − p_c, 0)`: only globally *under-represented*
/// classes contribute, making the score exactly "the fraction of this
/// client's data that is globally scarce, weighted by how scarce". Scores
/// are non-negative (required by the `q_r` ratio in Eq. 5) and vanish when
/// the global distribution matches the target. The literal form is kept
/// for the ablation.
#[derive(Clone, Copy, Debug)]
pub enum ScoreForm {
    /// `max(p̂_c − p_c, 0)`: the default.
    Rectified,
    /// `|p̂_c − p_c|`, Eq. (3) as printed.
    Literal,
}

impl ScoreForm {
    /// Class `c`'s deviation from the target `p̂_c` of the global `p_c`.
    pub(crate) fn deviation(self, target: f64, global: f64) -> f64 {
        match self {
            ScoreForm::Rectified => (target - global).max(0.0),
            ScoreForm::Literal => (target - global).abs(),
        }
    }
}

/// Eq. (3) for one client: its count-weighted per-class `deviation` over
/// its sample count, 0 for an empty client.
pub(crate) fn scarcity_score(counts: &[usize], deviation: &[f64]) -> f64 {
    assert_eq!(counts.len(), deviation.len(), "class count mismatch");
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: f64 = counts
        .iter()
        .zip(deviation)
        .map(|(&n, d)| n as f64 * d)
        .sum();
    weighted / total as f64
}

/// Global imbalance degree `D`: total-variation distance between the
/// actual global distribution and the target. `0` = perfectly on-target.
pub fn imbalance_degree(global: &[f64], target: &[f64]) -> f64 {
    total_variation(global, target)
}

/// The adaptive temperature of Eq. (4).
///
/// Works inversely with imbalance and is scaled by the class count so the
/// softmax sensitivity is consistent across datasets (scores shrink like
/// `1/C`): `T = (1 − D) / ((D + ε) · C)`, clamped for numeric safety.
/// Balanced data ⇒ `T` huge ⇒ near-uniform weights; heavy imbalance ⇒
/// small `T` ⇒ decisive weighting.
pub fn temperature(global: &[f64], target: &[f64]) -> f64 {
    let classes = global.len();
    let d = imbalance_degree(global, target);
    let t = (1.0 - d).max(1e-3) / ((d + 1e-3) * classes as f64);
    t.clamp(1e-5, 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::ClassPrior;

    /// The rectified prior of two clients holding `a` and `b`.
    fn prior(a: [usize; 2], b: [usize; 2]) -> ClassPrior {
        let global = [a[0] + b[0], a[1] + b[1]];
        ClassPrior::new(&global, [&a[..], &b[..]], ScoreForm::Rectified)
    }

    #[test]
    fn global_distribution_sums_counts() {
        let g = prior([3, 1], [1, 5]).global().to_vec();
        assert!((g[0] - 0.4).abs() < 1e-12);
        assert!((g[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn scarce_class_holders_score_higher() {
        // Class 1 is globally scarce; client 1 holds mostly class 1.
        let s = prior([90, 2], [2, 6]).scores().to_vec();
        assert!(s[1] > s[0], "minority-rich client must score higher: {s:?}");
    }

    #[test]
    fn balanced_global_gives_zero_scores() {
        // Global is balanced even though clients are skewed.
        let s = prior([10, 0], [0, 10]).scores().to_vec();
        assert!(s.iter().all(|&x| x.abs() < 1e-12), "{s:?}");
    }

    #[test]
    fn empty_client_scores_zero() {
        assert_eq!(prior([0, 0], [3, 1]).scores()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn literal_scores_check_the_class_count() {
        ClassPrior::new(&[1, 1], [&[1, 1, 1][..]], ScoreForm::Literal);
    }

    #[test]
    fn temperature_decreases_with_imbalance() {
        let target = vec![0.25; 4];
        let balanced = vec![0.25; 4];
        let skewed = vec![0.7, 0.1, 0.1, 0.1];
        let very_skewed = vec![0.97, 0.01, 0.01, 0.01];
        let t0 = temperature(&balanced, &target);
        let t1 = temperature(&skewed, &target);
        let t2 = temperature(&very_skewed, &target);
        assert!(t0 > t1 && t1 > t2, "T sequence {t0} {t1} {t2}");
    }

    #[test]
    fn temperature_scales_with_classes() {
        // Same TV distance, more classes ⇒ smaller T (scores shrink ~1/C).
        let t10 = temperature(&make_skewed(10), &[0.1; 10]);
        let t100 = temperature(&make_skewed(100), &vec![0.01; 100]);
        assert!(t100 < t10, "t10 {t10} t100 {t100}");
    }

    fn make_skewed(classes: usize) -> Vec<f64> {
        // Head class has half the mass, rest uniform.
        let mut v = vec![0.5 / (classes - 1) as f64; classes];
        v[0] = 0.5;
        v
    }

    #[test]
    fn imbalance_degree_bounds() {
        let target = vec![0.25; 4];
        assert_eq!(imbalance_degree(&target, &target), 0.0);
        let extreme = vec![1.0, 0.0, 0.0, 0.0];
        let d = imbalance_degree(&extreme, &target);
        assert!((d - 0.75).abs() < 1e-12);
    }
}
