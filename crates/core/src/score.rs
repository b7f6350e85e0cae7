//! Global information gathering: scarcity scores (Eq. 3) and the
//! imbalance-driven temperature.

use fedwcm_data::dataset::ClientView;
use fedwcm_stats::describe::total_variation;

/// Aggregate the global class distribution from client views (what the
/// HE protocol of §5.5 computes privately; here the simulation server does
/// it in the clear — see `fedwcm-he` for the encrypted path).
pub fn global_distribution(views: &[ClientView], classes: usize) -> Vec<f64> {
    let mut counts = vec![0usize; classes];
    for v in views {
        for (c, &n) in v.class_counts().iter().enumerate() {
            counts[c] += n;
        }
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![1.0 / classes as f64; classes];
    }
    counts.iter().map(|&n| n as f64 / total as f64).collect()
}

/// Eq. (3): client scarcity scores.
///
/// The paper writes `s_k = Σ_c |p̂_c − p_c| · n_{k,c} / Σ_c n_{k,c}` and
/// states that "a higher score indicates that the client has more globally
/// scarce data". Taken literally, the absolute value breaks that
/// semantics: under a long tail the *head* class has the largest
/// deviation `|p̂ − p|`, so head-rich clients would score highest — the
/// opposite of the intent. We therefore use the **rectified deviation**
/// `max(p̂_c − p_c, 0)`: only globally *under-represented* classes
/// contribute, making the score exactly "the fraction of this client's
/// data that is globally scarce, weighted by how scarce". Scores are
/// non-negative (required by the `q_r` ratio in Eq. 5) and vanish when the
/// global distribution matches the target. The literal variant is kept as
/// [`client_scores_literal`] for the ablation benches.
pub fn client_scores(views: &[ClientView], global: &[f64], target: &[f64]) -> Vec<f64> {
    scores(views, global, target, |t, g| (t - g).max(0.0))
}

/// Eq. (3) taken literally (absolute deviation). Kept for the ablation
/// benches; see [`client_scores`] for why the rectified form is the
/// default.
pub fn client_scores_literal(views: &[ClientView], global: &[f64], target: &[f64]) -> Vec<f64> {
    scores(views, global, target, |t, g| (t - g).abs())
}

/// Eq. (3) under a per-class `deviation(target, global)`: each client's
/// count-weighted deviation over its sample count, 0 for an empty client.
fn scores(
    views: &[ClientView],
    global: &[f64],
    target: &[f64],
    deviation: fn(f64, f64) -> f64,
) -> Vec<f64> {
    assert_eq!(global.len(), target.len(), "distribution supports differ");
    let dev: Vec<f64> = target
        .iter()
        .zip(global)
        .map(|(&t, &g)| deviation(t, g))
        .collect();
    views
        .iter()
        .map(|v| {
            let counts = v.class_counts();
            assert_eq!(counts.len(), dev.len(), "class count mismatch");
            let total: usize = counts.iter().sum();
            if total == 0 {
                return 0.0;
            }
            let weighted: f64 = counts.iter().zip(&dev).map(|(&n, d)| n as f64 * d).sum();
            weighted / total as f64
        })
        .collect()
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
    use fedwcm_data::dataset::{ClientView, Dataset};
    use fedwcm_tensor::Tensor;

    fn views_from_counts(counts: &[Vec<usize>]) -> (Dataset, Vec<ClientView>) {
        // Build a dataset whose labels realise the requested counts.
        let classes = counts[0].len();
        let mut labels = Vec::new();
        let mut owners = Vec::new();
        for (k, row) in counts.iter().enumerate() {
            for (c, &n) in row.iter().enumerate() {
                for _ in 0..n {
                    labels.push(c);
                    owners.push(k);
                }
            }
        }
        let n = labels.len();
        let ds = Dataset::new(Tensor::zeros(&[n, 2]), labels, classes);
        let views = (0..counts.len())
            .map(|k| {
                let idx: Vec<usize> = owners
                    .iter()
                    .enumerate()
                    .filter(|&(_, &o)| o == k)
                    .map(|(i, _)| i)
                    .collect();
                ClientView::new(idx, &ds)
            })
            .collect();
        (ds, views)
    }

    #[test]
    fn global_distribution_sums_counts() {
        let (_, views) = views_from_counts(&[vec![3, 1], vec![1, 5]]);
        let g = global_distribution(&views, 2);
        assert!((g[0] - 0.4).abs() < 1e-12);
        assert!((g[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn scarce_class_holders_score_higher() {
        // Class 1 is globally scarce; client 1 holds mostly class 1.
        let (_, views) = views_from_counts(&[vec![90, 2], vec![2, 6]]);
        let g = global_distribution(&views, 2);
        let target = [0.5, 0.5];
        let s = client_scores(&views, &g, &target);
        assert!(s[1] > s[0], "minority-rich client must score higher: {s:?}");
    }

    #[test]
    fn balanced_global_gives_zero_scores() {
        let (_, views) = views_from_counts(&[vec![10, 0], vec![0, 10]]);
        let g = global_distribution(&views, 2);
        let target = [0.5, 0.5];
        // Global is balanced even though clients are skewed.
        let s = client_scores(&views, &g, &target);
        assert!(s.iter().all(|&x| x.abs() < 1e-12), "{s:?}");
    }

    #[test]
    fn empty_client_scores_zero() {
        let (ds, _) = views_from_counts(&[vec![2, 2]]);
        let empty = ClientView::new(vec![], &ds);
        let s = client_scores(&[empty], &[0.5, 0.5], &[0.5, 0.5]);
        assert_eq!(s, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn literal_scores_check_the_class_count() {
        let (_, views) = views_from_counts(&[vec![1, 1, 1]]);
        client_scores_literal(&views, &[0.5, 0.5], &[0.5, 0.5]);
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
