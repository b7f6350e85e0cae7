//! Federated data partitioners.
//!
//! Two schemes from the paper:
//!
//! * [`paper_partition`] — the partition used in the main experiments
//!   (following BalanceFL): every client holds (nearly) the **same number
//!   of samples**, with class proportions skewed by `Dir(β)`, while the
//!   per-class totals follow the global long-tail profile. Realised by
//!   iterative proportional fitting of the Dirichlet draws to both
//!   marginals, then exact integer rounding on the class marginal.
//! * [`fedgrab_partition`] — the Appendix-A partition (following FedGrab):
//!   each class is split across clients by an independent `Dir(β)` draw,
//!   which produces strong *quantity* skew (a few clients hold most data).

use crate::dataset::{ClientView, Dataset};
use fedwcm_stats::dist::Dirichlet;
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};

/// The result of a partition: each client's sample indices into the master
/// dataset.
#[derive(Clone, Debug)]
pub struct Partition {
    client_indices: Vec<Vec<usize>>,
}

impl Partition {
    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.client_indices.len()
    }

    /// Sample indices owned by client `k`.
    pub fn client(&self, k: usize) -> &[usize] {
        &self.client_indices[k]
    }

    /// Per-client sample counts (`n_k`).
    pub fn client_sizes(&self) -> Vec<usize> {
        self.client_indices.iter().map(Vec::len).collect()
    }

    /// Materialise [`ClientView`]s against the master dataset.
    pub fn views(&self, dataset: &Dataset) -> Vec<ClientView> {
        self.client_indices
            .iter()
            .map(|idx| ClientView::new(idx.clone(), dataset))
            .collect()
    }

    /// Client × class count matrix.
    pub fn counts_matrix(&self, dataset: &Dataset) -> Vec<Vec<usize>> {
        self.client_indices
            .iter()
            .map(|idx| {
                let mut counts = vec![0usize; dataset.classes()];
                for &i in idx {
                    counts[dataset.label(i)] += 1;
                }
                counts
            })
            .collect()
    }
}

/// Integer-round a non-negative real vector to sum exactly to `target`
/// using the largest-remainder method.
fn round_to_sum(values: &[f64], target: usize) -> Vec<usize> {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        // Degenerate: spread uniformly.
        let mut out = vec![target / values.len().max(1); values.len()];
        let mut rem = target - out.iter().sum::<usize>();
        for o in out.iter_mut() {
            if rem == 0 {
                break;
            }
            *o += 1;
            rem -= 1;
        }
        return out;
    }
    let scaled: Vec<f64> = values.iter().map(|&v| v / total * target as f64).collect();
    let mut out: Vec<usize> = scaled.iter().map(|&v| v.floor() as usize).collect();
    let mut rem = target - out.iter().sum::<usize>();
    // Assign leftovers to the largest fractional parts.
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = scaled[a] - scaled[a].floor();
        let fb = scaled[b] - scaled[b].floor();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &i in order.iter().cycle().take(values.len() * 2) {
        if rem == 0 {
            break;
        }
        out[i] += 1;
        rem -= 1;
    }
    out
}

/// The paper's equal-quantity Dirichlet partition.
///
/// * Every client receives `⌊n/K⌋` or `⌈n/K⌉` samples;
/// * per-class totals match the dataset's long-tail counts exactly;
/// * class mixes per client are `Dir(β)`-skewed (smaller β = more skew).
pub fn paper_partition(dataset: &Dataset, clients: usize, beta: f64, seed: u64) -> Partition {
    assert!(clients >= 1, "need at least one client");
    let classes = dataset.classes();
    let class_counts = dataset.class_counts();
    let n = dataset.len();
    assert!(n >= clients, "fewer samples than clients");

    let mut rng = Xoshiro256pp::stream(
        seed,
        &[stream::PARTITION_PAPER, clients as u64, beta.to_bits()],
    );
    let dir = Dirichlet::symmetric(beta, classes);

    // Raw Dirichlet intent: D[k][c] ∝ client k's preference for class c.
    let mut d: Vec<Vec<f64>> = (0..clients).map(|_| dir.sample(&mut rng)).collect();

    // Target marginals: equal row sums, long-tail column sums.
    let row_target: Vec<f64> = {
        let base = n / clients;
        let extra = n % clients;
        (0..clients)
            .map(|k| (base + usize::from(k < extra)) as f64)
            .collect()
    };
    let col_target: Vec<f64> = class_counts.iter().map(|&c| c as f64).collect();

    // Iterative proportional fitting (raking): alternately scale rows and
    // columns onto their targets. Converges geometrically for positive
    // matrices; Dirichlet draws are strictly positive.
    for _ in 0..50 {
        for (k, row) in d.iter_mut().enumerate() {
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                let f = row_target[k] / s;
                for v in row.iter_mut() {
                    *v *= f;
                }
            }
        }
        for c in 0..classes {
            let s: f64 = d.iter().map(|row| row[c]).sum();
            if s > 0.0 {
                let f = col_target[c] / s;
                for row in d.iter_mut() {
                    row[c] *= f;
                }
            }
        }
    }

    // Exact integer counts per class (columns must match the pools).
    let mut counts = vec![vec![0usize; classes]; clients];
    for c in 0..classes {
        let col: Vec<f64> = d.iter().map(|row| row[c]).collect();
        let alloc = round_to_sum(&col, class_counts[c]);
        for (k, &a) in alloc.iter().enumerate() {
            counts[k][c] = a;
        }
    }

    deal_from_pools(dataset, &counts, &mut rng)
}

/// The FedGrab-style quantity-skewed partition: each class's samples are
/// split across clients by an independent `Dir(β)` draw; clients that end
/// up empty receive one sample from the most abundant class.
pub fn fedgrab_partition(dataset: &Dataset, clients: usize, beta: f64, seed: u64) -> Partition {
    assert!(clients >= 1, "need at least one client");
    let classes = dataset.classes();
    let class_counts = dataset.class_counts();
    assert!(dataset.len() >= clients, "fewer samples than clients");

    let mut rng = Xoshiro256pp::stream(
        seed,
        &[stream::PARTITION_FEDGRAB, clients as u64, beta.to_bits()],
    );
    let dir = Dirichlet::symmetric(beta, clients);

    let mut counts = vec![vec![0usize; classes]; clients];
    for c in 0..classes {
        let w = dir.sample(&mut rng);
        let alloc = round_to_sum(&w, class_counts[c]);
        for (k, &a) in alloc.iter().enumerate() {
            counts[k][c] = a;
        }
    }

    // FedGrab's rule: no empty clients — donate one sample of the globally
    // largest class from the currently largest client.
    let head_class = {
        let mut best = 0;
        for (c, &n) in class_counts.iter().enumerate() {
            if n > class_counts[best] {
                best = c;
            }
        }
        best
    };
    for k in 0..clients {
        let total: usize = counts[k].iter().sum();
        if total == 0 {
            let donor = (0..clients)
                .max_by_key(|&j| counts[j][head_class])
                .unwrap_or(0);
            assert!(counts[donor][head_class] > 0, "no donor sample available");
            counts[donor][head_class] -= 1;
            counts[k][head_class] += 1;
        }
    }

    deal_from_pools(dataset, &counts, &mut rng)
}

/// Deal concrete sample indices out of per-class pools according to an
/// integer count matrix whose column sums equal the dataset class counts.
fn deal_from_pools(dataset: &Dataset, counts: &[Vec<usize>], rng: &mut Xoshiro256pp) -> Partition {
    let classes = dataset.classes();
    let mut pools: Vec<Vec<usize>> = (0..classes).map(|c| dataset.indices_of_class(c)).collect();
    for pool in pools.iter_mut() {
        rng.shuffle(pool);
    }
    let mut client_indices: Vec<Vec<usize>> = counts
        .iter()
        .map(|row| Vec::with_capacity(row.iter().sum()))
        .collect();
    for (row, out) in counts.iter().zip(client_indices.iter_mut()) {
        for (c, &take) in row.iter().enumerate() {
            let pool = &mut pools[c];
            assert!(
                pool.len() >= take,
                "class {c} pool exhausted: need {take}, have {}",
                pool.len()
            );
            out.extend(pool.drain(pool.len() - take..));
        }
    }
    Partition { client_indices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longtail::longtail_counts;
    use crate::synth::DatasetPreset;
    use fedwcm_stats::describe::gini;

    fn make_dataset(imb: f64) -> Dataset {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 300, imb);
        spec.generate_train(&counts, 77)
    }

    #[test]
    fn paper_partition_equal_quantities() {
        let ds = make_dataset(0.1);
        let p = paper_partition(&ds, 20, 0.1, 1);
        let sizes = p.client_sizes();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, ds.len());
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Row marginal is approximate after integer rounding; stay tight.
        assert!(max - min <= (ds.len() / 20) / 5 + 2, "sizes {min}..{max}");
    }

    #[test]
    fn paper_partition_class_totals_exact() {
        let ds = make_dataset(0.1);
        let p = paper_partition(&ds, 15, 0.5, 2);
        let m = p.counts_matrix(&ds);
        let class_counts = ds.class_counts();
        for c in 0..10 {
            let col: usize = m.iter().map(|row| row[c]).sum();
            assert_eq!(col, class_counts[c], "class {c}");
        }
    }

    #[test]
    fn paper_partition_no_index_reuse() {
        let ds = make_dataset(0.5);
        let p = paper_partition(&ds, 10, 0.1, 3);
        let mut seen = vec![false; ds.len()];
        for k in 0..p.num_clients() {
            for &i in p.client(k) {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lower_beta_more_class_skew() {
        let ds = make_dataset(1.0);
        let skew = |beta: f64| -> f64 {
            let p = paper_partition(&ds, 20, beta, 4);
            let m = p.counts_matrix(&ds);
            // Mean within-client max-class share.
            let mut acc = 0.0;
            for row in &m {
                let total: usize = row.iter().sum();
                let max = *row.iter().max().unwrap();
                acc += max as f64 / total.max(1) as f64;
            }
            acc / m.len() as f64
        };
        let high_skew = skew(0.1);
        let low_skew = skew(10.0);
        assert!(
            high_skew > low_skew + 0.15,
            "β=0.1 share {high_skew} vs β=10 share {low_skew}"
        );
    }

    #[test]
    fn paper_partition_quantity_gini_near_zero() {
        let ds = make_dataset(0.1);
        let p = paper_partition(&ds, 25, 0.1, 5);
        let sizes: Vec<f64> = p.client_sizes().iter().map(|&s| s as f64).collect();
        assert!(gini(&sizes) < 0.02, "gini {}", gini(&sizes));
    }

    #[test]
    fn fedgrab_partition_quantity_skewed() {
        let ds = make_dataset(0.1);
        let p = fedgrab_partition(&ds, 25, 0.1, 6);
        let sizes: Vec<f64> = p.client_sizes().iter().map(|&s| s as f64).collect();
        let total: usize = p.client_sizes().iter().sum();
        assert_eq!(total, ds.len());
        assert!(gini(&sizes) > 0.3, "gini {}", gini(&sizes));
        // Nobody is empty.
        assert!(p.client_sizes().iter().all(|&s| s >= 1));
    }

    #[test]
    fn fedgrab_class_totals_exact() {
        let ds = make_dataset(0.5);
        let p = fedgrab_partition(&ds, 12, 0.3, 7);
        let m = p.counts_matrix(&ds);
        let class_counts = ds.class_counts();
        for c in 0..10 {
            let col: usize = m.iter().map(|row| row[c]).sum();
            assert_eq!(col, class_counts[c], "class {c}");
        }
    }

    #[test]
    fn partitions_deterministic() {
        let ds = make_dataset(0.1);
        let a = paper_partition(&ds, 10, 0.1, 42);
        let b = paper_partition(&ds, 10, 0.1, 42);
        for k in 0..10 {
            assert_eq!(a.client(k), b.client(k));
        }
        let c = paper_partition(&ds, 10, 0.1, 43);
        assert!((0..10).any(|k| a.client(k) != c.client(k)));
    }

    #[test]
    fn round_to_sum_exact() {
        for target in [0usize, 1, 7, 100] {
            let v = [0.2, 3.7, 1.1, 0.0, 2.5];
            let r = round_to_sum(&v, target);
            assert_eq!(r.iter().sum::<usize>(), target);
        }
        // Degenerate all-zero weights still hits the target.
        let r = round_to_sum(&[0.0, 0.0, 0.0], 5);
        assert_eq!(r.iter().sum::<usize>(), 5);
    }

    #[test]
    fn views_match_counts() {
        let ds = make_dataset(0.1);
        let p = paper_partition(&ds, 8, 0.2, 9);
        let views = p.views(&ds);
        let m = p.counts_matrix(&ds);
        for (v, row) in views.iter().zip(&m) {
            assert_eq!(v.class_counts(), row.as_slice());
        }
    }
}
