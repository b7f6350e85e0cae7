//! The class prior FedWCM trains on (§5.1, §5.5): the global class
//! distribution plus one Eq. (3) scarcity score per client. In the paper's
//! protocol the server learns only the aggregate class counts, through the
//! HE exchange (`fedwcm-he`), and each client scores its own counts against
//! the broadcast distribution; [`ClassPrior::new`] is that computation.
//! The target distribution `p̂` is uniform, the paper's default.

use crate::score::{imbalance_degree, scarcity_score, temperature, ScoreForm};

/// The global class distribution and each client's Eq. (3) score, with
/// what Eqs. (4)–(5) derive from them.
#[derive(Clone, Debug)]
pub struct ClassPrior {
    global: Vec<f64>,
    scores: Vec<f64>,
    mean_score: f64,
    imbalance: f64,
    temperature: f64,
}

impl ClassPrior {
    /// The prior of `global_counts` (one entry per class) and each
    /// client's own class counts, scored in `form`. An empty total reads
    /// as the uniform distribution; a client whose class count differs
    /// from the global one panics.
    pub fn new<'a>(
        global_counts: &[usize],
        clients: impl IntoIterator<Item = &'a [usize]>,
        form: ScoreForm,
    ) -> Self {
        let classes = global_counts.len();
        let target = vec![1.0 / classes as f64; classes];
        let total: usize = global_counts.iter().sum();
        let global: Vec<f64> = if total == 0 {
            target.clone()
        } else {
            global_counts
                .iter()
                .map(|&n| n as f64 / total as f64)
                .collect()
        };
        let deviation: Vec<f64> = target
            .iter()
            .zip(&global)
            .map(|(&t, &g)| form.deviation(t, g))
            .collect();
        let scores: Vec<f64> = clients
            .into_iter()
            .map(|counts| scarcity_score(counts, &deviation))
            .collect();
        ClassPrior {
            mean_score: scores.iter().sum::<f64>() / scores.len().max(1) as f64,
            imbalance: imbalance_degree(&global, &target),
            temperature: temperature(&global, &target),
            global,
            scores,
        }
    }

    /// The global class distribution `p`.
    pub fn global(&self) -> &[f64] {
        &self.global
    }

    /// Client `k`'s Eq. (3) score at index `k`.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The mean score over every client, Eq. (5)'s `q_r` denominator.
    pub fn mean_score(&self) -> f64 {
        self.mean_score
    }

    /// The imbalance degree `D` against the uniform target.
    pub fn imbalance(&self) -> f64 {
        self.imbalance
    }

    /// Eq. (4)'s adaptive temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }
}
