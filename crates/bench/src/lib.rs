//! Benchmark support crate.
//!
//! The benches live in `benches/`:
//!
//! * `kernels.rs` — tensor/BLAS kernel throughput (incl. the tiled-vs-
//!   naive matmul ablation from DESIGN.md §4);
//! * `fl_round.rs` — per-round federated costs: local training,
//!   aggregation, FedWCM's weighting/temperature computation;
//! * `he.rs` — RLWE encrypt/add/decrypt and full-protocol costs;
//! * `experiments.rs` — one bench target per paper table/figure, each
//!   regenerating a smoke-scale cell of that artifact (the full artifacts
//!   are produced by the `fedwcm-experiments` binaries).
//!
//! Shared helpers for constructing bench fixtures live here.

use fedwcm_data::dataset::Dataset;
use fedwcm_data::longtail::longtail_counts;
use fedwcm_data::synth::DatasetPreset;

/// A small fixed federated dataset for benchmarking.
pub fn bench_dataset(imbalance: f64) -> (Dataset, Dataset) {
    let spec = DatasetPreset::FashionMnist.spec();
    let counts = longtail_counts(10, 60, imbalance);
    (spec.generate_train(&counts, 7777), spec.generate_test(7777))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let (train, test) = bench_dataset(0.1);
        assert!(train.len() > 100);
        assert_eq!(test.classes(), 10);
    }
}
