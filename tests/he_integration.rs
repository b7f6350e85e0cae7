//! Integration: the HE aggregation protocol plugged into FedWCM's
//! global-information-gathering phase must be transparent — the class
//! prior built from the decrypted counts equals the one `FedWcm::prepare`
//! builds from the client views in the clear, bit for bit.

use fedwcm_experiments::{ExpConfig, Scale};
use fedwcm_suite::core::{ClassPrior, ScoreForm};
use fedwcm_suite::data::dataset::ClientView;
use fedwcm_suite::he::protocol::aggregate_distributions;
use fedwcm_suite::he::rlwe::RlweParams;
use fedwcm_suite::prelude::*;

/// Every value of `prior` as bits: the distribution, the scores, then
/// the mean score, imbalance and temperature.
fn bits(prior: &ClassPrior) -> Vec<u64> {
    let derived = [prior.mean_score(), prior.imbalance(), prior.temperature()];
    let values = prior.global().iter().chain(prior.scores()).chain(&derived);
    values.map(|x| x.to_bits()).collect()
}

#[test]
fn he_distribution_matches_cleartext_everywhere() {
    // The smoke tasks `tests/method_digests.rs` pins: FashionMNIST, seed
    // 3001, on the paper and the FedGrab partition.
    let paper = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    let fedgrab = ExpConfig {
        fedgrab_partition: true,
        ..paper.clone()
    };
    for exp in [paper, fedgrab] {
        let task = exp.prepare();
        let views = task.partition.views(&task.train);

        // Clear-text path: the views, through `prepare`.
        let mut wcm = FedWcm::new();
        wcm.prepare(&views, task.train.classes());

        // Encrypted path: the prior every experiment's FedWCM trains on.
        let he = task.class_prior(ScoreForm::Rectified);
        assert_eq!(bits(wcm.prior().unwrap()), bits(&he));
        assert!(he.imbalance() > 0.1);

        // The literal Eq. (3) ablation's prior too.
        let clients = views.iter().map(ClientView::class_counts);
        let literal = ClassPrior::new(&task.train.class_counts(), clients, ScoreForm::Literal);
        assert_eq!(bits(&literal), bits(&task.class_prior(ScoreForm::Literal)));
    }
}

#[test]
fn he_protocol_scales_to_hundred_classes() {
    let spec = DatasetPreset::Cifar100.spec();
    let counts = longtail_counts(100, 60, 0.05);
    let train = spec.generate_train(&counts, 56);
    let views = paper_partition(&train, 10, 0.1, 56).views(&train);
    let payloads: Vec<Vec<usize>> = views.iter().map(|v| v.class_counts().to_vec()).collect();
    let (agg, report) = aggregate_distributions(&payloads, RlweParams::default_params(), 56);
    assert_eq!(agg, train.class_counts());
    // Ciphertext size independent of class count (Table 6's key row).
    assert_eq!(
        report.ciphertext_bytes,
        RlweParams::default_params().ciphertext_bytes()
    );
}
