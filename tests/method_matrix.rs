//! The full method matrix at smoke scale: every algorithm the paper
//! evaluates must run end-to-end on both partitions without diverging,
//! and the experiment harness must produce sane cells for each.

use fedwcm_experiments::report::run_cell;
use fedwcm_experiments::{Cli, ExpConfig, Method, Scale};
use fedwcm_suite::data::synth::DatasetPreset;

#[test]
fn every_method_runs_on_the_paper_partition() {
    let cli = Cli {
        scale: Scale::Smoke,
        ..Cli::default()
    };
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    for method in Method::ALL {
        let acc = run_cell(&exp, method, &cli)[0];
        assert!(
            (0.0..=1.0).contains(&acc) && acc.is_finite(),
            "{}: accuracy {acc}",
            method.label()
        );
        // Even at smoke scale nothing should be stuck strictly below
        // chance for a 10-class problem with 8 rounds of training.
        assert!(acc >= 0.05, "{}: degenerate accuracy {acc}", method.label());
    }
}

#[test]
fn core_methods_run_on_the_fedgrab_partition() {
    let cli = Cli {
        scale: Scale::Smoke,
        ..Cli::default()
    };
    let mut exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3002);
    exp.fedgrab_partition = true;
    for method in [
        Method::FedAvg,
        Method::FedCm,
        Method::FedWcm,
        Method::FedWcmX,
    ] {
        let acc = run_cell(&exp, method, &cli)[0];
        assert!(
            acc.is_finite() && acc >= 0.05,
            "{}: accuracy {acc}",
            method.label()
        );
    }
}

#[test]
fn hundred_class_preset_smoke() {
    // The CIFAR-100/ImageNet stand-ins exercise the wide-model path.
    let cli = Cli {
        scale: Scale::Smoke,
        rounds: Some(3),
        ..Cli::default()
    };
    let exp = ExpConfig::new(DatasetPreset::Cifar100, 0.1, 0.1, Scale::Smoke, 3003);
    for method in [Method::FedAvg, Method::FedWcm] {
        let acc = run_cell(&exp, method, &cli)[0];
        assert!(
            acc.is_finite() && (0.0..=1.0).contains(&acc),
            "{}",
            method.label()
        );
    }
}
