//! Appendix-B companion: classifier-geometry evidence for minority
//! collapse. For FedAvg / FedCM / FedWCM at β = 0.6, IF = 0.05, report
//! per-class classifier-row norms, the head/tail norm ratio, the mean
//! pairwise cosine within the tail classes, and within-class feature
//! variability — the quantities the neural-collapse analysis predicts
//! momentum distorts.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::analysis::geometry::{classifier_geometry, within_class_variability};
use fedwcm_experiments::methods::build_method;
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let exp = ExpConfig::new(DatasetPreset::Cifar10, 0.05, 0.6, cli.scale, cli.seed);
    let task = cli.prepare(&exp);
    let counts = task.global_counts();
    let classes = task.test.classes();
    let tail: Vec<usize> = {
        let mut order: Vec<usize> = (0..classes).collect();
        order.sort_by(|&a, &b| counts[b].cmp(&counts[a]));
        order[classes / 2..].to_vec()
    };

    println!("# Appendix-B geometry (beta=0.6, IF=0.05); tail classes {tail:?}");
    for method in [Method::FedAvg, Method::FedCm, Method::FedWcm] {
        let mut algo = build_method(method, &task);
        let (h, mut model) = cli.simulation(&task).run_returning_model(algo.as_mut());
        let geom = classifier_geometry(&model);
        let variability = within_class_variability(&mut model, &task.test, 400);
        let mean_var: f64 = variability.iter().sum::<f64>() / variability.len() as f64;
        println!(
            "\n## {} (final acc {:.4})",
            method.label(),
            h.final_accuracy(3)
        );
        println!(
            "row norms: {:?}",
            geom.row_norms
                .iter()
                .map(|v| (v * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
        println!(
            "head/tail norm ratio: {:.3}",
            geom.head_tail_norm_ratio(&counts)
        );
        println!(
            "mean tail-pair cosine: {:.3}",
            geom.mean_cosine_within(&tail)
        );
        println!("mean within-class variability: {:.4}", mean_var);
        cli.progress(format!("[geometry] {} done", method.label()));
    }
}
