//! Figure 8: per-label accuracy of FedAvg / FedCM / FedWCM at β = 0.6,
//! IF = 0.1 — FedWCM's tail-class advantage.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::analysis::per_class::head_tail_summary;
use fedwcm_experiments::methods::build_method;
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.6, cli.scale, cli.seed);
    let task = cli.prepare(&exp);
    let counts = task.global_counts();
    println!("# global training class counts (label 0 = head): {counts:?}\n");
    println!(
        "| {:<8} | {:>8} | {:>8} | {:>8} |",
        "label", "FedAvg", "FedCM", "FedWCM"
    );

    let mut summaries = Vec::new();
    for method in [Method::FedAvg, Method::FedCm, Method::FedWcm] {
        let mut algo = build_method(method, &task);
        let (_, mut model) = cli.simulation(&task).run_returning_model(algo.as_mut());
        summaries.push(head_tail_summary(&mut model, &task.test, &counts));
        cli.progress(format!("[fig8] {} done", method.label()));
    }
    for label in 0..task.test.classes() {
        println!(
            "| {:<8} | {:>8.4} | {:>8.4} | {:>8.4} |",
            label,
            summaries[0].per_class[label],
            summaries[1].per_class[label],
            summaries[2].per_class[label],
        );
    }
    println!("\n# head/tail means:");
    for (name, s) in ["FedAvg", "FedCM", "FedWCM"].iter().zip(&summaries) {
        println!(
            "{name}: head={:.4} tail={:.4}",
            s.head_accuracy, s.tail_accuracy
        );
    }
}
