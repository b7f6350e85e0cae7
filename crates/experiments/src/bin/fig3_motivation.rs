//! Figure 3: test accuracy over rounds on CIFAR-10 with β = 0.1 and
//! IF ∈ {1, 0.1, 0.01} for FedAvg vs FedCM — the motivation plot showing
//! FedCM's long-tail collapse.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_series, run_history};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    for imbalance in [1.0, 0.1, 0.01] {
        let exp = ExpConfig::new(DatasetPreset::Cifar10, imbalance, 0.1, cli.scale, cli.seed);
        let mut histories = Vec::new();
        for method in [Method::FedAvg, Method::FedCm] {
            let mut h = run_history(&exp, method, &cli);
            h.name = format!("{}(IF={imbalance})", h.name);
            histories.push(h);
        }
        print_series(
            &format!("Fig.3 accuracy curves, IF={imbalance}"),
            &histories,
        );
        let tail_std: Vec<String> = histories
            .iter()
            .map(|h| {
                format!(
                    "{}: final={:.4} tail-std={:.4}",
                    h.name,
                    h.final_accuracy(3),
                    h.tail_accuracy_std(5)
                )
            })
            .collect();
        println!("# summary: {}", tail_std.join(" | "));
    }
}
