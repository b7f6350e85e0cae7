//! Figure 12: accuracy curves under the FedGrab (quantity-skewed)
//! partition at β = 0.1, IF = 0.1 — FedWCM-X vs the six baselines.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_series, run_history};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.1, cli.scale, cli.seed);
    exp.fedgrab_partition = true;
    let methods = [
        Method::FedAvg,
        Method::BalanceFl,
        Method::FedGrab,
        Method::FedCm,
        Method::FedCmBalanceLoss,
        Method::FedCmBalanceSampler,
        Method::FedWcmX,
    ];
    let mut histories = Vec::new();
    for m in methods {
        histories.push(run_history(&exp, m, &cli));
        cli.progress(format!("[fig12] {} done", m.label()));
    }
    print_series("Fig.12 accuracy under the FedGrab partition", &histories);
    println!("\n# final accuracies:");
    for h in &histories {
        println!("{}: {:.4}", h.name, h.final_accuracy(3));
    }
}
