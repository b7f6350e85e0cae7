//! Figures 14–16: per-layer neuron-concentration trajectories for
//! FedAvg (Fig. 14), FedCM (Fig. 15), and FedWCM (Fig. 16) at β = 0.1,
//! IF = 0.1.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::collapse::{print_trace_csv, run_with_concentration};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.1, cli.scale, cli.seed);
    for (fig, method) in [
        (14, Method::FedAvg),
        (15, Method::FedCm),
        (16, Method::FedWcm),
    ] {
        let trace = run_with_concentration(&exp, method, &cli, 1);
        print_trace_csv(
            &format!("Fig.{fig} per-layer concentration — {}", trace.name),
            &trace.layer_names,
            &trace.per_layer,
        );
        cli.progress(format!("[fig14-16] {} done", method.label()));
    }
}
