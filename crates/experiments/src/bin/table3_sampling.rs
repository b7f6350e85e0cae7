//! Table 3: client-sampling-rate sweep {5, 10, 20, 40, 80}% for
//! FedAvg / FedCM / FedWCM on CIFAR-10 (β = 0.6, IF = 0.1).

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, Cli, ExpConfig, Method, Scale};
use fedwcm_stats::describe::mean;

fn main() {
    let cli: Cli = parse_args(std::env::args());
    let methods = [Method::FedAvg, Method::FedCm, Method::FedWcm];
    let headers: Vec<String> = methods.iter().map(|m| m.label().to_string()).collect();
    let rates = [0.05f64, 0.1, 0.2, 0.4, 0.8];
    let mut rows = Vec::new();
    for rate in rates {
        let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.6, cli.scale, cli.seed);
        // The 5%/10% rows need enough clients for the rate to resolve.
        if cli.scale != Scale::Paper {
            exp.fl.clients = 20;
        }
        exp.fl.participation = rate;
        let values: Vec<f64> = methods
            .iter()
            .map(|&m| mean(&run_cell(&exp, m, &cli)))
            .collect();
        cli.progress(format!("[table3] rate={rate} done"));
        rows.push((format!("{}%", (rate * 100.0) as usize), values));
    }
    print_table("Table 3 — client sampling rate sweep", &headers, &rows);
}
