//! Figure 9: test accuracy vs total client count for FedAvg / FedCM /
//! FedWCM on CIFAR-10 (β = 0.6, IF = 0.1). More clients = less data per
//! client at fixed total data.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, ExpConfig, Method, Scale};
use fedwcm_stats::describe::mean;

fn main() {
    let cli = parse_args(std::env::args());
    let methods = [Method::FedAvg, Method::FedCm, Method::FedWcm];
    let headers: Vec<String> = methods.iter().map(|m| m.label().to_string()).collect();
    let client_counts: &[usize] = match cli.scale {
        Scale::Smoke => &[5, 10, 20],
        Scale::Quick => &[10, 20, 40, 60],
        Scale::Paper => &[20, 50, 100, 150, 200],
    };
    let mut rows = Vec::new();
    for &k in client_counts {
        let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.6, cli.scale, cli.seed);
        exp.fl.clients = k;
        // Keep the sampled cohort size roughly constant (as the paper's
        // fixed 10% of 100 does) so only per-client data volume varies.
        exp.fl.participation = (5.0 / k as f64).clamp(0.05, 1.0);
        let values: Vec<f64> = methods
            .iter()
            .map(|&m| mean(&run_cell(&exp, m, &cli)))
            .collect();
        cli.progress(format!("[fig9] clients={k} done"));
        rows.push((format!("K={k}"), values));
    }
    print_table("Fig.9 — accuracy vs total client count", &headers, &rows);
}
