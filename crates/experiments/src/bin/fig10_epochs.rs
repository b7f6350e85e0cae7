//! Figure 10: test accuracy vs local epochs {1, 5, 10, 20} for
//! FedAvg / FedCM / FedWCM on CIFAR-10 (β = 0.6, IF = 0.1).

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, ExpConfig, Method, Scale};
use fedwcm_stats::describe::mean;

fn main() {
    let cli = parse_args(std::env::args());
    let methods = [Method::FedAvg, Method::FedCm, Method::FedWcm];
    let headers: Vec<String> = methods.iter().map(|m| m.label().to_string()).collect();
    let epochs: &[usize] = match cli.scale {
        Scale::Smoke => &[1, 2, 4],
        _ => &[1, 5, 10, 20],
    };
    let mut rows = Vec::new();
    for &e in epochs {
        let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.6, cli.scale, cli.seed);
        exp.fl.local_epochs = e;
        let values: Vec<f64> = methods
            .iter()
            .map(|&m| mean(&run_cell(&exp, m, &cli)))
            .collect();
        cli.progress(format!("[fig10] epochs={e} done"));
        rows.push((format!("E={e}"), values));
    }
    print_table("Fig.10 — accuracy vs local epochs", &headers, &rows);
}
