//! Table 4: β ∈ {0.1, 0.6} × IF ∈ {1, 0.4, 0.1, 0.06, 0.04, 0.01} for
//! FedAvg / FedCM / FedWCM on CIFAR-10.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, ExpConfig, Method};
use fedwcm_stats::describe::mean;

fn main() {
    let cli = parse_args(std::env::args());
    let methods = [Method::FedAvg, Method::FedCm, Method::FedWcm];
    let ifs = [1.0, 0.4, 0.1, 0.06, 0.04, 0.01];
    for beta in [0.1, 0.6] {
        let headers: Vec<String> = ifs.iter().map(|v| format!("IF={v}")).collect();
        let mut rows = Vec::new();
        for m in methods {
            let values: Vec<f64> = ifs
                .iter()
                .map(|&imb| {
                    let exp =
                        ExpConfig::new(DatasetPreset::Cifar10, imb, beta, cli.scale, cli.seed);
                    mean(&run_cell(&exp, m, &cli))
                })
                .collect();
            cli.progress(format!("[table4] beta={beta} {} done", m.label()));
            rows.push((m.label().to_string(), values));
        }
        print_table(&format!("Table 4 — beta={beta}"), &headers, &rows);
    }
}
