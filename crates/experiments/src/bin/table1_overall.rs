//! Tables 1 and 7: overall accuracy comparison across datasets,
//! imbalance factors IF ∈ {1, 0.5, 0.1, 0.05, 0.01}, heterogeneity
//! β ∈ {0.6, 0.1}, for the 8 methods (Table 1's seven + FedGrab, i.e. the
//! Table 7 superset). `--dataset NAME` restricts to one preset
//! (`table7` = `table1_overall --dataset cifar-10`).

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::cli::parse_args_with_dataset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{ExpConfig, Method};
use fedwcm_stats::describe::mean;

fn main() {
    let (dataset, cli) = parse_args_with_dataset(std::env::args(), "[--dataset NAME]");
    let methods = [
        Method::FedAvg,
        Method::BalanceFl,
        Method::FedGrab,
        Method::FedCm,
        Method::FedCmFocal,
        Method::FedCmBalanceLoss,
        Method::FedCmBalanceSampler,
        Method::FedWcm,
    ];
    let headers: Vec<String> = methods.iter().map(|m| m.label().to_string()).collect();
    let ifs = [1.0, 0.5, 0.1, 0.05, 0.01];

    for preset in DatasetPreset::all() {
        let name = preset.spec().name;
        if dataset.is_some_and(|d| d != preset) {
            continue;
        }
        for beta in [0.6, 0.1] {
            let mut rows = Vec::new();
            for imbalance in ifs {
                let exp = ExpConfig::new(preset, imbalance, beta, cli.scale, cli.seed);
                let values: Vec<f64> = methods
                    .iter()
                    .map(|&m| mean(&run_cell(&exp, m, &cli)))
                    .collect();
                rows.push((format!("IF={imbalance}"), values));
                cli.progress(format!("[table1] {name} beta={beta} IF={imbalance} done"));
            }
            print_table(&format!("Table 1/7 — {name}, beta={beta}"), &headers, &rows);
        }
    }
}
