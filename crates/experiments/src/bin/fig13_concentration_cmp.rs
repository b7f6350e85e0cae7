//! Figure 13: average neuron concentration over rounds for
//! FedAvg / FedCM / FedWCM, at β = 0.1 with IF = 1 (left) and IF = 0.1
//! (right).

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::collapse::{print_trace_csv, run_with_concentration};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    for imbalance in [1.0, 0.1] {
        let exp = ExpConfig::new(DatasetPreset::Cifar10, imbalance, 0.1, cli.scale, cli.seed);
        let methods = [Method::FedAvg, Method::FedCm, Method::FedWcm];
        let mut rows: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut names = Vec::new();
        for m in methods {
            let trace = run_with_concentration(&exp, m, &cli, 1);
            names.push(trace.name.clone());
            for (i, &(round, c)) in trace.mean_concentration.iter().enumerate() {
                if rows.len() <= i {
                    rows.push((round, Vec::new()));
                }
                rows[i].1.push(c);
            }
            cli.progress(format!("[fig13] IF={imbalance} {} done", m.label()));
        }
        print_trace_csv(
            &format!("Fig.13 mean neuron concentration, IF={imbalance}"),
            &names,
            &rows,
        );
    }
}
