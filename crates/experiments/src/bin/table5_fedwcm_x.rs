//! Table 5: FedAvg / FedCM / FedWCM-X under the FedGrab partition,
//! β = 0.1, IF ∈ {1, 0.4, 0.1, 0.06, 0.04, 0.01}.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, ExpConfig, Method};
use fedwcm_stats::describe::mean;

fn main() {
    let cli = parse_args(std::env::args());
    let methods = [Method::FedAvg, Method::FedCm, Method::FedWcmX];
    let ifs = [1.0, 0.4, 0.1, 0.06, 0.04, 0.01];
    let headers: Vec<String> = ifs.iter().map(|v| format!("IF={v}")).collect();
    let mut rows = Vec::new();
    for m in methods {
        let values: Vec<f64> = ifs
            .iter()
            .map(|&imb| {
                let mut exp = ExpConfig::new(DatasetPreset::Cifar10, imb, 0.1, cli.scale, cli.seed);
                exp.fedgrab_partition = true;
                mean(&run_cell(&exp, m, &cli))
            })
            .collect();
        cli.progress(format!("[table5] {} done", m.label()));
        rows.push((m.label().to_string(), values));
    }
    print_table("Table 5 — FedGrab partition, beta=0.1", &headers, &rows);
}
