//! Table 2: CIFAR-10 slice — FedAvg vs FedGrab vs FedWCM under
//! β ∈ {0.6, 0.1} and IF ∈ {1, 0.5, 0.1, 0.05, 0.01}.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_cell};
use fedwcm_experiments::{parse_args, ExpConfig, Method};
use fedwcm_stats::describe::mean;

fn main() {
    let cli = parse_args(std::env::args());
    let console = cli.console();
    let methods = [Method::FedAvg, Method::FedGrab, Method::FedWcm];
    let ifs = [1.0, 0.5, 0.1, 0.05, 0.01];
    let mut headers = Vec::new();
    for m in methods {
        for beta in [0.6, 0.1] {
            headers.push(format!("{} b={beta}", m.label()));
        }
    }
    let mut rows = Vec::new();
    for imbalance in ifs {
        let mut values = Vec::new();
        for m in methods {
            for beta in [0.6, 0.1] {
                let exp =
                    ExpConfig::new(DatasetPreset::Cifar10, imbalance, beta, cli.scale, cli.seed);
                values.push(mean(&run_cell(&exp, m, &cli)));
            }
        }
        console.info(format!("[table2] IF={imbalance} done"));
        rows.push((format!("IF={imbalance}"), values));
    }
    print_table(
        "Table 2 — CIFAR-10: FedAvg / FedGrab / FedWCM",
        &headers,
        &rows,
    );
    println!(
        "\nExpected shape (paper Table 2): FedGrab competitive at IF≥0.5,\n\
         collapsing at small IF (especially beta=0.1); FedWCM best overall."
    );
}
