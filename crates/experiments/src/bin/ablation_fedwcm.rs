//! FedWCM component ablations (DESIGN.md §4): switch off each adaptive
//! mechanism in turn and measure the damage at β = 0.6, IF ∈ {0.1, 0.05}.
//!
//! Variants: full FedWCM; fixed α = 0.1 (no Eq. 5); uniform aggregation
//! (no Eq. 4); fixed temperature; literal |·| scores (Eq. 3 as printed).

use fedwcm_core::{FedWcm, FedWcmOptions};
use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_table, run_seeds};
use fedwcm_experiments::{parse_args, ExpConfig};
use fedwcm_stats::describe::mean;

fn variants() -> Vec<(&'static str, FedWcmOptions)> {
    vec![
        ("FedWCM (full)", FedWcmOptions::default()),
        (
            "fixed alpha=0.1",
            FedWcmOptions {
                adaptive_alpha: false,
                ..FedWcmOptions::default()
            },
        ),
        (
            "uniform weights",
            FedWcmOptions {
                weighted_aggregation: false,
                ..FedWcmOptions::default()
            },
        ),
        (
            "fixed temperature",
            FedWcmOptions {
                adaptive_temperature: false,
                ..FedWcmOptions::default()
            },
        ),
        (
            "literal |.| scores",
            FedWcmOptions {
                literal_scores: true,
                ..FedWcmOptions::default()
            },
        ),
    ]
}

fn main() {
    let cli = parse_args(std::env::args());
    let console = cli.console();
    let ifs = [0.1, 0.05];
    let headers: Vec<String> = ifs.iter().map(|v| format!("IF={v}")).collect();
    let mut rows = Vec::new();
    for (label, options) in variants() {
        let values: Vec<f64> = ifs
            .iter()
            .map(|&imbalance| {
                let exp =
                    ExpConfig::new(DatasetPreset::Cifar10, imbalance, 0.6, cli.scale, cli.seed);
                mean(&run_seeds(&exp, &cli, |_| {
                    Box::new(FedWcm::with_options(options.clone()))
                }))
            })
            .collect();
        console.info(format!("[ablation] {label} done"));
        rows.push((label.to_string(), values));
    }
    print_table("FedWCM ablations (beta=0.6)", &headers, &rows);
    println!(
        "\nReading: each disabled mechanism should cost accuracy at small\n\
         IF; the literal-score variant tests the Eq. 3 interpretation\n\
         documented in fedwcm-core::score."
    );
}
