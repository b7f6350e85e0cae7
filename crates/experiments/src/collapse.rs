//! Shared machinery for the neuron-concentration figures (4, 13–17):
//! run a method while recording per-round mean and per-layer
//! concentrations of the global model.

use crate::analysis::concentration::layer_concentrations;
use crate::cli::Cli;
use crate::methods::{build_method, Method};
use crate::setup::ExpConfig;
use fedwcm_fl::History;

/// Samples used for each concentration evaluation.
const CONC_SAMPLES: usize = 300;

/// A trajectory with concentration tracking.
pub struct CollapseTrace {
    /// Method label.
    pub name: String,
    /// The training history (accuracy series etc.).
    pub history: History,
    /// `(round, mean concentration)` per round.
    pub mean_concentration: Vec<(usize, f64)>,
    /// `(round, per-layer concentrations)`; layer names in `layer_names`.
    pub per_layer: Vec<(usize, Vec<f64>)>,
    /// Layer names for `per_layer` columns.
    pub layer_names: Vec<String>,
}

/// Run `method` on `exp`, recording concentration every `every` rounds.
pub fn run_with_concentration(
    exp: &ExpConfig,
    method: Method,
    cli: &Cli,
    every: usize,
) -> CollapseTrace {
    let task = cli.prepare(exp);
    let sim = cli.simulation(&task);
    let mut algo = build_method(method, &task);

    let mut probe = (task.factory)();
    let mut mean_concentration = Vec::new();
    let mut per_layer: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut layer_names: Vec<String> = Vec::new();
    let test = &task.test;
    let history = sim.run_with_observer(algo.as_mut(), |round, global| {
        if round % every.max(1) != 0 {
            return;
        }
        probe.set_params(global);
        let report = layer_concentrations(&mut probe, test, CONC_SAMPLES);
        if layer_names.is_empty() {
            layer_names = report.per_layer.iter().map(|(n, _)| n.clone()).collect();
        }
        mean_concentration.push((round, report.mean));
        per_layer.push((round, report.per_layer.iter().map(|(_, c)| *c).collect()));
    });

    CollapseTrace {
        name: method.label().to_string(),
        history,
        mean_concentration,
        per_layer,
        layer_names,
    }
}

/// Print a `(round, value…)` CSV block with a title.
pub fn print_trace_csv(title: &str, columns: &[String], rows: &[(usize, Vec<f64>)]) {
    println!("\n## {title} (CSV: round,{})", columns.join(","));
    for (round, values) in rows {
        print!("{round}");
        for v in values {
            print!(",{v:.4}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Scale;
    use fedwcm_data::synth::DatasetPreset;

    #[test]
    fn concentration_trace_records_every_round() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 71);
        let cli = Cli {
            scale: Scale::Smoke,
            rounds: Some(4),
            ..Cli::default()
        };
        let trace = run_with_concentration(&exp, Method::FedCm, &cli, 1);
        assert_eq!(trace.mean_concentration.len(), 4);
        assert_eq!(trace.per_layer.len(), 4);
        assert!(!trace.layer_names.is_empty());
        for &(_, c) in &trace.mean_concentration {
            assert!((0.0..=1.0).contains(&c));
        }
        for (_, layers) in &trace.per_layer {
            assert_eq!(layers.len(), trace.layer_names.len());
        }
    }

    #[test]
    fn sampling_interval_respected() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.5, 0.3, Scale::Smoke, 72);
        let cli = Cli {
            scale: Scale::Smoke,
            rounds: Some(6),
            ..Cli::default()
        };
        let trace = run_with_concentration(&exp, Method::FedAvg, &cli, 3);
        let rounds: Vec<usize> = trace.mean_concentration.iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![0, 3]);
    }

    /// A concentration figure runs the cell `run_history` runs, CLI
    /// overrides included (records compare by their codec bytes).
    #[test]
    fn concentration_runs_take_the_cli_cadence() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 73);
        let cli = Cli {
            scale: Scale::Smoke,
            rounds: Some(4),
            cadence: fedwcm_fl::Cadence::BufferedK { k: 2 },
            ..Cli::default()
        };
        let traced = run_with_concentration(&exp, Method::FedCm, &cli, 2).history;
        let plain = crate::report::run_history(&exp, Method::FedCm, &cli);
        assert_eq!(traced.records, plain.records);
    }
}
