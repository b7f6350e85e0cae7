//! Figures 4 and 17 (its Appendix-B twin, whose five IFs are the last
//! five here): FedCM's average neuron concentration and test accuracy
//! across six imbalance factors, and the rounds where concentration
//! spikes — the minority-collapse signature: spikes in concentration
//! synchronised with accuracy crashes as IF shrinks.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::analysis::spikes::{detect_spikes, spike_rate};
use fedwcm_experiments::collapse::{print_trace_csv, run_with_concentration};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let ifs = [1.0, 0.5, 0.1, 0.06, 0.04, 0.01];
    println!("# Fig.4: FedCM neuron concentration + accuracy across IF settings (beta=0.1)");
    for imbalance in ifs {
        let exp = ExpConfig::new(DatasetPreset::Cifar10, imbalance, 0.1, cli.scale, cli.seed);
        let trace = run_with_concentration(&exp, Method::FedCm, &cli, 1);
        print_trace_csv(
            &format!("FedCM mean concentration, IF={imbalance}"),
            &["mean_concentration".into()],
            &trace
                .mean_concentration
                .iter()
                .map(|&(r, c)| (r, vec![c]))
                .collect::<Vec<_>>(),
        );
        let acc_rows: Vec<(usize, Vec<f64>)> = trace
            .history
            .accuracy_series()
            .into_iter()
            .map(|(r, a)| (r, vec![a]))
            .collect();
        print_trace_csv(
            &format!("FedCM test accuracy, IF={imbalance}"),
            &["accuracy".into()],
            &acc_rows,
        );
        let conc: Vec<f64> = trace.mean_concentration.iter().map(|&(_, c)| c).collect();
        println!(
            "# summary IF={imbalance}: final-acc={:.4} concentration-spike-rate={:.3}",
            trace.history.final_accuracy(3),
            spike_rate(&conc, 2.0, 0.02),
        );
        let spikes = detect_spikes(&conc, 2.0, 0.02);
        println!("# IF={imbalance}: concentration spikes at rounds {spikes:?}");
    }
}
