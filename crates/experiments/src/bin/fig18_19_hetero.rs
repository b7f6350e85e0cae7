//! Figures 18/19 (Appendix D): ten heterogeneous-FL methods on CIFAR-10
//! at β = 0.1 with a **balanced** global distribution (IF = 1) — FedCM's
//! home turf. Fig. 18 reports training behaviour (we print the train-loss
//! series), Fig. 19 test accuracy.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_series, run_history};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

fn main() {
    let cli = parse_args(std::env::args());
    let exp = ExpConfig::new(DatasetPreset::Cifar10, 1.0, 0.1, cli.scale, cli.seed);
    let mut histories = Vec::new();
    for m in Method::hetero_panel() {
        histories.push(run_history(&exp, m, &cli));
        cli.progress(format!("[fig18-19] {} done", m.label()));
    }

    // Fig. 18: training loss per round.
    println!(
        "\n## Fig.18 train loss (CSV: round,{})",
        histories
            .iter()
            .map(|h| h.name.clone())
            .collect::<Vec<_>>()
            .join(",")
    );
    let rounds = histories[0].records.len();
    for r in 0..rounds {
        print!("{r}");
        for h in &histories {
            match h.records[r].train_loss {
                Some(loss) => print!(",{loss:.4}"),
                None => print!(",-"),
            }
        }
        println!();
    }

    // Fig. 19: test accuracy.
    print_series("Fig.19 test accuracy (beta=0.1, IF=1)", &histories);
    println!("\n# final accuracies:");
    let mut finals: Vec<(String, f64)> = histories
        .iter()
        .map(|h| (h.name.clone(), h.final_accuracy(3)))
        .collect();
    finals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, acc) in &finals {
        println!("{name}: {acc:.4}");
    }
}
