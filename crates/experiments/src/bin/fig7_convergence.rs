//! Figure 7: test-accuracy-vs-round curves for all Table-1 methods plus
//! FedWCM at β = 0.6, IF = 0.1 (the headline convergence plot).

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_series, run_history};
use fedwcm_experiments::{parse_args, ExpConfig, Method};

/// The convergence target, as a share of the best method's best accuracy.
const TARGET_SHARE: f64 = 0.85;

fn main() {
    let cli = parse_args(std::env::args());
    let console = cli.console();
    let exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.6, cli.scale, cli.seed);
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
    let mut histories = Vec::new();
    for m in methods {
        histories.push(run_history(&exp, m, &cli));
        console.info(format!("[fig7] {} done", m.label()));
    }
    print_series("Fig.7 accuracy curves (beta=0.6, IF=0.1)", &histories);
    println!(
        "\n# rounds to reach {:.0}% of best-method accuracy:",
        TARGET_SHARE * 100.0
    );
    let target = histories
        .iter()
        .map(|h| h.best_accuracy())
        .fold(0.0f64, f64::max)
        * TARGET_SHARE;
    for h in &histories {
        match h.rounds_to_reach(target) {
            Some(r) => println!("{}: round {r}", h.name),
            None => println!("{}: never reached {target:.3}", h.name),
        }
    }
}
