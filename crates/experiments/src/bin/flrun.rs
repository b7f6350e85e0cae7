//! General-purpose runner: any method × dataset × (IF, β) combination
//! from the command line.
//!
//! ```sh
//! cargo run --release -p fedwcm-experiments --bin flrun -- \
//!     --method fedwcm --if 0.1 --beta 0.6 --dataset cifar-10 --rounds 100
//! ```

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::cli::{parse_args_with_dataset, usage_with};
use fedwcm_experiments::report::{print_metrics, run_history};
use fedwcm_experiments::{ExpConfig, Method, Scale};

/// The flags `flrun` takes besides the shared ones.
const OWN_FLAGS: &str =
    "[--method NAME] [--if F] [--beta F] [--fedgrab-partition] [--dataset NAME]";

/// The usage path with `flrun`'s own flags in the usage line.
fn usage(msg: &str) -> ! {
    usage_with(msg, OWN_FLAGS)
}

fn parse_method(name: &str) -> Option<Method> {
    Some(match name.to_ascii_lowercase().as_str() {
        "fedavg" => Method::FedAvg,
        "balancefl" => Method::BalanceFl,
        "fedgrab" => Method::FedGrab,
        "fedcm" => Method::FedCm,
        "fedcm+focal" | "fedcm-focal" => Method::FedCmFocal,
        "fedcm+balanceloss" | "fedcm-balanceloss" => Method::FedCmBalanceLoss,
        "fedcm+balancesampler" | "fedcm-balancesampler" => Method::FedCmBalanceSampler,
        "fedwcm" => Method::FedWcm,
        "fedwcm-x" | "fedwcmx" => Method::FedWcmX,
        "fedprox" => Method::FedProx,
        "scaffold" => Method::Scaffold,
        "feddyn" => Method::FedDyn,
        "fedavgm" => Method::FedAvgM,
        "fedsam" => Method::FedSam,
        "mofedsam" => Method::MoFedSam,
        "fedspeed" => Method::FedSpeed,
        "fedsmoo" => Method::FedSmoo,
        "fedlesam" => Method::FedLesam,
        "mime" | "mime-lite" => Method::MimeLite,
        _ => return None,
    })
}

/// The number after a flag, if it parses and `ok` holds for it; else the
/// usage path, as for every shared flag.
fn number(v: Option<String>, ok: fn(f64) -> bool, msg: &str) -> f64 {
    v.and_then(|v| v.parse().ok())
        .filter(|&x| ok(x))
        .unwrap_or_else(|| usage(msg))
}

fn main() {
    // Extract flrun-specific flags, pass the rest to the shared parser.
    let mut method = Method::FedWcm;
    let mut imbalance = 0.1f64;
    let mut beta = 0.1f64;
    let mut fedgrab_part = false;
    let mut passthrough = vec!["flrun".to_string()];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--method" => {
                let v = args.next().unwrap_or_default();
                method =
                    parse_method(&v).unwrap_or_else(|| usage(&format!("unknown method {v:?}")));
            }
            "--if" => {
                imbalance = number(
                    args.next(),
                    |x| x > 0.0 && x <= 1.0,
                    "--if needs a number in (0,1]",
                );
            }
            "--beta" => {
                beta = number(
                    args.next(),
                    |x| x > 0.0 && x.is_finite(),
                    "--beta needs a positive number",
                );
            }
            "--fedgrab-partition" => fedgrab_part = true,
            other => passthrough.push(other.to_string()),
        }
    }
    let (dataset, cli) = parse_args_with_dataset(passthrough, OWN_FLAGS);
    let preset = dataset.unwrap_or(DatasetPreset::Cifar10);

    let mut exp = ExpConfig::new(preset, imbalance, beta, cli.scale, cli.seed);
    exp.fedgrab_partition = fedgrab_part;
    if cli.scale == Scale::Quick && cli.rounds.is_none() {
        // flrun default: a medium budget.
        exp.fl.rounds = 100;
    }
    println!(
        "# {} on {} — IF={imbalance}, beta={beta}, {} clients, {} rounds, cadence={}",
        method.label(),
        preset.spec().name,
        exp.fl.clients,
        cli.rounds.unwrap_or(exp.fl.rounds),
        cli.cadence.label(),
    );
    let h = run_history(&exp, method, &cli);
    let aggregations: u32 = h.records.iter().map(|r| r.aggregations).sum();
    println!(
        "aggregation events: {aggregations} over {} rounds",
        h.records.len()
    );
    println!("\nround,accuracy");
    for (r, a) in h.accuracy_series() {
        println!("{r},{a:.4}");
    }
    println!("\nfinal accuracy (3-eval mean): {:.4}", h.final_accuracy(3));
    println!("best accuracy:               {:.4}", h.best_accuracy());
    if let Some(r) = h.rounds_to_reach(h.best_accuracy() * 0.9) {
        println!("rounds to 90% of best:       {r}");
    }
    println!("\n{}", h.resilience_report(None));
    print_metrics(&h);
}
