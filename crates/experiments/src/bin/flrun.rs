//! General-purpose runner: any method × dataset × (IF, β) combination
//! from the command line.
//!
//! ```sh
//! cargo run --release -p fedwcm-experiments --bin flrun -- \
//!     --method fedwcm --if 0.1 --beta 0.6 --dataset cifar-10 --rounds 100
//! ```

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::report::{print_metrics, run_history};
use fedwcm_experiments::{Cli, ExpConfig, Method, Scale};

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

fn parse_preset(name: &str) -> Option<DatasetPreset> {
    DatasetPreset::all()
        .into_iter()
        .find(|p| p.spec().name.contains(&name.to_ascii_lowercase()))
}

fn main() {
    // Extract flrun-specific flags, pass the rest to the shared parser.
    let mut method = Method::FedWcm;
    let mut preset = DatasetPreset::Cifar10;
    let mut imbalance = 0.1f64;
    let mut beta = 0.1f64;
    let mut fedgrab_part = false;
    let mut passthrough = vec!["flrun".to_string()];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--method" => {
                let v = args.next().expect("--method needs a name");
                method = parse_method(&v).unwrap_or_else(|| {
                    eprintln!("unknown method {v}");
                    std::process::exit(2);
                });
            }
            "--if" => {
                imbalance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--if needs a number in (0,1]");
            }
            "--beta" => {
                beta = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--beta needs a positive number");
            }
            "--dataset" => {
                let v = args.next().expect("--dataset needs a name");
                preset = parse_preset(&v).unwrap_or_else(|| {
                    eprintln!("unknown dataset {v} (presets: fashion-mnist, svhn, cifar-10, cifar-100, imagenet-lite)");
                    std::process::exit(2);
                });
            }
            "--fedgrab-partition" => fedgrab_part = true,
            other => passthrough.push(other.to_string()),
        }
    }
    let cli: Cli = fedwcm_experiments::parse_args(passthrough);

    let mut exp = ExpConfig::new(preset, imbalance, beta, cli.scale, cli.seed);
    exp.fedgrab_partition = fedgrab_part;
    if cli.scale == Scale::Quick && cli.rounds.is_none() {
        // flrun default: a medium budget.
        exp.rounds = 100;
    }
    println!(
        "# {} on {} — IF={imbalance}, beta={beta}, {} clients, {} rounds, cadence={}",
        method.label(),
        preset.spec().name,
        exp.clients,
        cli.rounds.unwrap_or(exp.rounds),
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
