//! The claims ledger (`fedwcm_experiments::claims`): every row over
//! `--trials` paired seeds (2 to 30) from `--seed`, one line each.

use fedwcm_experiments::claims::LEDGER;
use fedwcm_experiments::{cli::usage, parse_args};

fn main() {
    let cli = parse_args(std::env::args());
    if !(2..=30).contains(&cli.trials) {
        usage("flclaims needs --trials N with 2 <= N <= 30");
    }
    println!(
        "# {:?} scale, seeds {} + 1000·t for t < {}\n",
        cli.scale, cli.seed, cli.trials
    );
    println!("| id | paper | stat | ε | mean A−B | 95 % CI | wins | sign p | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for claim in &LEDGER {
        println!("{}", claim.run(&cli).1);
        cli.progress(format!("[claims] {} done", claim.id));
    }
}
