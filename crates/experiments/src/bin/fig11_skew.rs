//! Figure 11: quantity-skew statistics of the FedGrab-style partition at
//! β = 0.1, IF = 0.1 — the paper reports ~10% of clients holding >50% of
//! samples and ~40% holding <10%.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::{parse_args, ExpConfig};
use fedwcm_stats::describe::gini;

fn main() {
    let cli = parse_args(std::env::args());
    let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.1, cli.scale, cli.seed);
    exp.fedgrab_partition = true;
    let task = exp.prepare();

    let mut sizes = task.partition.client_sizes();
    let total: usize = sizes.iter().sum();
    sizes.sort_unstable_by(|a, b| b.cmp(a));

    println!("# Fig.11: FedGrab-partition quantity skew (beta=0.1, IF=0.1)");
    println!("clients={} total-samples={total}", sizes.len());
    println!("\n## sorted client sizes (CSV: rank,samples,share)");
    for (rank, &s) in sizes.iter().enumerate() {
        println!("{rank},{s},{:.4}", s as f64 / total as f64);
    }

    // Cumulative concentration summaries.
    let top10 = sizes.len().div_ceil(10);
    let top10_share: usize = sizes[..top10].iter().sum();
    let small_clients = sizes
        .iter()
        .filter(|&&s| (s as f64) < 0.1 * total as f64 / sizes.len() as f64 * 10.0 / 4.0)
        .count();
    let gini_v = gini(&sizes.iter().map(|&s| s as f64).collect::<Vec<_>>());
    println!(
        "\n# top-10% clients hold {:.1}% of samples",
        100.0 * top10_share as f64 / total as f64
    );
    println!("# clients below 25% of the mean size: {small_clients}");
    println!("# quantity Gini = {gini_v:.3}");
}
