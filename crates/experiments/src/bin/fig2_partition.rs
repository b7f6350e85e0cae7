//! Figure 2: client data partition on CIFAR-10 — the FedGrab-style
//! quantity-skewed partition vs the paper's equal-quantity partition,
//! both at β = 0.1, IF = 0.1. Prints the client × class count matrices
//! (the heatmap data) plus skew summaries.

use fedwcm_data::partition::Partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::{parse_args, ExpConfig};
use fedwcm_stats::describe::gini;

fn print_matrix(name: &str, partition: &Partition, train: &fedwcm_data::Dataset) {
    println!("\n## {name} (rows = clients, cols = classes)\n");
    let m = partition.counts_matrix(train);
    print!("{:>8}", "client");
    for c in 0..train.classes() {
        print!("{c:>6}");
    }
    println!("{:>8}", "total");
    for (k, row) in m.iter().enumerate() {
        print!("{k:>8}");
        for &n in row {
            print!("{n:>6}");
        }
        println!("{:>8}", row.iter().sum::<usize>());
    }
    let sizes: Vec<f64> = partition.client_sizes().iter().map(|&s| s as f64).collect();
    println!("\nquantity Gini = {:.3}", gini(&sizes));
}

fn main() {
    let cli = parse_args(std::env::args());
    let mut exp = ExpConfig::new(DatasetPreset::Cifar10, 0.1, 0.1, cli.scale, cli.seed);
    exp.fl.clients = exp.fl.clients.min(20); // heatmap stays readable

    let equal = exp.prepare();
    print_matrix(
        "Paper partition (equal quantity, Dir(0.1) class skew)",
        &equal.partition,
        &equal.train,
    );

    let mut skewed_exp = exp.clone();
    skewed_exp.fedgrab_partition = true;
    let skewed = skewed_exp.prepare();
    print_matrix(
        "FedGrab partition (per-class Dir(0.1) split)",
        &skewed.partition,
        &skewed.train,
    );
}
