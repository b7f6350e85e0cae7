//! Appendix-C companion: put the HE exchange in context of per-round
//! model traffic ("negligible compared to model transmission overhead").
//!
//! Prints per-round up/down volumes for each model preset at the paper's
//! configuration, next to the one-off HE distribution exchange.

use fedwcm_data::synth::DatasetPreset;
use fedwcm_experiments::{parse_args, ExpConfig};
use fedwcm_fl::comms::{communication_report, model_bytes};
use fedwcm_he::rlwe::RlweParams;

fn main() {
    let cli = parse_args(std::env::args());
    let he_bytes = RlweParams::default_params().ciphertext_bytes();
    println!("# Appendix C — HE exchange vs model traffic");
    println!(
        "\n| {:<16} | {:>10} | {:>14} | {:>14} | {:>12} |",
        "preset", "params", "round up (MB)", "round down (MB)", "HE share (%)"
    );
    for preset in DatasetPreset::all() {
        let exp = ExpConfig::new(preset, 0.1, 0.1, cli.scale, cli.seed);
        let task = exp.prepare();
        let params = (task.factory)().param_len();
        let report = communication_report(&task.exp.fl, params, true);
        let he_total = he_bytes * task.exp.fl.clients;
        let share = 100.0 * he_total as f64
            / (report.up_bytes_per_round + report.down_bytes_per_round) as f64;
        println!(
            "| {:<16} | {:>10} | {:>14.3} | {:>14.3} | {:>12.2} |",
            preset.spec().name,
            params,
            report.up_bytes_per_round as f64 / 1e6,
            report.down_bytes_per_round as f64 / 1e6,
            share,
        );
    }
    println!(
        "\n# one ciphertext: {he_bytes} B, sent once; ResNet-18's model: ~{} MB a round",
        model_bytes(11_000_000) / 1_000_000,
    );
}
