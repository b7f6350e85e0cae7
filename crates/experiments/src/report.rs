//! Table/series formatting and multi-trial aggregation.

use crate::cli::Cli;
use crate::methods::{build_method, Method};
use crate::setup::{ExpConfig, PreparedTask};
use fedwcm_fl::{FederatedAlgorithm, History};
use fedwcm_trace::{MetricValue, MetricsRegistry, MetricsSnapshot};
use std::sync::Arc;

/// Final accuracy of one `(condition, method)` cell at each of
/// `cli.trials` seeds, `exp.fl.seed + 1000·t` (the paper reports the mean of
/// three; `fedwcm_stats::describe::mean` takes it).
pub fn run_cell(exp: &ExpConfig, method: Method, cli: &Cli) -> Vec<f64> {
    run_seeds(exp, cli, |task| build_method(method, task))
        .iter()
        .map(|h| h.final_accuracy(3))
        .collect()
}

/// The history of each of [`run_cell`]'s seeds for whatever algorithm
/// `build` makes of that seed's task.
///
/// A metrics registry is attached so [`History::metrics`] carries the
/// run's counters and gauges (bytes up/down, received uploads, tail and
/// per-class accuracy); no tracer is, so no phase timer fills. Registries
/// never feed back into simulation state, so results are unchanged.
pub fn run_seeds(
    exp: &ExpConfig,
    cli: &Cli,
    build: impl Fn(&PreparedTask) -> Box<dyn FederatedAlgorithm>,
) -> Vec<History> {
    (0..cli.trials)
        .map(|t| {
            let mut e = exp.clone();
            e.fl.seed = exp.fl.seed.wrapping_add(1000 * t as u64);
            let task = cli.prepare(&e);
            let sim = cli
                .simulation(&task)
                .with_metrics(Arc::new(MetricsRegistry::new()));
            sim.run(build(&task).as_mut())
        })
        .collect()
}

/// Run one cell and return the full history of the **first** trial
/// (figures need the trajectory, not just the endpoint).
pub fn run_history(exp: &ExpConfig, method: Method, cli: &Cli) -> History {
    let mut first = cli.clone();
    first.trials = 1;
    run_seeds(exp, &first, |task| build_method(method, task)).remove(0)
}

/// Print a markdown-style table: one row per label, one column per
/// header, 4-decimal accuracies (the paper's format).
pub fn print_table(title: &str, headers: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n## {title}\n");
    print!("| {:<22} |", "");
    for h in headers {
        print!(" {h:>10} |");
    }
    println!();
    print!("|{}|", "-".repeat(24));
    for _ in headers {
        print!("{}|", "-".repeat(12));
    }
    println!();
    for (label, values) in rows {
        print!("| {label:<22} |");
        for v in values {
            print!(" {v:>10.4} |");
        }
        println!();
    }
}

/// Print an accuracy-vs-round series as CSV (round, then one column per
/// method) — the figure data.
pub fn print_series(title: &str, histories: &[History]) {
    println!("\n## {title} (CSV: round,{})", join_names(histories));
    print!("{}", format_series(histories));
}

/// CSV body for [`print_series`]: one row per round in the **union** of
/// evaluated rounds across all histories, aligned by round number.
///
/// Histories may evaluate at different cadences (or miss boundaries when
/// a run is cut short); a method without a measurement at some round gets
/// an empty cell rather than silently shifting its column.
pub fn format_series(histories: &[History]) -> String {
    let mut rounds: Vec<usize> = histories
        .iter()
        .flat_map(|h| h.accuracy_series().into_iter().map(|(r, _)| r))
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    let series: Vec<Vec<(usize, f64)>> = histories.iter().map(|h| h.accuracy_series()).collect();

    let mut out = String::new();
    for &r in &rounds {
        out.push_str(&r.to_string());
        for s in &series {
            match s.iter().find(|&&(round, _)| round == r) {
                Some(&(_, acc)) => out.push_str(&format!(",{acc:.4}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

fn join_names(histories: &[History]) -> String {
    histories
        .iter()
        .map(|h| h.name.clone())
        .collect::<Vec<_>>()
        .join(",")
}

/// One line per metric in the snapshot: counters and gauges with their
/// value, timers with count/mean. Empty string for an empty
/// snapshot, so binaries can print it unconditionally.
pub fn metrics_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        match &e.value {
            MetricValue::Counter(v) => out.push_str(&format!("{} = {v}\n", e.name)),
            MetricValue::Gauge(v) => out.push_str(&format!("{} = {v:.6}\n", e.name)),
            MetricValue::Histogram(h) => out.push_str(&format!(
                "{}: n={} mean={:.3}\n",
                e.name,
                h.total,
                h.mean().unwrap_or(0.0)
            )),
        }
    }
    out
}

/// Print the metrics carried by a history under a `## metrics`
/// heading; prints nothing when the history has no metrics, so every
/// binary can call this unconditionally.
pub fn print_metrics(history: &History) {
    if history.metrics.is_empty() {
        return;
    }
    println!("\n## metrics: {}\n", history.name);
    print!("{}", metrics_summary(&history.metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Scale;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_trace::{names, Name};

    #[test]
    fn run_cell_smoke() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 5);
        let cli = Cli {
            scale: Scale::Smoke,
            ..Cli::default()
        };
        let accs = run_cell(&exp, Method::FedAvg, &cli);
        assert_eq!(accs.len(), 1);
        assert!(accs[0] > 0.2 && accs[0] <= 1.0, "smoke FedAvg acc {accs:?}");
    }

    /// Seed 0 of a cell is the run `run_history` makes, bit for bit, and
    /// seed `t` is the same cell at `exp.fl.seed + 1000·t`.
    #[test]
    fn run_cell_seeds_are_run_history_runs() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 8);
        let cli = Cli {
            scale: Scale::Smoke,
            rounds: Some(3),
            trials: 2,
            ..Cli::default()
        };
        let accs = run_cell(&exp, Method::FedWcm, &cli);
        let mut second = exp.clone();
        second.fl.seed = 1008;
        let want = [&exp, &second].map(|e| run_history(e, Method::FedWcm, &cli).final_accuracy(3));
        assert_eq!(accs.len(), 2);
        for (got, want) in accs.iter().zip(want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn run_history_has_records() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 6);
        let cli = Cli {
            scale: Scale::Smoke,
            ..Cli::default()
        };
        let h = run_history(&exp, Method::FedCm, &cli);
        assert_eq!(h.records.len(), exp.fl.rounds);
        assert!(!h.accuracy_series().is_empty());
    }

    #[test]
    fn format_series_aligns_by_round_number() {
        use fedwcm_fl::RoundRecord;
        let rec = |round: usize, acc: Option<f64>| RoundRecord {
            round,
            train_loss: None,
            update_norm: 0.0,
            test_acc: acc,
            alpha: None,
            aggregations: 0,
            dropped_updates: 0,
            faults: fedwcm_fl::RoundFaults::default(),
            net: fedwcm_fl::NetCounters::default(),
        };
        // Two methods evaluated at *different* rounds: pairing by index
        // would misattribute h2's round-2 accuracy to round 1.
        let mut h1 = History::new("a");
        h1.records = vec![rec(1, Some(0.1)), rec(3, Some(0.3)), rec(5, Some(0.5))];
        let mut h2 = History::new("b");
        h2.records = vec![rec(2, Some(0.2)), rec(3, Some(0.35)), rec(5, Some(0.55))];
        let csv = format_series(&[h1, h2]);
        let expected = "1,0.1000,\n2,,0.2000\n3,0.3000,0.3500\n5,0.5000,0.5500\n";
        assert_eq!(csv, expected);
    }

    #[test]
    fn format_series_empty_histories() {
        assert_eq!(format_series(&[]), "");
        assert_eq!(format_series(&[History::new("a")]), "");
    }

    #[test]
    fn run_history_carries_metrics() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 4);
        let cli = Cli {
            scale: Scale::Smoke,
            ..Cli::default()
        };
        let h = run_history(&exp, Method::FedAvg, &cli);
        assert!(
            !h.metrics.is_empty(),
            "registry snapshot should land in History"
        );
        assert!(h.metrics.get(names::FL_UPDATES_RECEIVED).is_some());
        let summary = metrics_summary(&h.metrics);
        assert!(summary.contains("fl.bytes.up"), "{summary}");
        assert!(summary.contains("fl.acc.tail"), "{summary}");
    }

    #[test]
    fn metrics_summary_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter_add(Name::FL_BYTES_UP, 4);
        reg.gauge_set(Name::FL_ACC_TAIL, 0.25);
        reg.observe(Name::FL_ROUND_TICKS, 3);
        let s = metrics_summary(&reg.snapshot());
        assert!(s.contains("fl.bytes.up = 4"), "{s}");
        assert!(s.contains("fl.acc.tail = 0.250000"), "{s}");
        assert!(s.contains("fl.round_ticks: n=1 mean=3.000\n"), "{s}");
        assert!(metrics_summary(&MetricsSnapshot::default()).is_empty());
    }

    #[test]
    fn rounds_override_applies() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 7);
        let cli = Cli {
            rounds: Some(3),
            ..Cli::default()
        };
        let h = run_history(&exp, Method::FedAvg, &cli);
        assert_eq!(h.records.len(), 3);
    }
}
