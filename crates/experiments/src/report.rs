//! Table/series formatting and multi-trial aggregation.

use crate::cli::Cli;
use crate::methods::{build_method, Method};
use crate::setup::ExpConfig;
use fedwcm_fl::History;
use fedwcm_trace::{MetricValue, MetricsRegistry, MetricsSnapshot};
use std::sync::Arc;

/// Run one `(condition, method)` cell, averaging final accuracy over
/// `cli.trials` seeds (the paper reports 3-seed means).
pub fn run_cell(exp: &ExpConfig, method: Method, cli: &Cli) -> f64 {
    let mut acc = 0.0;
    for t in 0..cli.trials {
        let mut e = exp.clone();
        e.seed = exp.seed.wrapping_add(1000 * t as u64);
        let task = cli.prepare(&e);
        let history = cli
            .simulation(&task)
            .run(build_method(method, &task).as_mut());
        acc += history.final_accuracy(3);
    }
    acc / cli.trials as f64
}

/// Run one cell and return the full history of the **first** trial
/// (figures need the trajectory, not just the endpoint).
///
/// A metrics registry is attached so [`History::metrics`] carries the
/// run's counters/gauges/histograms (bytes up/down, update-norm
/// distribution, α trajectory, per-class accuracy); registries never
/// feed back into simulation state, so results are unchanged.
pub fn run_history(exp: &ExpConfig, method: Method, cli: &Cli) -> History {
    let task = cli.prepare(exp);
    let sim = cli
        .simulation(&task)
        .with_metrics(Arc::new(MetricsRegistry::new()));
    sim.run(build_method(method, &task).as_mut())
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

/// Markdown table of the per-phase timing histograms (`fl.phase.*` and
/// `fl.round_ticks`): observation count, mean/total ticks, and the
/// p50/p95/p99 bucket-interpolated percentile estimates.
/// Empty string when the snapshot holds no phase histograms (e.g. the
/// run had no tracer attached, so phase boundaries were never stamped).
pub fn phase_time_table(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        let is_phase = e.name.starts_with("fl.phase.") || e.name == "fl.round_ticks";
        if !is_phase {
            continue;
        }
        let MetricValue::Histogram(h) = &e.value else {
            continue;
        };
        if out.is_empty() {
            out.push_str(
                "| phase                  |      count |  mean ticks | total ticks \
                 |         p50 |         p95 |         p99 |\n",
            );
            out.push_str(
                "|------------------------|------------|-------------|-------------\
                 |-------------|-------------|-------------|\n",
            );
        }
        let (p50, p95, p99) = h.p50_p95_p99().unwrap_or((0.0, 0.0, 0.0));
        out.push_str(&format!(
            "| {:<22} | {:>10} | {:>11.1} | {:>11.0} | {:>11.1} | {:>11.1} | {:>11.1} |\n",
            e.name,
            h.total,
            h.mean().unwrap_or(0.0),
            h.sum,
            p50,
            p95,
            p99,
        ));
    }
    out
}

/// One line per metric in the snapshot: counters and gauges with their
/// value, histograms with count/mean. Empty string for an empty
/// snapshot, so binaries can print it unconditionally.
pub fn metrics_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        match &e.value {
            MetricValue::Counter(v) => out.push_str(&format!("{} = {v}\n", e.name)),
            MetricValue::Gauge(v) => out.push_str(&format!("{} = {v:.6}\n", e.name)),
            MetricValue::Histogram(h) => out.push_str(&format!(
                "{}: n={} mean={:.3} nan_rejected={}\n",
                e.name,
                h.total,
                h.mean().unwrap_or(0.0),
                h.nan_rejected
            )),
        }
    }
    out
}

/// Print the metrics carried by a history (summary plus phase table)
/// under a `## metrics` heading; prints nothing when the history has no
/// metrics, so every binary can call this unconditionally.
pub fn print_metrics(history: &History) {
    if history.metrics.is_empty() {
        return;
    }
    println!("\n## metrics: {}\n", history.name);
    let phases = phase_time_table(&history.metrics);
    if !phases.is_empty() {
        print!("{phases}");
        println!();
    }
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
        let acc = run_cell(&exp, Method::FedAvg, &cli);
        assert!((0.0..=1.0).contains(&acc));
        assert!(acc > 0.2, "smoke FedAvg acc {acc}");
    }

    #[test]
    fn run_history_has_records() {
        let exp = ExpConfig::new(DatasetPreset::FashionMnist, 1.0, 0.6, Scale::Smoke, 6);
        let cli = Cli {
            scale: Scale::Smoke,
            ..Cli::default()
        };
        let h = run_history(&exp, Method::FedCm, &cli);
        assert_eq!(h.records.len(), exp.rounds);
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
    fn phase_table_renders_phase_histograms_only() {
        let reg = MetricsRegistry::new();
        reg.counter_add(Name::FL_BYTES_UP, 3);
        reg.observe(Name::FL_PHASE_AGGREGATE, &[10.0, 100.0], 5.0);
        reg.observe(Name::FL_PHASE_AGGREGATE, &[10.0, 100.0], 7.0);
        reg.gauge_set(Name::FL_ACC_TAIL, 0.5);
        let snap = reg.snapshot();
        let table = phase_time_table(&snap);
        assert!(table.contains("fl.phase.aggregate"), "{table}");
        assert!(!table.contains("fl.acc.tail"), "{table}");
        assert!(!table.contains("fl.bytes.up"), "{table}");
        // count 2, mean 6.0, total 12
        assert!(table.contains("| fl.phase.aggregate"), "{table}");
        assert!(table.contains("6.0"), "{table}");
        // Percentile columns are rendered from the bucket estimator.
        assert!(table.contains("p50"), "{table}");
        assert!(table.contains("p99"), "{table}");
        // Both observations sit in the (0,10] bucket → p50 target rank
        // 1 of 2 interpolates to 5.0.
        assert!(table.contains("5.0"), "{table}");
    }

    #[test]
    fn phase_table_empty_without_phase_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter_add(Name::FL_BYTES_UP, 1);
        assert!(phase_time_table(&reg.snapshot()).is_empty());
        assert!(phase_time_table(&MetricsSnapshot::default()).is_empty());
    }

    #[test]
    fn metrics_summary_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter_add(Name::FL_BYTES_UP, 4);
        reg.gauge_set(Name::FL_ACC_TAIL, 0.25);
        reg.observe(Name::FL_ROUND_TICKS, &[1.0], 0.5);
        let s = metrics_summary(&reg.snapshot());
        assert!(s.contains("fl.bytes.up = 4"), "{s}");
        assert!(s.contains("fl.acc.tail = 0.250000"), "{s}");
        assert!(s.contains("fl.round_ticks: n=1 mean=0.500"), "{s}");
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
