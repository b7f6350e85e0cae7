//! Trace profiler: analyze, flame, diff, and budget-gate FedWCM JSONL
//! traces.
//!
//! ```sh
//! cargo run --release -p fedwcm-experiments --bin flprof -- analyze trace.jsonl
//! cargo run --release -p fedwcm-experiments --bin flprof -- analyze trace.jsonl --format json
//! cargo run --release -p fedwcm-experiments --bin flprof -- flame trace.jsonl > folded.txt
//! cargo run --release -p fedwcm-experiments --bin flprof -- budget trace.jsonl --budget PROF_BUDGET.json
//! cargo run --release -p fedwcm-experiments --bin flprof -- diff base.json cur.json --budget PROF_BUDGET.json
//! ```
//!
//! Artifacts (profile JSON, flame stacks, diff reports) go to stdout
//! and are byte-stable; progress goes to stderr through the shared
//! experiment console (`--quiet` silences it). Exit codes: 0 on
//! success, 1 when a budget or diff gate fails, 2 on usage or input
//! errors.

use fedwcm_experiments::Cli;
use fedwcm_obs::{analyze_text, folded_stacks, run_budget, run_diff};

enum Format {
    Table,
    Json,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: flprof <command> [args] [--quiet|-q] [--verbose|-v]\n\
         \n\
         commands:\n\
         \x20 analyze TRACE [--format table|json]   profile a JSONL trace\n\
         \x20 flame TRACE                           folded flame stacks\n\
         \x20 budget TRACE --budget FILE            gate a trace against a budget\n\
         \x20 diff BASE CUR [--budget FILE]         compare two profile documents"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut command = None;
    let mut positional = Vec::new();
    let mut format = Format::Table;
    let mut budget_path = None;
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                format = match args.next().as_deref() {
                    Some("table") => Format::Table,
                    Some("json") => Format::Json,
                    _ => usage("--format needs table or json"),
                };
            }
            "--budget" => {
                budget_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--budget needs a file")),
                );
            }
            "--quiet" | "-q" => cli.verbosity = 0,
            "--verbose" | "-v" => cli.verbosity = 2,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other if command.is_none() => command = Some(other.to_string()),
            other => positional.push(other.to_string()),
        }
    }
    let console = cli.console();
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };

    match command.as_deref() {
        Some("analyze") | Some("flame") | Some("budget") => {
            let [trace_path] = positional.as_slice() else {
                usage("expected exactly one TRACE argument");
            };
            let text = read(trace_path);
            let (profile, forest) = match analyze_text(&text) {
                Ok(r) => r,
                Err(e) => fail(&e),
            };
            console.info(format!(
                "parsed {} records -> {} spans, {} rounds, {} total ticks",
                profile.records,
                profile.spans,
                profile.rounds.len(),
                profile.total_ticks
            ));
            match command.as_deref() {
                Some("analyze") => match format {
                    Format::Table => print!("{}", profile.table()),
                    Format::Json => print!("{}", profile.to_json().to_json_string_pretty()),
                },
                Some("flame") => print!("{}", folded_stacks(&forest)),
                _ => {
                    let Some(budget_path) = budget_path else {
                        usage("budget needs --budget FILE");
                    };
                    let budget_text = read(&budget_path);
                    let (report, ok) = match run_budget(&budget_text, &profile) {
                        Ok(r) => r,
                        Err(e) => fail(&e),
                    };
                    print!("{report}");
                    if !ok {
                        console.info("budget check FAILED");
                        std::process::exit(1);
                    }
                    console.info("budget check passed");
                }
            }
        }
        Some("diff") => {
            let [base_path, cur_path] = positional.as_slice() else {
                usage("diff needs BASE and CUR profile documents");
            };
            let budget_text = budget_path.as_deref().map(read);
            let (report, ok) =
                match run_diff(&read(base_path), &read(cur_path), budget_text.as_deref()) {
                    Ok(r) => r,
                    Err(e) => fail(&e),
                };
            print!("{report}");
            if !ok {
                console.info("diff gate FAILED");
                std::process::exit(1);
            }
            console.info("diff gate passed");
        }
        Some(other) => usage(&format!("unknown command {other}")),
        None => usage("missing command"),
    }
}
