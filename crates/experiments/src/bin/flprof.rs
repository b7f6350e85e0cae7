//! Trace profiler: analyze FedWCM JSONL traces and fold them into
//! flame stacks.
//!
//! ```sh
//! cargo run --release -p fedwcm-experiments --bin flprof -- analyze trace.jsonl
//! cargo run --release -p fedwcm-experiments --bin flprof -- analyze trace.jsonl --format json
//! cargo run --release -p fedwcm-experiments --bin flprof -- flame trace.jsonl > folded.txt
//! ```
//!
//! Artifacts (profile table or JSON, flame stacks) go to stdout and are
//! byte-stable; progress goes to stderr through [`Cli::progress`]
//! (`--quiet` silences it). Exit codes: 0 on success, 2 on usage
//! or input errors.

use fedwcm_experiments::Cli;
use fedwcm_obs::{analyze_text, folded_stacks};

enum Format {
    Table,
    Json,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: flprof <command> [args] [--quiet|-q]\n\
         \n\
         commands:\n\
         \x20 analyze TRACE [--format table|json]   profile a JSONL trace\n\
         \x20 flame TRACE                           folded flame stacks"
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
            "--quiet" | "-q" => cli.quiet = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other if command.is_none() => command = Some(other.to_string()),
            other => positional.push(other.to_string()),
        }
    }
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };

    match command.as_deref() {
        Some(command @ ("analyze" | "flame")) => {
            let [trace_path] = positional.as_slice() else {
                usage("expected exactly one TRACE argument");
            };
            let text = read(trace_path);
            let (profile, forest) = match analyze_text(&text) {
                Ok(r) => r,
                Err(e) => fail(&e),
            };
            cli.progress(format!(
                "parsed {} records -> {} spans, {} rounds, {} total ticks",
                profile.records,
                profile.spans,
                profile.rounds.len(),
                profile.total_ticks
            ));
            match (command, format) {
                ("flame", _) => print!("{}", folded_stacks(&forest)),
                (_, Format::Table) => print!("{}", profile.table()),
                (_, Format::Json) => print!("{}", profile.to_json().to_json_string_pretty()),
            }
        }
        Some(other) => usage(&format!("unknown command {other}")),
        None => usage("missing command"),
    }
}
