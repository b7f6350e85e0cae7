//! CLI for `fedwcm-lint`.
//!
//! ```text
//! cargo run -p fedwcm-lint                     # lint the whole workspace
//! cargo run -p fedwcm-lint -- --root /path/to/workspace
//! cargo run -p fedwcm-lint -- --list-rules
//! cargo run -p fedwcm-lint -- --rules         # full taxonomy
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` usage or I/O error.

use fedwcm_lint::engine::{ALL_RULES, RULE_INFO};
use fedwcm_lint::{lint_workspace, LintConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> &'static str {
    "fedwcm-lint — static analysis gates for the FedWCM workspace\n\
     \n\
     USAGE: fedwcm-lint [--root PATH] [--list-rules] [--rules]\n\
     \n\
     --root PATH      workspace root (default: walk up from cwd to the\n\
     \u{20}                workspace Cargo.toml)\n\
     --list-rules     print the known rule ids and exit\n\
     --rules          print the full taxonomy (id, family, severity,\n\
     \u{20}                what a finding asks for), then exit\n"
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                let id_w = RULE_INFO.iter().map(|r| r.id.len()).max().unwrap_or(0);
                let fam_w = RULE_INFO.iter().map(|r| r.family.len()).max().unwrap_or(0);
                for r in RULE_INFO {
                    println!(
                        "{:id_w$}  {:fam_w$}  {:5}  {}",
                        r.id, r.family, r.severity, r.escape
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(find_workspace_root)) {
        Some(r) => r,
        None => {
            eprintln!("could not locate the workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let run = match lint_workspace(&root, &LintConfig::all()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("I/O error while linting: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    let timing = format!(
        "fedwcm-lint: {} files lexed once, all rules in {}.{:03}s",
        run.files,
        elapsed.as_secs(),
        elapsed.subsec_millis()
    );

    for d in &run.diags {
        println!("{d}");
    }
    if run.diags.is_empty() {
        println!("fedwcm-lint: {} files clean", run.files);
        println!("{timing}");
        ExitCode::SUCCESS
    } else {
        println!(
            "fedwcm-lint: {} diagnostic{} across {} files",
            run.diags.len(),
            if run.diags.len() == 1 { "" } else { "s" },
            run.files
        );
        println!("{timing}");
        ExitCode::FAILURE
    }
}
