//! CLI for `fedwcm-lint`.
//!
//! ```text
//! cargo run -p fedwcm-lint                     # lint the whole workspace
//! cargo run -p fedwcm-lint -- --only panic-freedom
//! cargo run -p fedwcm-lint -- --disable doc-coverage
//! cargo run -p fedwcm-lint -- --root /path/to/workspace
//! cargo run -p fedwcm-lint -- --format json    # machine-readable findings
//! cargo run -p fedwcm-lint -- --list-rules
//! cargo run -p fedwcm-lint -- --rules         # full taxonomy + blessings
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` usage or I/O error.
//!
//! With `--format json`, stdout carries **only** the findings document
//! — sorted by path/line/rule, no timestamps, no counts that depend on
//! the environment — so two consecutive runs over the same tree are
//! byte-identical and CI can archive and diff the artifact. The timing
//! line goes to stderr in that mode.

use fedwcm_lint::engine::{ALL_RULES, RULE_INFO};
use fedwcm_lint::rules::BLESSINGS;
use fedwcm_lint::{lint_workspace, Diagnostic, LintConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> &'static str {
    "fedwcm-lint — static analysis gates for the FedWCM workspace\n\
     \n\
     USAGE: fedwcm-lint [--root PATH] [--only RULE]... [--disable RULE]...\n\
     \u{20}                [--format text|json] [--list-rules]\n\
     \n\
     --root PATH      workspace root (default: walk up from cwd to the\n\
     \u{20}                workspace Cargo.toml)\n\
     --only RULE      run only the named rule (repeatable)\n\
     --disable RULE   skip the named rule (repeatable)\n\
     --format FMT     output format: text (default) or json (stable,\n\
     \u{20}                byte-identical across runs on the same tree)\n\
     --list-rules     print the known rule ids and exit\n\
     --rules          print the full taxonomy (id, family, severity,\n\
     \u{20}                escape hatch) and blessed-file table, then exit\n"
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

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings document. Input is already sorted; nothing here
/// depends on time or environment, so the output is byte-stable.
fn render_json(diags: &[Diagnostic], files: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"files\": ");
    out.push_str(&files.to_string());
    out.push_str(",\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.path),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut disable: Vec<String> = Vec::new();
    let mut format = String::from("text");

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
                if !BLESSINGS.is_empty() {
                    println!("\nblessed files (rule does not fire in path):");
                    for b in BLESSINGS {
                        println!("  {}  {}  — {}", b.rule, b.path, b.why);
                    }
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
            "--only" => match it.next() {
                Some(r) => only.push(r.clone()),
                None => {
                    eprintln!("--only needs a rule name\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--disable" => match it.next() {
                Some(r) => disable.push(r.clone()),
                None => {
                    eprintln!("--disable needs a rule name\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                Some(f) => {
                    eprintln!("unknown format '{f}' (expected text or json)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format needs text or json\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let cfg = if only.is_empty() {
        let mut cfg = LintConfig::all();
        for r in &disable {
            if let Err(e) = cfg.disable(r) {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
        cfg
    } else {
        if !disable.is_empty() {
            eprintln!("--only and --disable are mutually exclusive");
            return ExitCode::from(2);
        }
        match LintConfig::only(only.iter().map(String::as_str)) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    };

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(find_workspace_root)) {
        Some(r) => r,
        None => {
            eprintln!("could not locate the workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let run = match lint_workspace(&root, &cfg) {
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

    if format == "json" {
        print!("{}", render_json(&run.diags, run.files));
        eprintln!("{timing}");
        return if run.diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

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
