//! Command line of `flbench`; see `README.md`.

use flbench::e2e::{self, Args};
use flbench::layers;
use flbench::registry::{self, Workload};
use flbench::sets::{self, Set, Verdict};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
flbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
flbench list                  the workload and metric tables
flbench manifest              BENCHMARK.json
flbench set --runs N --first-seed N --out FILE [--smoke]
flbench compare OLD NEW       exit 1 on a regression";

/// `--key value` pairs and bare flags after the subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let at = self.0.iter().position(|a| a == key);
        let at = at.ok_or(format!("{key} is required"))?;
        let v = self.0.get(at + 1).ok_or(format!("{key} needs a value"))?;
        v.parse().map_err(|_| format!("{key}: bad value `{v}`"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run(start: Instant, argv: Vec<String>) -> Result<ExitCode, String> {
    let flags = Flags(&argv);
    match argv.first().map(String::as_str) {
        Some("list") => print!("{}", registry::list()),
        Some("manifest") => print!("{}", registry::manifest().to_json_string_pretty()),
        Some("set") => {
            let out: String = flags.required("--out")?;
            let exe =
                std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
            let set = sets::run_set(
                &exe,
                flags.required("--runs")?,
                flags.required("--first-seed")?,
                flags.has("--smoke"),
            )?;
            std::fs::write(&out, set.to_json().to_json_string_pretty())
                .map_err(|e| format!("{out}: {e}"))?;
            print!("{}", set.table());
        }
        Some("compare") => {
            let [_, old, new] = argv.as_slice() else {
                return Err("compare takes two set files".to_string());
            };
            let rows = sets::compare(&Set::read(Path::new(old))?, &Set::read(Path::new(new))?)?;
            print!("{}", sets::compare_table(&rows));
            if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
                return Ok(ExitCode::from(1));
            }
        }
        Some(flag) if flag.starts_with("--") => {
            let name: String = flags.required("--workload")?;
            let trace: u8 = flags.required("--trace")?;
            let args = Args {
                workload: Workload::by_name(&name).ok_or(format!("no workload `{name}`"))?,
                seed: flags.required("--seed")?,
                seconds: flags.required("--seconds")?,
                trace: match trace {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                },
                smoke: flags.has("--smoke"),
                start,
            };
            let outcome = if args.trace {
                layers::run(&args)
            } else {
                e2e::run(&args)
            };
            e2e::print(&args, &outcome);
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let start = Instant::now();
    match run(start, std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flbench: {msg}");
            ExitCode::from(2)
        }
    }
}
