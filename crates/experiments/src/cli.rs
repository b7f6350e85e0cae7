//! Minimal CLI parsing shared by the experiment binaries (no external
//! argument-parsing dependency).

use crate::setup::{ExpConfig, PreparedTask};
use fedwcm_data::synth::DatasetPreset;
use fedwcm_fl::{Cadence, NetConfig, NetPlan, Simulation};
use std::fmt::Display;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per run: CI / smoke-testing.
    Smoke,
    /// Minutes per experiment: the default used for EXPERIMENTS.md.
    Quick,
    /// The paper's sizes (100 clients, 500 rounds, …).
    Paper,
}

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Run scale.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// Number of seeds to average (the paper uses 3).
    pub trials: usize,
    /// Optional round-count override.
    pub rounds: Option<usize>,
    /// Server aggregation cadence (`--cadence sync|buffered:K|async:N`).
    pub cadence: Cadence,
    /// Network-fault plan for the wire transport
    /// (`--net drop:0.1,delay:2`); `None` runs without a transport.
    pub net: Option<NetConfig>,
    /// `--quiet`: no progress lines on stderr.
    pub quiet: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Quick,
            seed: 42,
            trials: 1,
            rounds: None,
            cadence: Cadence::Sync,
            net: None,
            quiet: false,
        }
    }
}

impl Cli {
    /// Materialise `exp` as this command line runs it: `--rounds` and
    /// `--cadence` override the condition's own. With [`Cli::simulation`],
    /// the one place a binary's overrides are applied.
    pub fn prepare(&self, exp: &ExpConfig) -> PreparedTask {
        let mut e = exp.clone();
        e.fl.rounds = self.rounds.unwrap_or(e.fl.rounds);
        e.fl.cadence = self.cadence;
        e.prepare()
    }

    /// The simulation of a task from [`Cli::prepare`], over the `--net`
    /// wire transport when one is given.
    pub fn simulation<'t>(&self, task: &'t PreparedTask) -> Simulation<'t> {
        let sim = task.simulation();
        match &self.net {
            Some(net) => sim.with_net_plan(NetPlan::new(net.clone())),
            None => sim,
        }
    }

    /// Report progress as `:: {msg}` on stderr, or nothing under
    /// `--quiet`. Every binary's progress lines come through here, so
    /// `--quiet` is decided in one place; artifact rows (tables, CSV)
    /// stay on stdout untouched.
    pub fn progress(&self, msg: impl Display) {
        if !self.quiet {
            eprintln!(":: {msg}");
        }
    }
}

/// Parse `std::env::args`-style strings. A bad or unknown flag exits
/// through [`usage`] with status 2, `--help` with status 0.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Cli {
    try_parse_args(args).unwrap_or_else(|msg| usage(&msg))
}

/// [`parse_args`] without the exit: the message [`usage`] would print,
/// empty for `--help`.
pub fn try_parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    fn value<T: std::str::FromStr>(v: Option<String>, msg: &str) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| msg.to_string())
    }
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    let _bin = it.next();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cli.scale = Scale::Smoke,
            "--quick" => cli.scale = Scale::Quick,
            "--paper-scale" => cli.scale = Scale::Paper,
            "--seed" => cli.seed = value(it.next(), "--seed needs an integer")?,
            "--trials" => cli.trials = value(it.next(), "--trials needs an integer")?,
            "--rounds" => cli.rounds = Some(value(it.next(), "--rounds needs an integer")?),
            "--cadence" => {
                cli.cadence = it
                    .next()
                    .as_deref()
                    .and_then(Cadence::parse)
                    .ok_or("--cadence needs sync, buffered:K, or async:N")?;
            }
            "--net" => {
                let spec: String = value(it.next(), "--net needs a spec")?;
                cli.net = Some(NetConfig::parse(&spec).map_err(|e| format!("--net: {e}"))?);
            }
            "--quiet" | "-q" => cli.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    Ok(cli)
}

/// [`parse_args`] for a binary that runs on a chosen preset: it takes
/// `--dataset NAME` out first (the shared parser rejects the flag), and a
/// bad flag exits through [`usage_with`] with `own`, the binary's flags.
pub fn parse_args_with_dataset<I: IntoIterator<Item = String>>(
    args: I,
    own: &str,
) -> (Option<DatasetPreset>, Cli) {
    take_dataset(args)
        .and_then(|(preset, rest)| Ok((preset, try_parse_args(rest)?)))
        .unwrap_or_else(|msg| usage_with(&msg, own))
}

/// Take `--dataset NAME` out of `args`. `NAME` is one preset, named
/// exactly (case aside) as its spec, e.g. `--dataset cifar-10`; the last
/// one given counts. Returns the preset and the other arguments, in
/// order.
fn take_dataset<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(Option<DatasetPreset>, Vec<String>), String> {
    let mut preset = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg != "--dataset" {
            rest.push(arg);
            continue;
        }
        let v = it.next().unwrap_or_default();
        let names = DatasetPreset::all().map(|p| p.spec().name);
        let found = DatasetPreset::all()
            .into_iter()
            .find(|p| v.eq_ignore_ascii_case(p.spec().name))
            .ok_or_else(|| format!("--dataset needs one of {}", names.join(", ")))?;
        preset = Some(found);
    }
    Ok((preset, rest))
}

/// Print `msg` (when not empty) and the usage line to stderr, then exit:
/// status 0 for an empty `msg` (`--help`), 2 otherwise.
pub fn usage(msg: &str) -> ! {
    usage_with(msg, "")
}

/// [`usage`] for a binary that takes flags of its own before the shared
/// ones: `own` lists them, e.g. `"[--dataset NAME]"`.
pub fn usage_with(msg: &str, own: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    let sep = if own.is_empty() { "" } else { " " };
    eprintln!(
        "usage: <experiment>{sep}{own} [--smoke|--quick|--paper-scale] [--seed N] \
         [--trials N] [--rounds N] \
         [--cadence sync|buffered:K|async:N] \
         [--net drop:F,corrupt:F,dup:F,reorder:F,delayp:F,delay:N,seed:N] \
         [--quiet|-q]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        let mut v = vec!["bin".to_string()];
        v.extend(args.iter().map(|s| s.to_string()));
        parse_args(v)
    }

    #[test]
    fn defaults() {
        let c = parse(&[]);
        assert_eq!(c.scale, Scale::Quick);
        assert_eq!(c.seed, 42);
        assert_eq!(c.trials, 1);
    }

    #[test]
    fn all_flags() {
        let c = parse(&["--smoke", "--seed", "7", "--trials", "3", "--rounds", "99"]);
        assert_eq!(c.scale, Scale::Smoke);
        assert_eq!(c.seed, 7);
        assert_eq!(c.trials, 3);
        assert_eq!(c.rounds, Some(99));
    }

    #[test]
    fn bad_trials_take_the_usage_path() {
        let err = |n: &str| try_parse_args(["bin", "--trials", n].map(String::from)).unwrap_err();
        assert_eq!(err("0"), "--trials must be at least 1");
        assert_eq!(err("x"), "--trials needs an integer");
    }

    #[test]
    fn dataset_names_one_preset_exactly() {
        let err = |v: &str| take_dataset(["bin", "--dataset", v].map(String::from)).unwrap_err();
        let names = "fashion-mnist, svhn, cifar-10, cifar-100, imagenet-lite";
        assert_eq!(err("cifar"), format!("--dataset needs one of {names}"));
        assert_eq!(err("nope"), format!("--dataset needs one of {names}"));
        assert_eq!(err("--smoke"), format!("--dataset needs one of {names}"));
    }

    /// Only a binary that strips `--dataset` first takes it: the shared
    /// parser rejects the flag like any unknown one, and the stripped
    /// arguments parse as before.
    #[test]
    fn dataset_is_taken_out_before_the_shared_parse() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            try_parse_args(args(&["bin", "--dataset", "svhn"])).unwrap_err(),
            "unknown flag --dataset"
        );
        let (preset, rest) = take_dataset(args(&[
            "bin",
            "--smoke",
            "--dataset",
            "CIFAR-10",
            "--seed",
            "7",
        ]))
        .expect("a preset");
        assert_eq!(preset, Some(DatasetPreset::Cifar10));
        assert_eq!(rest, args(&["bin", "--smoke", "--seed", "7"]));
        let c = parse_args(rest);
        assert_eq!((c.scale, c.seed), (Scale::Smoke, 7));
        let (preset, rest) = take_dataset(args(&["bin", "--quick"])).expect("no preset");
        assert_eq!((preset, rest), (None, args(&["bin", "--quick"])));
        let last = args(&["bin", "--dataset", "svhn", "--dataset", "cifar-100"]);
        assert_eq!(
            take_dataset(last).expect("a preset").0,
            Some(DatasetPreset::Cifar100)
        );
    }

    #[test]
    fn paper_scale_flag() {
        assert_eq!(parse(&["--paper-scale"]).scale, Scale::Paper);
    }

    #[test]
    fn cadence_flag() {
        assert_eq!(parse(&[]).cadence, Cadence::Sync);
        assert_eq!(parse(&["--cadence", "sync"]).cadence, Cadence::Sync);
        assert_eq!(
            parse(&["--cadence", "buffered:3"]).cadence,
            Cadence::BufferedK { k: 3 }
        );
        assert_eq!(
            parse(&["--cadence", "async:2"]).cadence,
            Cadence::Async { max_in_flight: 2 }
        );
    }

    #[test]
    fn net_flag() {
        assert!(parse(&[]).net.is_none());
        let cfg = parse(&["--net", "drop:0.1,delay:2"]).net.expect("parsed");
        assert_eq!(cfg.drop, 0.1);
        assert_eq!(cfg.max_delay_rounds, 2);
        assert!(cfg.delay > 0.0, "delay:N implies a default delay rate");
    }

    #[test]
    fn quiet_flags() {
        assert!(!parse(&[]).quiet);
        assert!(parse(&["--quiet"]).quiet);
        assert!(parse(&["-q"]).quiet);
    }

    #[test]
    fn verbose_is_not_a_flag() {
        for flag in ["--verbose", "-v"] {
            assert_eq!(
                try_parse_args(["bin", flag].map(String::from)).unwrap_err(),
                format!("unknown flag {flag}")
            );
        }
    }
}
