//! One registry drives everything: the committed `BENCHMARK.json`, the
//! README's tables and both result lines are what `flbench` prints from
//! it, and all of it fits the limits the benchmark contract sets.

mod common;

use common::{assert_passed, metric_names, repo_root, smoke};
use fedwcm_obs::Json;
use flbench::registry::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(common::exe())
        .args(args)
        .output()
        .expect("the binary starts");
    assert!(out.status.success(), "{args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn committed_manifest_is_what_flbench_prints() {
    let printed = run_ok(&["manifest"]);
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is committed at the repository root");
    assert_eq!(committed, printed, "regenerate with `flbench manifest`");
    assert_eq!(printed, registry::manifest().to_json_string_pretty());
}

#[test]
fn readme_embeds_the_printed_tables() {
    let printed = run_ok(&["list"]);
    assert_eq!(printed, registry::list());
    let readme = std::fs::read_to_string(repo_root().join("flbench/README.md"))
        .expect("flbench/README.md exists");
    assert!(
        readme.contains(&printed),
        "the tables in README.md differ from `flbench list`; paste its output"
    );
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect(),
        other => panic!("{key} is not an array: {other:?}"),
    }
}

#[test]
fn result_lines_carry_exactly_the_manifest_metrics() {
    let manifest = registry::manifest();
    let e2e = assert_passed(&smoke("mlp_xdev", 1, 0).output().unwrap(), "trace 0");
    assert_eq!(metric_names(&e2e), names(&manifest, "end_to_end"));
    let layers = assert_passed(&smoke("mlp_xdev", 1, 1).output().unwrap(), "trace 1");
    assert_eq!(metric_names(&layers), names(&manifest, "per_layer"));
    // Exactly the four keys, and every metric is {value, unit} with the
    // manifest's unit.
    for (line, table) in [(&e2e, &END_TO_END[..]), (&layers, &PER_LAYER[..])] {
        let Json::Obj(keys) = line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for m in table {
            let entry = line.get("metrics").and_then(|x| x.get(m.name)).unwrap();
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let v = entry.get("value").and_then(Json::as_f64).expect("a number");
            assert!(v.is_finite(), "{} = {v}", m.name);
        }
    }
}

fn well_formed(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_units_and_limits_fit_the_contract() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(well_formed(name), "bad name {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(
            w.threads >= 1 && w.threads <= 2,
            "at most nproc = 2 workers"
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            m.unit,
            m.name
        );
    }
    for m in &END_TO_END {
        let b = m.bound.expect("end-to-end metrics carry a bound");
        assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!((1..=60).contains(&registry::RUN_SECONDS));
    assert!(registry::COMMAND.len() <= 32);
    for part in registry::COMMAND {
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let text = registry::manifest().to_json_string_pretty();
    assert!(text.len() <= 64 * 1024);
    let Json::Obj(keys) = registry::manifest() else {
        panic!()
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
