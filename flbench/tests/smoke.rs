//! Seed and host hazards, in `--smoke` mode (rounds ÷ 4, three
//! repetitions, every check on except the accuracy floor): every workload
//! in both trace modes on 20 seeds, the two-thread workload pinned to one
//! CPU, nothing written outside the checkout, and the contract's command
//! failing cleanly where the repository is missing.

mod common;

use common::{assert_passed, repo_root, smoke, temp_dir};
use fedwcm_obs::Json;
use std::process::Command;

/// 0, 3 (the seed that gave client 0 fewer samples than a batch), 7 (the
/// held-out seed), `u64::MAX`, and sixteen more.
const SEEDS: [u64; 20] = [
    0,
    3,
    7,
    u64::MAX,
    1,
    2,
    4,
    5,
    6,
    8,
    9,
    10,
    42,
    1234,
    99_999,
    1 << 32,
    (1 << 63) + 5,
    31_337,
    271_828,
    314_159,
];

fn every_seed_passes(workload: &str) {
    for seed in SEEDS {
        for trace in [0, 1] {
            let out = smoke(workload, seed, trace).output().unwrap();
            assert_passed(&out, &format!("{workload} seed {seed} trace {trace}"));
        }
    }
}

#[test]
fn reslite_1t_passes_on_twenty_seeds() {
    every_seed_passes("reslite_1t");
}

#[test]
fn reslite_2t_passes_on_twenty_seeds() {
    every_seed_passes("reslite_2t");
}

#[test]
fn mlp_xdev_passes_on_twenty_seeds() {
    every_seed_passes("mlp_xdev");
}

#[test]
fn mlp_xdev_chaos_passes_on_twenty_seeds() {
    every_seed_passes("mlp_xdev_chaos");
}

fn digest(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .find_map(|l| l.strip_prefix("history digest ").map(str::to_string))
        .expect("the run prints its history digest")
}

#[test]
fn both_reslite_workloads_print_the_same_digest() {
    let one = smoke("reslite_1t", 7, 0).output().unwrap();
    let two = smoke("reslite_2t", 7, 0).output().unwrap();
    assert_eq!(digest(&one.stdout), digest(&two.stdout));
}

#[test]
fn the_two_thread_workload_passes_pinned_to_one_cpu() {
    let mut cmd = Command::new("taskset");
    cmd.current_dir(repo_root())
        .args(["-c", "0", common::exe()])
        .args(["--workload", "reslite_2t", "--seed", "3"])
        .args(["--seconds", "5", "--trace", "0", "--smoke"]);
    // No `taskset`, no pinning: fail rather than pass a hazard unexercised.
    let out = cmd
        .output()
        .expect("taskset (util-linux) starts: this test needs it to pin the run to one CPU");
    assert_passed(&out, "reslite_2t pinned to CPU 0");
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    let counts = [
        "fl.checkpoint.bytes",
        "transport.retry_share",
        "faults.injected_share",
        "fl.rounds_to_target",
        "fl.updates_lost_share",
        "alloc.bytes_per_round",
        "alloc.calls_per_round",
    ];
    let run = || {
        let line = assert_passed(&smoke("mlp_xdev_chaos", 5, 1).output().unwrap(), "chaos");
        counts.map(|c| {
            line.get("metrics")
                .and_then(|m| m.get(c))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect(c)
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn a_run_from_elsewhere_writes_only_under_the_checkout() {
    let dir = temp_dir("elsewhere");
    let span_file = repo_root().join("flbench/out/spans-mlp_xdev-77.jsonl");
    let _ = std::fs::remove_file(&span_file);
    let out = smoke("mlp_xdev", 77, 1).current_dir(&dir).output().unwrap();
    assert_passed(&out, "mlp_xdev from a temp dir");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "cwd stays empty"
    );
    let spans = std::fs::read_to_string(&span_file).expect("the spans land under flbench/out");
    let first = fedwcm_obs::json::parse(spans.lines().next().unwrap(), 1).unwrap();
    for key in ["id", "parent", "name", "start_ns", "end_ns", "self_ns"] {
        assert!(first.get(key).is_some(), "span line lacks {key}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "mlp_xdev",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "mlp_xdev",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[][..],
    ] {
        let out = Command::new(common::exe()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let name = entry.file_name();
        if name == "target" || name == "out" {
            continue;
        }
        let (src, dst) = (entry.path(), to.join(&name));
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).unwrap();
        }
    }
}

#[test]
fn the_command_fails_cleanly_where_only_the_benchmark_exists() {
    let dir = temp_dir("bare");
    std::fs::copy(
        repo_root().join("BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .unwrap();
    copy_tree(&repo_root().join("flbench"), &dir.join("flbench"));
    let manifest = std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap();
    let manifest = fedwcm_obs::json::parse(&manifest, 1).unwrap();
    let Some(Json::Arr(command)) = manifest.get("command") else {
        panic!("no command")
    };
    let command: Vec<&str> = command.iter().map(|c| c.as_str().unwrap()).collect();
    let out = Command::new(command[0])
        .args(&command[1..])
        .args([
            "--workload",
            "reslite_1t",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join(".bench_build"))
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "the command must fail without crates/"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.lines().any(|l| l.contains("\"correct\"")),
        "no result line: {stdout}"
    );
}
