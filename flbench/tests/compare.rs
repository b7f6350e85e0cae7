//! `flbench set` and `flbench compare`: identical inputs pass, a seeded
//! 30 % slowdown is flagged, a rise in the failed share is a regression.

mod common;

use common::temp_dir;
use flbench::registry::{Better, END_TO_END, WORKLOADS};
use flbench::sets::{compare, Set, Verdict, WorkloadRuns};
use std::process::Command;

/// A synthetic set: ten runs per workload, each metric 2 % wide around
/// 100 made worse, in the metric's own direction, by the share `worse`.
fn synthetic(worse: f64) -> Set {
    let workloads = WORKLOADS
        .iter()
        .map(|w| WorkloadRuns {
            name: w.name.to_string(),
            attempted: 1000,
            failed: 0,
            values: END_TO_END
                .iter()
                .map(|m| {
                    let center = match m.better {
                        Better::Higher => 100.0 * (1.0 - worse),
                        Better::Lower => 100.0 * (1.0 + worse),
                    };
                    let v = (0..10)
                        .map(|i| center * (0.99 + 0.002 * f64::from(i)))
                        .collect();
                    (m.name.to_string(), v)
                })
                .collect(),
        })
        .collect();
    Set {
        first_seed: 100,
        runs: 10,
        workloads,
    }
}

#[test]
fn identical_sets_are_unchanged() {
    let a = synthetic(0.0);
    let rows = compare(&a, &a).unwrap();
    assert_eq!(rows.len(), WORKLOADS.len() * (END_TO_END.len() + 1));
    assert!(
        rows.iter().all(|r| r.verdict == Verdict::Unchanged),
        "{rows:?}"
    );
    assert!(rows.iter().all(|r| r.worse_by == 0.0));
}

#[test]
fn a_thirty_percent_slowdown_is_flagged_on_every_row() {
    let rows = compare(&synthetic(0.0), &synthetic(0.3)).unwrap();
    for r in rows.iter().filter(|r| r.metric != "failed_share") {
        assert_eq!(r.verdict, Verdict::Regressed, "{r:?}");
        assert!(r.worse_by > 0.29 && r.worse_by < 0.31, "{r:?}");
    }
    // The other way round it is an improvement, not a regression.
    let rows = compare(&synthetic(0.3), &synthetic(0.0)).unwrap();
    assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
}

#[test]
fn a_spread_beyond_the_bound_is_unresolved_unless_the_sets_are_disjoint() {
    let old = synthetic(0.0);
    let mut noisy = synthetic(0.02);
    for w in &mut noisy.workloads {
        for (_, v) in &mut w.values {
            for (i, x) in v.iter_mut().enumerate() {
                *x *= 0.7 + 0.06 * i as f64;
            }
        }
    }
    let rows = compare(&old, &noisy).unwrap();
    assert!(rows
        .iter()
        .filter(|r| r.metric != "failed_share")
        .all(|r| r.verdict == Verdict::Unresolved));
}

#[test]
fn any_rise_in_the_failed_share_is_a_regression() {
    let old = synthetic(0.0);
    let mut new = synthetic(0.0);
    new.workloads[2].failed = 1;
    let rows = compare(&old, &new).unwrap();
    let bad: Vec<_> = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .collect();
    assert_eq!(bad.len(), 1);
    assert_eq!(
        (bad[0].workload.as_str(), bad[0].metric.as_str()),
        (WORKLOADS[2].name, "failed_share")
    );
}

#[test]
fn set_files_round_trip_and_the_binary_exits_one_on_a_regression() {
    let dir = temp_dir("compare");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, synthetic(0.0).to_json().to_json_string_pretty()).unwrap();
    std::fs::write(&b, synthetic(0.3).to_json().to_json_string_pretty()).unwrap();
    assert_eq!(Set::read(&a).unwrap(), synthetic(0.0));
    let status = |old: &std::path::Path, new: &std::path::Path| {
        let out = Command::new(common::exe())
            .arg("compare")
            .args([old, new])
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };
    let (code, table) = status(&a, &a);
    assert_eq!(code, Some(0));
    assert!(table.contains("unchanged") && !table.contains("regressed"));
    let (code, table) = status(&a, &b);
    assert_eq!(code, Some(1));
    assert!(table.contains("regressed"));
}

#[test]
fn a_smoke_set_runs_every_workload_and_leaves_no_process_behind() {
    let dir = temp_dir("set");
    let out_file = dir.join("set.json");
    let out = Command::new(common::exe())
        .current_dir(&dir)
        .args([
            "set",
            "--runs",
            "2",
            "--first-seed",
            "11",
            "--smoke",
            "--out",
        ])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let set = Set::read(&out_file).unwrap();
    assert_eq!(set.workloads.len(), WORKLOADS.len());
    for w in &set.workloads {
        assert_eq!(w.failed, 0, "{}", w.name);
        assert!(w
            .values
            .iter()
            .all(|(_, v)| v.len() == 2 && v.iter().all(|x| *x > 0.0)));
    }
    // The set file is all the run left in its working directory.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, [std::ffi::OsString::from("set.json")]);
    // `output()` waited for the parent; none of its children (this binary,
    // on the seeds 11 and 12 that no other test uses) may live on.
    let me = std::fs::canonicalize(common::exe()).unwrap();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let is_me = std::fs::read_link(entry.path().join("exe")).is_ok_and(|p| p == me);
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline);
        let on_set_seed =
            cmdline.contains("--seed\x0011\x00") || cmdline.contains("--seed\x0012\x00");
        assert!(
            !(is_me && on_set_seed),
            "{:?} of the set is still running",
            entry.file_name()
        );
    }
}
