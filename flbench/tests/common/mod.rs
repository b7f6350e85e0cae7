//! Helpers shared by the integration tests: run the `flbench` binary and
//! parse its result line.
#![allow(dead_code)]

use fedwcm_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Path of the binary under test.
pub fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_flbench")
}

/// The repository root (parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package directory has a parent")
        .to_path_buf()
}

/// A fresh, empty directory under cargo's per-test temp dir.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temp dir can be created");
    dir
}

/// A `--smoke` benchmark invocation, run from the repository root.
pub fn smoke(workload: &str, seed: u64, trace: u8) -> Command {
    let mut cmd = Command::new(exe());
    cmd.current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "5", "--trace", &trace.to_string(), "--smoke"]);
    cmd
}

/// The result line (last line of stdout) of a finished run.
pub fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the run printed a result line");
    fedwcm_obs::json::parse(last, 1).expect("the last line is JSON")
}

/// Assert exit 0, `correct` and `failed` = 0; return the result line.
pub fn assert_passed(out: &Output, what: &str) -> Json {
    assert!(
        out.status.success(),
        "{what} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(out);
    assert_eq!(line.get("failed"), Some(&Json::U64(0)), "{what}: {line:?}");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert!(
        line.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
        "{what}"
    );
    line
}

/// Metric names of a result line, in order.
pub fn metric_names(line: &Json) -> Vec<String> {
    match line.get("metrics") {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}
