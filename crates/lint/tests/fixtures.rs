//! Fixture tests: every lint rule demonstrated on known-good and
//! known-bad sources, including the tricky cases the lexer exists for
//! (`unsafe` inside a string literal, `// SAFETY:` separated by a blank
//! line, suppression markers without a reason).
//!
//! Fixtures are in-memory strings fed to [`lint_file`] under invented
//! workspace-relative paths — the path picks which crate-scoped rules
//! apply (`crates/algos/...` is a library crate outside the doc set,
//! `crates/tensor/...` adds doc-coverage, `crates/experiments/...` is
//! exempt from the determinism/panic families).

use fedwcm_lint::{
    lint_file, lint_sources, lint_workspace, Diagnostic, LintConfig, ALL_RULES, MARKER_RULE,
};

/// Lint one fixture with every rule enabled.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_file(path, src, &LintConfig::all())
}

/// Lint a set of fixtures together, as one workspace for the
/// cross-file rule.
fn lint_many(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_sources(&sources, &LintConfig::all())
}

/// The rule names that fired, in output order.
fn fired(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

/// A library-crate path outside the doc-coverage set, so fixtures can
/// use undocumented `pub fn` scaffolding without doc noise.
const LIB: &str = "crates/algos/src/fixture.rs";

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_without_safety_comment_fires() {
    let d = lint(LIB, "pub fn f(p: *mut u8) { unsafe { *p = 0; } }\n");
    assert_eq!(fired(&d), ["unsafe-safety"]);
    assert_eq!(d[0].line, 1);
}

#[test]
fn safety_comment_on_same_line_passes() {
    let src = "pub fn f(p: *mut u8) { /* SAFETY: p is valid */ unsafe { *p = 0; } }\n";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn safety_block_directly_above_passes() {
    let src = "\
// SAFETY: caller guarantees exclusive access to `p`
// for the duration of the call.
unsafe fn f(p: *mut u8) { *p = 0; }
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn safety_separated_by_blank_line_fires() {
    // The association is broken by the blank line: a drive-by edit could
    // have inserted unrelated code there, so adjacency is required.
    let src = "\
// SAFETY: caller guarantees exclusive access.

unsafe fn f(p: *mut u8) { *p = 0; }
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["unsafe-safety"]);
    assert_eq!(d[0].line, 3);
}

#[test]
fn safety_separated_by_code_line_fires() {
    let src = "\
// SAFETY: this comment belongs to g, not f.
fn g() {}
unsafe fn f(p: *mut u8) { *p = 0; }
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["unsafe-safety"]);
    assert_eq!(d[0].line, 3);
}

#[test]
fn attribute_between_safety_and_unsafe_passes() {
    let src = "\
// SAFETY: repr(C) layout is part of the contract.
#[allow(dead_code)]
unsafe fn f() {}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn unsafe_inside_string_literal_is_ignored() {
    let src = "pub fn msg() -> &'static str { \"this unsafe is just text\" }\n";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn unsafe_inside_raw_string_and_comment_is_ignored() {
    let src = "\
// unsafe in a comment is fine
pub fn msg() -> &'static str { r#\"unsafe { *p }\"# }
";
    assert!(lint(LIB, src).is_empty());
}

// ----------------------------------------------------------- determinism

#[test]
fn hashmap_and_hashset_fire_in_library_crates() {
    let src = "\
use std::collections::HashMap;
pub fn f() { let _m: HashMap<u32, u32> = HashMap::new(); }
pub fn g() { let _s = std::collections::HashSet::<u32>::new(); }
";
    let d = lint(LIB, src);
    assert!(d.len() >= 3, "use + two bodies: {d:?}");
    assert!(d.iter().all(|x| x.rule == "determinism-collections"));
}

#[test]
fn hashmap_allowed_in_dev_crates() {
    let src =
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    assert!(lint("crates/experiments/src/fixture.rs", src).is_empty());
}

#[test]
fn hashmap_allowed_in_test_code() {
    let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _m: HashMap<u32, u32> = HashMap::new(); }
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn wall_clock_reads_fire() {
    let src = "\
pub fn f() -> std::time::Instant { std::time::Instant::now() }
pub fn g() -> std::time::SystemTime { std::time::SystemTime::now() }
";
    let d = lint(LIB, src);
    // Each line mentions `std::time` (std-time rule, deduped per line)
    // AND performs a wall-clock read (time rule).
    assert_eq!(
        fired(&d),
        [
            "determinism-std-time",
            "determinism-time",
            "determinism-std-time",
            "determinism-time",
        ]
    );
}

#[test]
fn std_time_import_fires_even_without_a_clock_read() {
    // With fedwcm-trace in the workspace there is no reason for library
    // code to even name std::time types — Duration included.
    let d = lint(LIB, "use std::time::Duration;\n");
    assert_eq!(fired(&d), ["determinism-std-time"]);
    assert_eq!(d[0].line, 1);
}

#[test]
fn std_time_reported_once_per_line() {
    let src = "pub fn f() -> std::time::Duration { std::time::Duration::from_secs(1) }\n";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["determinism-std-time"]);
}

#[test]
fn std_time_allowed_in_blessed_clock_module() {
    let src = "\
/// Fixture standing in for the real clock module.
pub fn base() -> std::time::Duration { std::time::Duration::ZERO }
";
    let d = lint("crates/trace/src/clock.rs", src);
    assert!(
        d.iter().all(|x| x.rule != "determinism-std-time"),
        "blessed clock module must allow std::time: {d:?}"
    );
}

#[test]
fn std_time_allowed_in_test_code() {
    let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    use std::time::Duration;
    #[test]
    fn t() { let _ = Duration::from_millis(1); }
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn std_time_allowed_in_dev_crates() {
    let src = "use std::time::Instant;\npub fn t0() -> Instant { Instant::now() }\n";
    assert!(lint("crates/experiments/src/fixture.rs", src).is_empty());
}

#[test]
fn env_read_fires_outside_blessed_config() {
    let d = lint(LIB, "pub fn f() -> bool { std::env::var(\"X\").is_ok() }\n");
    assert_eq!(fired(&d), ["determinism-env"]);
}

#[test]
fn env_read_allowed_in_blessed_config_module() {
    let src = "pub fn threads() -> bool { std::env::var(\"FEDWCM_THREADS\").is_ok() }\n";
    let d = lint("crates/fl/src/config.rs", src);
    assert!(
        d.iter().all(|x| x.rule != "determinism-env"),
        "blessed file must allow env reads: {d:?}"
    );
}

#[test]
fn available_parallelism_fires_outside_parallel_crate() {
    let src = "pub fn n() -> usize { std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1) }\n";
    let d = lint(LIB, src);
    assert!(d.iter().any(|x| x.rule == "determinism-threads"), "{d:?}");
}

#[test]
fn available_parallelism_allowed_in_parallel_crate() {
    let src = "\
/// Worker count.
pub fn n() -> usize { std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1) }
";
    let d = lint("crates/parallel/src/fixture.rs", src);
    assert!(d.iter().all(|x| x.rule != "determinism-threads"), "{d:?}");
}

// --------------------------------------------------------- panic-freedom

#[test]
fn unwrap_and_expect_fire() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 { o.unwrap() }
pub fn g(r: Result<u32, ()>) -> u32 { r.expect(\"msg\") }
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["panic-freedom", "panic-freedom"]);
}

#[test]
fn unwrap_on_tuple_field_fires() {
    // Exercises number lexing: `x.0.unwrap()` must tokenize as
    // `x . 0 . unwrap ( )`, not swallow `.unwrap` into a float literal.
    let d = lint(LIB, "pub fn f(x: (Option<u32>,)) -> u32 { x.0.unwrap() }\n");
    assert_eq!(fired(&d), ["panic-freedom"]);
}

#[test]
fn panic_family_macros_fire() {
    let src = "\
pub fn f() { panic!(\"boom\") }
pub fn g() { unimplemented!() }
pub fn h() { todo!() }
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["panic-freedom"; 3]);
}

#[test]
fn total_alternatives_pass() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }
pub fn g(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 1) }
pub fn h(o: Option<u32>) -> u32 { o.unwrap_or_default() }
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn unwrap_in_test_module_passes() {
    let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!(\"test-only\"); }
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn unwrap_in_test_fn_outside_module_passes() {
    let src = "\
pub fn f() {}
#[test]
fn t() {
    Some(1).unwrap();
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn panic_inside_string_literal_passes() {
    let src = "pub fn f() -> &'static str { \"don't panic!(even here)\" }\n";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn unwrap_in_dev_crate_passes() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(lint("crates/experiments/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------- doc-coverage

#[test]
fn undocumented_pub_item_fires_in_doc_crates() {
    let src = "\
pub fn undocd() {}
pub struct Undocd;
";
    let d = lint("crates/tensor/src/fixture.rs", src);
    assert_eq!(fired(&d), ["doc-coverage", "doc-coverage"]);
}

#[test]
fn documented_pub_items_pass() {
    let src = "\
/// Line-doc'd.
pub fn a() {}
/** Block-doc'd. */
pub struct B;
#[doc = \"Attribute-doc'd.\"]
pub enum C { X }
/// Docs survive intervening attributes.
#[derive(Clone)]
pub struct D;
";
    assert!(lint("crates/tensor/src/fixture.rs", src).is_empty());
}

#[test]
fn restricted_visibility_and_reexports_exempt() {
    let src = "\
pub(crate) fn internal() {}
pub(super) fn upward() {}
pub use std::cmp::Ordering;
";
    assert!(lint("crates/tensor/src/fixture.rs", src).is_empty());
}

#[test]
fn out_of_line_pub_mod_exempt_inline_checked() {
    let src = "\
pub mod declared_elsewhere;
pub mod inline_needs_docs { }
";
    let d = lint("crates/tensor/src/fixture.rs", src);
    assert_eq!(fired(&d), ["doc-coverage"]);
    assert_eq!(d[0].line, 2);
}

#[test]
fn doc_coverage_limited_to_doc_crates() {
    assert!(lint(LIB, "pub fn undocd() {}\n").is_empty());
}

// --------------------------------------------------- suppression markers

#[test]
fn suppression_with_reason_silences_the_finding() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(panic-freedom) fixture contract: o is always Some here.
    o.unwrap()
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn trailing_suppression_on_the_same_line_works() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 {
    o.unwrap() // lint:allow(panic-freedom) fixture contract: never None.
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn suppression_scope_skips_blank_and_comment_lines() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(panic-freedom) fixture contract: never None.

    // an unrelated comment between marker and code
    o.unwrap()
}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn suppression_without_reason_is_a_hard_error() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(panic-freedom)
    o.unwrap()
}
";
    let d = lint(LIB, src);
    // The reasonless marker is rejected AND the finding still fires
    // (sorted by line: the marker sits above the unwrap).
    assert_eq!(fired(&d), [MARKER_RULE, "panic-freedom"]);
    assert!(d[0].message.contains("lacks a reason"), "{}", d[0].message);
}

#[test]
fn one_word_reason_is_rejected() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(panic-freedom) contract
    o.unwrap()
}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), [MARKER_RULE, "panic-freedom"]);
}

#[test]
fn unknown_rule_in_marker_is_rejected() {
    let src = "\
pub fn f() {
    // lint:allow(panic-fredom) typo'd rule name, two words.
    let _x = 1;
}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), [MARKER_RULE]);
    assert!(d[0].message.contains("unknown rule"), "{}", d[0].message);
}

#[test]
fn unused_suppression_is_flagged() {
    let src = "\
pub fn f() -> u32 {
    // lint:allow(panic-freedom) nothing here actually panics.
    41 + 1
}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), [MARKER_RULE]);
    assert!(
        d[0].message.contains("matches no diagnostic"),
        "{}",
        d[0].message
    );
}

#[test]
fn unused_suppression_not_flagged_when_rule_disabled() {
    let src = "\
pub fn f() -> u32 {
    // lint:allow(panic-freedom) kept for when the rule is re-enabled.
    41 + 1
}
";
    let mut cfg = LintConfig::all();
    cfg.disable("panic-freedom").unwrap();
    assert!(lint_file(LIB, src, &cfg).is_empty());
}

#[test]
fn marker_syntax_in_doc_comments_is_prose_not_a_marker() {
    let src = "\
/// Suppress with `lint:allow(panic-freedom)` and a reason.
pub fn f() {}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn suppression_does_not_leak_to_other_rules() {
    let src = "\
pub fn f() -> std::time::Instant {
    // lint:allow(panic-freedom) wrong rule: does not cover the time read.
    std::time::Instant::now()
}
";
    let d = lint(LIB, src);
    // determinism-time (and both lines' std-time mentions) still fire;
    // the marker is unused, hence flagged. Sorted by line: std-time on
    // line 1, the marker on line 2, std-time + time on line 3.
    assert_eq!(
        fired(&d),
        [
            "determinism-std-time",
            MARKER_RULE,
            "determinism-std-time",
            "determinism-time",
        ]
    );
}

// ------------------------------------------------------- rule toggling

#[test]
fn only_selected_rules_run() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 { o.unwrap() }
pub fn g() -> std::time::Instant { std::time::Instant::now() }
";
    let cfg = LintConfig::only(["determinism-time"]).unwrap();
    let d = lint_file(LIB, src, &cfg);
    assert_eq!(fired(&d), ["determinism-time"]);
}

#[test]
fn disabled_rule_does_not_fire() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let mut cfg = LintConfig::all();
    cfg.disable("panic-freedom").unwrap();
    assert!(lint_file(LIB, src, &cfg).is_empty());
}

#[test]
fn unknown_rule_names_rejected_by_config() {
    assert!(LintConfig::only(["no-such-rule"]).is_err());
    assert!(LintConfig::all().disable("no-such-rule").is_err());
}

#[test]
fn every_declared_rule_is_exercised_by_these_fixtures() {
    // Meta-check: the fixture set above demonstrates each rule firing at
    // least once, so no rule can silently go dead.
    let fixtures: &[(&str, &str)] = &[
        (LIB, "pub fn f(p: *mut u8) { unsafe { *p = 0; } }\n"),
        (LIB, "use std::collections::HashMap;\n"),
        (LIB, "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n"),
        (LIB, "pub fn f() -> bool { std::env::var(\"X\").is_ok() }\n"),
        (
            LIB,
            "pub fn f() -> usize { std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1) }\n",
        ),
        (LIB, "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n"),
        ("crates/tensor/src/fixture.rs", "pub fn undocd() {}\n"),
        (REG, REG_SRC),
        (
            LIB,
            "pub struct W(*mut u8);\nunsafe impl Send for W {}\n",
        ),
    ];
    let mut seen: std::collections::BTreeSet<String> = Default::default();
    for (path, src) in fixtures {
        for d in lint(path, src) {
            seen.insert(d.rule);
        }
    }
    for rule in ALL_RULES {
        assert!(seen.contains(*rule), "rule '{rule}' never fired");
    }
}

// ----------------------------------- suppression scanning is lexer-aware

#[test]
fn marker_inside_a_string_literal_does_not_suppress() {
    // The marker text sits on the SAME line as the violation, but
    // inside a string literal — a text-scanning suppressor would be
    // fooled; the lexer-aware one must not be.
    let src = "\
pub fn f(o: Option<u32>) -> (u32, &'static str) {
    (o.unwrap(), \"// lint:allow(panic-freedom) not a real marker\")
}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["panic-freedom"]);
}

#[test]
fn marker_inside_a_doc_comment_does_not_suppress() {
    let src = "\
/// To silence this, write `// lint:allow(panic-freedom) reason here`.
pub fn f(o: Option<u32>) -> u32 {
    o.unwrap()
}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["panic-freedom"]);
}

// ------------------------------------------------------ whole workspace

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

#[test]
fn real_workspace_is_clean() {
    // The repo must satisfy its own gates: zero diagnostics end to end.
    let run = lint_workspace(&workspace_root(), &LintConfig::all()).expect("workspace read");
    assert!(
        run.diags.is_empty(),
        "workspace has lint findings:\n{}",
        run.diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn full_workspace_run_fits_the_time_budget() {
    // Every source file is lexed exactly once and shared by all rules;
    // a full-workspace pass must stay interactive. The budget is far
    // above the measured debug-profile time, so it only trips on
    // structural regressions (re-lexing per rule, a quadratic
    // cross-file pass), not on CI jitter.
    let root = workspace_root();
    let started = std::time::Instant::now();
    let run = lint_workspace(&root, &LintConfig::all()).expect("workspace read");
    let elapsed = started.elapsed();
    assert!(
        run.files >= 100,
        "expected a real workspace, saw {} files",
        run.files
    );
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "full-workspace lint took {elapsed:?} over {} files — the shared \
         lex budget regressed",
        run.files
    );
}

#[test]
fn workspace_findings_are_byte_stable_across_runs() {
    // Two consecutive runs over the same tree must agree exactly —
    // this is what lets CI archive and diff the JSON artifact.
    let root = workspace_root();
    let a = lint_workspace(&root, &LintConfig::all()).expect("workspace read");
    let b = lint_workspace(&root, &LintConfig::all()).expect("workspace read");
    assert_eq!(a.files, b.files);
    let render =
        |r: &fedwcm_lint::LintRun| r.diags.iter().map(|d| d.to_string()).collect::<Vec<_>>();
    assert_eq!(render(&a), render(&b));
}

#[test]
fn transport_crate_is_fully_gated_not_blessed() {
    // The wire transport carries checksums and byte counters, so it
    // must sit inside every gate: the panic-freedom/determinism set
    // (LIB_CRATES) and the rustdoc requirement (DOC_CRATES) — with no
    // blanket blessing letting its CRC or counter code skip them. (Its
    // casts and counter arithmetic are denied clippy lints in the crate
    // itself: `crates/transport/src/lib.rs`, `courier.rs`.)
    use fedwcm_lint::{BLESSINGS, DOC_CRATES, LIB_CRATES};
    assert!(
        LIB_CRATES.contains(&"transport"),
        "transport must be a gated library crate"
    );
    assert!(
        DOC_CRATES.contains(&"transport"),
        "transport's public API must require rustdoc"
    );
    for b in BLESSINGS {
        assert!(
            !b.path.starts_with("crates/transport/"),
            "transport file `{}` must not be blessed for `{}`",
            b.path,
            b.rule
        );
    }

    // The gates are live in the crate, not just listed.
    let d = lint(
        "crates/transport/src/fixture.rs",
        "pub fn f(x: Option<u64>) -> u64 { x.unwrap() }\n",
    );
    assert!(
        fired(&d).contains(&"panic-freedom") && fired(&d).contains(&"doc-coverage"),
        "panic-freedom and doc-coverage must cover crates/transport, fired: {:?}",
        fired(&d)
    );
}

#[test]
fn obs_crate_is_fully_gated_not_blessed() {
    // The trace analyzer is the thing CI trusts to gate performance
    // regressions, so it gets no special treatment: full panic-freedom
    // and determinism (LIB_CRATES), rustdoc on every public item
    // (DOC_CRATES) — and zero blessed entries anywhere under its path.
    use fedwcm_lint::{BLESSINGS, DOC_CRATES, LIB_CRATES};
    assert!(
        LIB_CRATES.contains(&"obs"),
        "obs must be a gated library crate"
    );
    assert!(
        DOC_CRATES.contains(&"obs"),
        "obs's public API must require rustdoc"
    );
    for b in BLESSINGS {
        assert!(
            !b.path.starts_with("crates/obs/"),
            "obs file `{}` must not be blessed for `{}`",
            b.path,
            b.rule
        );
    }

    // The rule families are live in the crate, not just listed: an
    // unwrap under the obs path fires.
    let d = lint(
        "crates/obs/src/fixture.rs",
        "pub fn f(x: Option<u64>) -> u64 { x.unwrap() }\n",
    );
    assert!(
        fired(&d).contains(&"panic-freedom"),
        "panic-freedom must cover crates/obs, fired: {:?}",
        fired(&d)
    );
}

#[test]
fn cadence_event_loop_files_are_not_blessed() {
    // The event-driven cadence core must live under the full
    // determinism gates: no file of it may ever land on the blessing
    // table, which would let wall-clock or environment reads creep
    // into the aggregation path unnoticed.
    use fedwcm_lint::BLESSINGS;
    // The engine is a directory of stage files: read it, so a stage
    // added later is under the gates the day it lands.
    let root = workspace_root();
    let mut files = vec![
        "crates/fl/src/cadence.rs".to_string(),
        "crates/fl/src/checkpoint.rs".to_string(),
        "crates/fl/src/observe.rs".to_string(),
    ];
    let engine_dir = "crates/fl/src/engine";
    for entry in std::fs::read_dir(root.join(engine_dir)).expect("engine directory readable") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_str().expect("UTF-8 file name");
        if name.ends_with(".rs") {
            files.push(format!("{engine_dir}/{name}"));
        }
    }
    files.sort();
    assert!(
        files.len() >= 10 && files.iter().any(|f| f.ends_with("engine/mod.rs")),
        "engine stage files not found: {files:?}"
    );
    for f in &files {
        assert!(
            BLESSINGS.iter().all(|b| b.path != f),
            "{f} must not appear in the blessing table"
        );
    }

    // And the real files pass the determinism family outright: no
    // std::time, no environment reads, no iteration-order-dependent
    // collections, no ad-hoc thread counts.
    let cfg = LintConfig::only([
        "determinism-collections",
        "determinism-time",
        "determinism-std-time",
        "determinism-env",
        "determinism-threads",
    ])
    .expect("known rules");
    for f in &files {
        let src = std::fs::read_to_string(root.join(f)).expect("source readable");
        let d = lint_file(f, &src, &cfg);
        assert!(
            d.is_empty(),
            "{f} has determinism findings:\n{}",
            d.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Only the named rule's findings, in output order.
fn fired_only<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

// ---------------------------------------------------- metrics-registry

// That a producer passes a registered name is a type now
// (`fedwcm_trace::names::Name`; the literal, the typo'd constant and the
// prefix-baking `format!` are `compile_fail` doctests in `fedwcm-trace`).
// What stays here is the entry nothing uses.

const REG: &str = "crates/trace/src/names.rs";
const REG_SRC: &str = "\
names! {
    /// Span: one federated round.
    ROUND = \"round\";
    /// Gauge prefix: per-class accuracy.
    FL_ACC_CLASS_PREFIX = \"fl.acc.class.\";
}
";

#[test]
fn dead_registry_entry_fires() {
    // ROUND is referenced, FL_ACC_CLASS_PREFIX is not → dead taxonomy.
    let user = "pub fn emit(t: &Tracer) { t.span(Name::ROUND, vec![]); }\n";
    let d = lint_many(&[(REG, REG_SRC), (LIB, user)]);
    let m = fired_only(&d, "metrics-registry");
    assert_eq!(m.len(), 1);
    assert_eq!((m[0].path.as_str(), m[0].line), (REG, 5));
    assert!(
        m[0].message
            .contains("`FL_ACC_CLASS_PREFIX` is referenced by no code"),
        "{}",
        m[0].message
    );
}

#[test]
fn referenced_entries_pass_as_producer_name_or_reader_string() {
    let user = "\
pub fn emit(t: &Tracer) { t.span(Name::ROUND, vec![]); }
pub fn read(snap: &MetricsSnapshot) -> bool { snap.get(names::FL_ACC_CLASS_PREFIX).is_some() }
";
    let d = lint_many(&[(REG, REG_SRC), (LIB, user)]);
    assert!(fired_only(&d, "metrics-registry").is_empty());
}

#[test]
fn a_mention_in_a_comment_or_string_is_not_a_use() {
    let user = "\
// FL_ACC_CLASS_PREFIX is mentioned here only in prose.
pub fn emit(t: &Tracer) -> &'static str { t.span(Name::ROUND, vec![]); \"FL_ACC_CLASS_PREFIX\" }
";
    let d = lint_many(&[(REG, REG_SRC), (LIB, user)]);
    assert_eq!(fired_only(&d, "metrics-registry").len(), 1);
}

// ------------------------------------ parallel-escape-send-sync (conc.)

#[test]
fn send_sync_without_safety_comment_fires_both_rules() {
    let src = "\
pub struct W(*mut u8);
unsafe impl Send for W {}
";
    let d = lint(LIB, src);
    let mut rules = fired(&d);
    rules.sort_unstable();
    assert_eq!(rules, ["parallel-escape-send-sync", "unsafe-safety"]);
}

#[test]
fn send_sync_safety_without_disjointness_argument_fires() {
    // A SAFETY comment exists (unsafe-safety passes) but says nothing
    // about which owner touches which region.
    let src = "\
pub struct W(*mut u8);
// SAFETY: this wrapper is carefully used, trust the caller.
unsafe impl Sync for W {}
";
    let d = lint(LIB, src);
    assert_eq!(fired(&d), ["parallel-escape-send-sync"]);
    assert!(d[0].message.contains("disjointness"), "{}", d[0].message);
}

#[test]
fn send_sync_safety_with_disjointness_argument_passes() {
    let src = "\
pub struct W(*mut u8);
// SAFETY: participants write pairwise-disjoint ranges; exactly one
// writer touches any element before the join publishes them.
unsafe impl Sync for W {}
";
    assert!(lint(LIB, src).is_empty());
}

#[test]
fn non_send_sync_unsafe_impl_is_exempt_from_disjointness() {
    // Other unsafe impls still need a SAFETY comment (unsafe-safety),
    // but the disjointness-vocabulary requirement is Send/Sync-only.
    let src = "\
pub struct W(*mut u8);
// SAFETY: the trait contract only requires a stable address.
unsafe impl Widget for W {}
";
    assert!(lint(LIB, src).is_empty());
}

// ------------------------------------------------- taxonomy governance

#[test]
fn rule_info_matches_all_rules_in_order() {
    use fedwcm_lint::RULE_INFO;
    let ids: Vec<&str> = RULE_INFO.iter().map(|r| r.id).collect();
    assert_eq!(ids, ALL_RULES, "RULE_INFO must list ALL_RULES in order");
    for r in RULE_INFO {
        assert!(!r.family.is_empty(), "{}: empty family", r.id);
        assert_eq!(r.severity, "error", "{}: all rules are hard gates", r.id);
        assert!(
            !r.escape.is_empty(),
            "{}: every rule documents its escape hatch",
            r.id
        );
    }
}

#[test]
fn blessed_paths_exist_on_disk() {
    use fedwcm_lint::BLESSINGS;
    let root = workspace_root();
    for b in BLESSINGS {
        assert!(
            root.join(b.path).is_file(),
            "blessing for `{}` points at `{}`, which does not exist — \
             renaming a module must retire or update its blessing",
            b.rule,
            b.path
        );
        assert!(
            ALL_RULES.contains(&b.rule),
            "blessing names unknown rule `{}`",
            b.rule
        );
        assert!(
            !b.why.is_empty(),
            "blessing for `{}` needs a rationale",
            b.path
        );
    }
}

#[test]
fn taxonomy_is_documented() {
    // DESIGN.md §9 and the README rule table must mention every rule id
    // — `--rules` output, docs, and the engine cannot drift apart.
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    for rule in ALL_RULES {
        assert!(
            design.contains(rule),
            "DESIGN.md does not mention rule `{rule}`"
        );
        assert!(
            readme.contains(rule),
            "README.md does not mention rule `{rule}`"
        );
    }
}
