//! Fixture tests: the rule demonstrated on known-good and known-bad
//! sources, plus the whole-workspace self-check.
//!
//! Fixtures are in-memory strings fed to `lint_sources` under invented
//! workspace-relative paths.

use fedwcm_lint::{lint_sources, lint_workspace, Diagnostic, LintConfig};

/// Lint a set of fixtures together, as one workspace for the
/// cross-file rule.
fn lint_many(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_sources(&sources)
}

/// A library-crate path.
const LIB: &str = "crates/algos/src/fixture.rs";

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
    // Every source file is scanned exactly once; a full-workspace pass
    // must stay interactive. The budget is far
    // above the measured debug-profile time, so it only trips on
    // structural regressions (re-scanning per entry, a quadratic
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
         scan budget regressed",
        run.files
    );
}

#[test]
fn workspace_findings_are_byte_stable_across_runs() {
    // Two consecutive runs over the same tree must agree exactly:
    // findings are sorted, never in directory or hash order.
    let root = workspace_root();
    let a = lint_workspace(&root, &LintConfig::all()).expect("workspace read");
    let b = lint_workspace(&root, &LintConfig::all()).expect("workspace read");
    assert_eq!(a.files, b.files);
    let render =
        |r: &fedwcm_lint::LintRun| r.diags.iter().map(|d| d.to_string()).collect::<Vec<_>>();
    assert_eq!(render(&a), render(&b));
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
    let m = lint_many(&[(REG, REG_SRC), (LIB, user)]);
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].rule, "metrics-registry");
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
    assert!(lint_many(&[(REG, REG_SRC), (LIB, user)]).is_empty());
}

#[test]
fn a_mention_in_a_comment_or_string_is_not_a_use() {
    let user = "\
// FL_ACC_CLASS_PREFIX is mentioned here only in prose.
pub fn emit(t: &Tracer) -> &'static str { t.span(Name::ROUND, vec![]); \"FL_ACC_CLASS_PREFIX\" }
";
    assert_eq!(lint_many(&[(REG, REG_SRC), (LIB, user)]).len(), 1);
}

// ------------------------------------------------ literal forms skipped

/// The registry lines the rule flags when `user` is the only other file
/// (`ROUND` is on line 3, `FL_ACC_CLASS_PREFIX` on line 5).
fn dead_lines(reg: &str, user: &str) -> Vec<usize> {
    lint_many(&[(REG, reg), (LIB, user)])
        .iter()
        .map(|d| d.line)
        .collect()
}

#[test]
fn a_raw_string_holding_a_quote_and_an_entry_name_is_not_a_use() {
    // Ending the literal at the inner `"` would read the name as a use;
    // never ending it would hide the real use of ROUND after it.
    let user = "let s = r#\"a \" before FL_ACC_CLASS_PREFIX\"#; emit(Name::ROUND);\n";
    assert_eq!(dead_lines(REG_SRC, user), [5]);
}

#[test]
fn byte_strings_and_an_escaped_byte_quote_are_literals() {
    let user = "let s = b\"\\\" FL_ACC_CLASS_PREFIX\"; let q = b'\\''; emit(Name::ROUND);\n";
    assert_eq!(dead_lines(REG_SRC, user), [5]);
}

#[test]
fn a_double_quote_char_does_not_open_a_string() {
    let user = "let q = '\"'; emit(Name::ROUND); let s = \"FL_ACC_CLASS_PREFIX\";\n";
    assert_eq!(dead_lines(REG_SRC, user), [5]);
}

#[test]
fn a_nested_block_comment_ends_at_its_own_close() {
    let user =
        "/* outer /* FL_ACC_CLASS_PREFIX */ still FL_ACC_CLASS_PREFIX */ emit(Name::ROUND);\n";
    assert_eq!(dead_lines(REG_SRC, user), [5]);
}

#[test]
fn a_lifetime_does_not_open_a_char_literal() {
    let user = "\
fn emit<'a>(t: &'a Tracer) -> &'a Name { t.span(Name::ROUND); &FL_ACC_CLASS_PREFIX }
";
    assert!(dead_lines(REG_SRC, user).is_empty());
}

#[test]
fn a_raw_identifier_is_a_use_not_a_raw_string() {
    // `r#` before a word is a raw identifier: it must not swallow the
    // source up to some later `"#`, in the table or in the user.
    let reg = REG_SRC.replace("ROUND =", "r#ROUND =");
    let user = "emit(Name::r#ROUND); let s = \"FL_ACC_CLASS_PREFIX\"; let t = \"#\";\n";
    assert_eq!(dead_lines(&reg, user), [5]);
}
