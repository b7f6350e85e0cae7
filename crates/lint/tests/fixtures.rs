//! Fixture tests: the rule demonstrated on known-good and known-bad
//! sources, plus the whole-workspace self-check.
//!
//! Fixtures are in-memory strings fed to `lint_sources` under invented
//! workspace-relative paths.

use fedwcm_lint::{lint_sources, lint_workspace, Diagnostic, LintConfig, ALL_RULES};

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
    // Every source file is lexed exactly once; a full-workspace pass
    // must stay interactive. The budget is far
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
            "{}: every rule says what a finding asks for",
            r.id
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
