//! The rule engine: file context and the workspace walk.
//!
//! The rule has no suppression: a dead registry entry is removed or
//! wired up.

use crate::lexer::{lex, Tok};
use crate::rules;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the engine knows, in reporting order.
pub const ALL_RULES: &[&str] = &["metrics-registry"];

/// One row of the rule taxonomy printed by `fedwcm-lint --rules`.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id (kebab-case, an [`ALL_RULES`] entry).
    pub id: &'static str,
    /// Family: `protocol` (names checked against a registry).
    pub family: &'static str,
    /// Severity — a hard CI gate.
    pub severity: &'static str,
    /// What a finding asks for (there is no suppression).
    pub escape: &'static str,
}

/// The taxonomy, one row per [`ALL_RULES`] entry in the same order
/// (tested in the fixtures crate, and synced against DESIGN.md §9 and
/// the README rule table by the doc-sync test).
pub const RULE_INFO: &[RuleInfo] = &[RuleInfo {
    id: "metrics-registry",
    family: "protocol",
    severity: "error",
    escape: "use the entry of crates/trace/src/names.rs, or remove it",
}];

/// One finding, pointing at a workspace-relative path and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (`crates/fl/src/engine.rs`).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (kebab-case, from [`ALL_RULES`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which rules run: the one there is. The type carries no choice any more;
/// it stays because the frozen `flbench` package calls
/// `lint_workspace(&root, &LintConfig::all())`.
#[derive(Clone, Debug, Default)]
pub struct LintConfig;

impl LintConfig {
    /// All rules enabled.
    pub fn all() -> Self {
        Self
    }
}

/// Everything the rules need to know about one source file.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens (pattern matching runs
    /// over these so comments never split a match).
    pub code: Vec<usize>,
}

impl FileCtx {
    /// Lex and analyse one file given as in-memory text.
    pub fn new(path: &str, src: &str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();

        FileCtx {
            path: path.to_string(),
            toks,
            code,
        }
    }

    /// Build a diagnostic against this file.
    pub fn diag(&self, rule: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            path: self.path.clone(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

/// Lint a set of in-memory sources as one workspace: every file is
/// lexed exactly once and the cross-file pass (dead registry entries)
/// runs over all of them together. Findings come back sorted by path,
/// line, rule.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx> = sources
        .iter()
        .map(|(path, src)| FileCtx::new(path, src))
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    rules::check_metrics_registry(&ctxs, &mut diags);
    diags.sort();
    diags
}

/// Recursively collect `*.rs` files under `dir`, sorted for
/// deterministic output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The result of a full-workspace lint run.
pub struct LintRun {
    /// Diagnostics sorted by path, line, rule.
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files visited (each lexed once).
    pub files: usize,
}

/// Lint every `crates/*/src/**/*.rs` under the workspace `root` —
/// one directory walk and one lex per file.
pub fn lint_workspace(root: &Path, _cfg: &LintConfig) -> std::io::Result<LintRun> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }

    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(f)?));
    }
    Ok(LintRun {
        diags: lint_sources(&sources),
        files: sources.len(),
    })
}
