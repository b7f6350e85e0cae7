//! The rule engine: file context and the workspace walk.
//!
//! Neither rule has a suppression: a dead registry entry is removed or
//! wired up, and an `unsafe impl Send`/`Sync` states its argument.

use crate::lexer::{lex, Tok};
use crate::rules;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the engine knows, in reporting order.
pub const ALL_RULES: &[&str] = &["metrics-registry", "parallel-escape-send-sync"];

/// One row of the rule taxonomy printed by `fedwcm-lint --rules`.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id (kebab-case, an [`ALL_RULES`] entry).
    pub id: &'static str,
    /// Family: `protocol` (names checked against a registry) or
    /// `concurrency` (the static half of the `race_check` soundness
    /// story).
    pub family: &'static str,
    /// Severity — both are hard CI gates.
    pub severity: &'static str,
    /// What a finding asks for (there is no suppression).
    pub escape: &'static str,
}

/// The taxonomy, one row per [`ALL_RULES`] entry in the same order
/// (tested in the fixtures crate, and synced against DESIGN.md §9 and
/// the README rule table by the doc-sync test).
pub const RULE_INFO: &[RuleInfo] = &[
    RuleInfo {
        id: "metrics-registry",
        family: "protocol",
        severity: "error",
        escape: "use the entry of crates/trace/src/names.rs, or remove it",
    },
    RuleInfo {
        id: "parallel-escape-send-sync",
        family: "concurrency",
        severity: "error",
        escape: "state the disjointness argument in the `// SAFETY:` comment",
    },
];

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

/// Which rules run: both, always. The type carries no choice any more;
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

/// Per-line facts derived from the token stream.
#[derive(Clone, Debug, Default)]
pub struct LineInfo {
    /// Line holds at least one non-comment token.
    pub has_code: bool,
    /// Line holds (part of) a comment.
    pub has_comment: bool,
    /// Concatenated text of comments touching this line.
    pub comment_text: String,
    /// First non-comment token on the line is `#` (attribute line).
    pub starts_attr: bool,
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
    /// Per-line facts, 1-based (`lines[0]` unused).
    pub lines: Vec<LineInfo>,
}

impl FileCtx {
    /// Lex and analyse one file given as in-memory text.
    pub fn new(path: &str, src: &str) -> Self {
        let toks = lex(src);
        let nlines = src.lines().count().max(1);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();

        let mut lines = vec![LineInfo::default(); nlines + 2];
        for t in &toks {
            let span = &mut lines[t.line..=t.end_line.min(nlines)];
            if t.is_comment() {
                for info in span {
                    info.has_comment = true;
                    info.comment_text.push_str(&t.text);
                    info.comment_text.push(' ');
                }
            } else {
                for info in span {
                    if !info.has_code {
                        info.starts_attr = t.is_punct('#');
                    }
                    info.has_code = true;
                }
            }
        }

        FileCtx {
            path: path.to_string(),
            toks,
            code,
            lines,
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
/// lexed exactly once, the per-file rule runs over each [`FileCtx`] and
/// the cross-file pass (dead registry entries) over all of them
/// together. Findings come back sorted by path, line, rule.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx> = sources
        .iter()
        .map(|(path, src)| FileCtx::new(path, src))
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for ctx in &ctxs {
        rules::check_send_sync_safety(ctx, &mut diags);
    }
    rules::check_metrics_registry(&ctxs, &mut diags);
    diags.sort();
    diags
}

/// Lint a single file given as in-memory text. `path` is the
/// workspace-relative path used for reporting. The cross-file rule
/// still runs, scoped to this one file.
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path.to_string(), src.to_string())])
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
/// one directory walk and one lex per file, shared by both rules.
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
