//! The rule engine: file context, suppression markers, test-region
//! masking, and the workspace walk.
//!
//! # Suppression markers
//!
//! A diagnostic is suppressed by a scoped marker comment:
//!
//! ```text
//! // lint:allow(panic-freedom) reaching here without prepare() is a bug
//! .expect("FedWCM used before prepare/aggregate")
//! ```
//!
//! The marker names exactly one rule and **must** carry a reason (at
//! least two words after the closing parenthesis). It applies to its
//! own line when it trails code, otherwise to the next line containing
//! code. Markers with a missing reason, an unknown rule name, or no
//! suppressed diagnostic on their target line are themselves hard
//! errors (`lint-marker`) that cannot be suppressed — CI therefore
//! fails on any new reasonless marker automatically.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the engine knows, in reporting order.
pub const ALL_RULES: &[&str] = &[
    "unsafe-safety",
    "determinism-collections",
    "determinism-time",
    "determinism-std-time",
    "determinism-env",
    "determinism-threads",
    "panic-freedom",
    "doc-coverage",
    "metrics-registry",
    "parallel-escape-send-sync",
];

/// One row of the rule taxonomy printed by `fedwcm-lint --rules`.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id (kebab-case, an [`ALL_RULES`] entry).
    pub id: &'static str,
    /// Family: `safety`, `determinism`, `robustness`, `docs`,
    /// `protocol` (names checked against a registry), or `concurrency`
    /// (the static half of the `race_check` soundness story).
    pub family: &'static str,
    /// Severity — every family is a hard CI gate today.
    pub severity: &'static str,
    /// The legitimate escape hatch, if any.
    pub escape: &'static str,
}

/// The taxonomy, one row per [`ALL_RULES`] entry in the same order
/// (tested in the fixtures crate, and synced against DESIGN.md §9 and
/// the README rule table by the doc-sync test).
pub const RULE_INFO: &[RuleInfo] = &[
    RuleInfo {
        id: "unsafe-safety",
        family: "safety",
        severity: "error",
        escape: "write the `// SAFETY:` comment the rule asks for",
    },
    RuleInfo {
        id: "determinism-collections",
        family: "determinism",
        severity: "error",
        escape: "lint:allow(determinism-collections) <reason>",
    },
    RuleInfo {
        id: "determinism-time",
        family: "determinism",
        severity: "error",
        escape: "lint:allow(determinism-time) <reason>",
    },
    RuleInfo {
        id: "determinism-std-time",
        family: "determinism",
        severity: "error",
        escape: "blessed-file table in rules::BLESSINGS",
    },
    RuleInfo {
        id: "determinism-env",
        family: "determinism",
        severity: "error",
        escape: "blessed-file table in rules::BLESSINGS",
    },
    RuleInfo {
        id: "determinism-threads",
        family: "determinism",
        severity: "error",
        escape: "only the `parallel` crate may probe parallelism",
    },
    RuleInfo {
        id: "panic-freedom",
        family: "robustness",
        severity: "error",
        escape: "lint:allow(panic-freedom) <reason>",
    },
    RuleInfo {
        id: "doc-coverage",
        family: "docs",
        severity: "error",
        escape: "document the item (no suppression in DOC_CRATES)",
    },
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

/// Pseudo-rule for invalid suppression markers; never suppressible.
pub const MARKER_RULE: &str = "lint-marker";

/// Library crates (by `crates/<dir>` name) holding deterministic,
/// panic-free simulation code. The determinism and panic-freedom
/// families apply only here — binaries, benches, and dev tools
/// (`experiments`, `bench`, the shims, this linter) are exempt.
pub const LIB_CRATES: &[&str] = &[
    "tensor",
    "nn",
    "fl",
    "core",
    "algos",
    "data",
    "he",
    "longtail",
    "stats",
    "parallel",
    "analysis",
    "faults",
    "trace",
    "transport",
    "obs",
];

/// Crates whose public items must carry rustdoc.
pub const DOC_CRATES: &[&str] = &[
    "tensor",
    "fl",
    "core",
    "parallel",
    "faults",
    "trace",
    "transport",
    "obs",
];

/// Crate allowed to call `thread::available_parallelism`.
pub const THREADS_BLESSED_CRATE: &str = "parallel";

/// One finding, pointing at a workspace-relative path and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (`crates/fl/src/engine.rs`).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (kebab-case, from [`ALL_RULES`] or [`MARKER_RULE`]).
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

/// Which rules run. Defaults to all of them.
#[derive(Clone, Debug)]
pub struct LintConfig {
    enabled: BTreeSet<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            enabled: ALL_RULES.iter().map(|r| r.to_string()).collect(),
        }
    }
}

impl LintConfig {
    /// All rules enabled.
    pub fn all() -> Self {
        Self::default()
    }

    /// Only the named rules enabled. Unknown names are rejected.
    pub fn only<'a>(rules: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut cfg = LintConfig {
            enabled: BTreeSet::new(),
        };
        for r in rules {
            if !ALL_RULES.contains(&r) {
                return Err(format!("unknown rule '{r}'"));
            }
            cfg.enabled.insert(r.to_string());
        }
        Ok(cfg)
    }

    /// Disable one rule. Unknown names are rejected.
    pub fn disable(&mut self, rule: &str) -> Result<(), String> {
        if !ALL_RULES.contains(&rule) {
            return Err(format!("unknown rule '{rule}'"));
        }
        self.enabled.remove(rule);
        Ok(())
    }

    /// Is `rule` enabled?
    pub fn is_enabled(&self, rule: &str) -> bool {
        self.enabled.contains(rule)
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

/// A parsed suppression marker.
#[derive(Clone, Debug)]
struct Suppression {
    rule: String,
    /// Line whose diagnostics it suppresses.
    target_line: usize,
    /// Line the marker comment itself sits on.
    marker_line: usize,
    used: bool,
}

/// Everything the rules need to know about one source file.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// `crates/<name>/…` directory name, when the file is in a crate.
    pub crate_name: Option<String>,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens (pattern matching runs
    /// over these so comments never split a match).
    pub code: Vec<usize>,
    /// Per-line facts, 1-based (`lines[0]` unused).
    pub lines: Vec<LineInfo>,
    /// `true` for every line inside `#[cfg(test)]` / `#[test]` items.
    pub test_lines: Vec<bool>,
    suppressions: Vec<Suppression>,
    marker_errors: Vec<Diagnostic>,
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

        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(|s| s.to_string());

        let test_lines = test_line_mask(&toks, &code, nlines);
        let (suppressions, marker_errors) = parse_suppressions(path, &toks, &lines, nlines);

        FileCtx {
            path: path.to_string(),
            crate_name,
            toks,
            code,
            lines,
            test_lines,
            suppressions,
            marker_errors,
        }
    }

    /// True when the file belongs to the named crate directory.
    pub fn in_crate(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }

    /// True when the file belongs to one of the library crates.
    pub fn is_lib_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| LIB_CRATES.contains(&c))
    }

    /// True when `line` is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
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

/// Mark every line covered by a `#[cfg(test)]` or `#[test]` item.
fn test_line_mask(toks: &[Tok], code: &[usize], nlines: usize) -> Vec<bool> {
    let mut mask = vec![false; nlines + 2];
    let mut k = 0;
    while k + 1 < code.len() {
        let t = &toks[code[k]];
        if t.is_punct('#') && toks[code[k + 1]].is_punct('[') {
            // Collect the attribute's identifiers up to the matching `]`.
            let mut depth = 1usize;
            let mut j = k + 2;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                let tj = &toks[code[j]];
                match tj.kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    TokKind::Ident => idents.push(&tj.text),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = idents.as_slice() == ["test"]
                || (idents.first() == Some(&"cfg")
                    && idents.contains(&"test")
                    && !idents.contains(&"not"));
            if is_test_attr {
                // Skip further attributes/doc comments, then span the item:
                // from the attribute line to the item's closing `}` (or `;`).
                let start_line = t.line;
                let mut m = j;
                while m + 1 < code.len()
                    && toks[code[m]].is_punct('#')
                    && toks[code[m + 1]].is_punct('[')
                {
                    let mut d = 1usize;
                    let mut n = m + 2;
                    while n < code.len() && d > 0 {
                        match toks[code[n]].kind {
                            TokKind::Punct('[') => d += 1,
                            TokKind::Punct(']') => d -= 1,
                            _ => {}
                        }
                        n += 1;
                    }
                    m = n;
                }
                // Find the body's `{` (or a `;` ending a braceless item).
                let mut end_line = start_line;
                while m < code.len() {
                    let tm = &toks[code[m]];
                    if tm.is_punct(';') {
                        end_line = tm.line;
                        break;
                    }
                    if tm.is_punct('{') {
                        let mut d = 1usize;
                        let mut n = m + 1;
                        while n < code.len() && d > 0 {
                            match toks[code[n]].kind {
                                TokKind::Punct('{') => d += 1,
                                TokKind::Punct('}') => d -= 1,
                                _ => {}
                            }
                            if d == 0 {
                                end_line = toks[code[n]].end_line;
                            }
                            n += 1;
                        }
                        if d > 0 {
                            end_line = nlines;
                        }
                        break;
                    }
                    end_line = tm.end_line;
                    m += 1;
                }
                mask[start_line..=end_line.min(nlines)].fill(true);
            }
        }
        k += 1;
    }
    mask
}

/// Extract suppression markers from plain (non-doc) comment tokens.
/// Doc comments are prose *about* the marker syntax, never markers
/// themselves — the linter's own documentation depends on this.
fn parse_suppressions(
    path: &str,
    toks: &[Tok],
    lines: &[LineInfo],
    nlines: usize,
) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut errors = Vec::new();
    for t in toks {
        if !t.is_comment() || t.is_doc_comment() {
            continue;
        }
        let Some(pos) = t.text.find("lint:allow") else {
            continue;
        };
        let after = &t.text[pos + "lint:allow".len()..];
        let mut err = |msg: String| {
            errors.push(Diagnostic {
                path: path.to_string(),
                line: t.line,
                rule: MARKER_RULE.to_string(),
                message: msg,
            });
        };
        let Some(rest) = after.strip_prefix('(') else {
            err("malformed suppression: expected 'lint:allow(<rule>) reason…'".to_string());
            continue;
        };
        let Some(close) = rest.find(')') else {
            err("malformed suppression: missing ')' after rule name".to_string());
            continue;
        };
        let rule = rest[..close].trim();
        let reason = rest[close + 1..].trim();
        if !ALL_RULES.contains(&rule) {
            err(format!(
                "suppression names unknown rule '{rule}' (known: {})",
                ALL_RULES.join(", ")
            ));
            continue;
        }
        if reason.split_whitespace().count() < 2 {
            err(format!(
                "suppression of '{rule}' lacks a reason — markers must read \
                 'lint:allow({rule}) <why this is sound>'"
            ));
            continue;
        }
        // Scope: the marker's own line when it trails code, otherwise the
        // next line that contains code.
        let target_line = if lines[t.line].has_code {
            t.line
        } else {
            let mut ln = t.end_line + 1;
            while ln <= nlines && !lines[ln].has_code {
                ln += 1;
            }
            ln
        };
        sups.push(Suppression {
            rule: rule.to_string(),
            target_line,
            marker_line: t.line,
            used: false,
        });
    }
    (sups, errors)
}

/// Lint a set of in-memory sources as one workspace: every file is
/// lexed exactly once, the per-file rules run over each [`FileCtx`],
/// the cross-file pass (dead registry entries) runs over all of them
/// together, and suppressions apply uniformly to both kinds of
/// findings.
pub fn lint_sources(sources: &[(String, String)], cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut ctxs: Vec<FileCtx> = sources
        .iter()
        .map(|(path, src)| FileCtx::new(path, src))
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for ctx in &ctxs {
        rules::run_all(ctx, cfg, &mut diags);
    }
    rules::run_workspace(&ctxs, cfg, &mut diags);

    // Apply suppressions; track which markers actually fired.
    let by_path: std::collections::BTreeMap<String, usize> = ctxs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.path.clone(), i))
        .collect();
    let mut kept = Vec::with_capacity(diags.len());
    for d in diags {
        let mut suppressed = false;
        if let Some(&i) = by_path.get(&d.path) {
            for s in ctxs[i].suppressions.iter_mut() {
                if s.rule == d.rule && s.target_line == d.line {
                    s.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }
    // Markers that suppressed nothing are dead weight and likely typos —
    // but only when their rule actually ran this pass.
    for ctx in &mut ctxs {
        for s in &ctx.suppressions {
            if !s.used && cfg.is_enabled(&s.rule) {
                kept.push(Diagnostic {
                    path: ctx.path.clone(),
                    line: s.marker_line,
                    rule: MARKER_RULE.to_string(),
                    message: format!(
                        "suppression of '{}' matches no diagnostic on line {} — remove it",
                        s.rule, s.target_line
                    ),
                });
            }
        }
        kept.append(&mut ctx.marker_errors);
    }
    kept.sort();
    kept
}

/// Lint a single file given as in-memory text. `path` is the
/// workspace-relative path used for crate attribution and reporting.
/// The cross-file rules still run, scoped to this one file.
pub fn lint_file(path: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_sources(&[(path.to_string(), src.to_string())], cfg)
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
/// one directory walk and one lex per file, shared by all rules and
/// the cross-file pass.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<LintRun> {
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
        diags: lint_sources(&sources, cfg),
        files: sources.len(),
    })
}
