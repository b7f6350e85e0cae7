//! `fedwcm-lint` — the one workspace check no compiler or clippy lint
//! states: no entry of the `fedwcm_trace::names` table is dead.
//!
//! That a producer passes a registered name is a type
//! (`fedwcm_trace::names::Name`, which only the `names!` table can make).
//! What no type carries is the other direction: an entry that nothing
//! uses, which hides which telemetry actually exists. A `names.rs` entry
//! is the token run `WORD = LIT ;`, and it is dead when no other file has
//! that word. The check has no suppression: a dead entry is removed or
//! wired up. `cargo test -p fedwcm-lint` runs it over `crates/*/src`
//! (`real_workspace_is_clean`).
//!
//! Nothing is parsed. The scanner yields three kinds of code token
//! (words, literals, punctuation) and skips comments, so a name spelt in
//! a comment, a string or a char literal is never a use. Every other
//! static gate is a rustc or clippy lint (DESIGN.md §9).

use std::fmt;
use std::path::{Path, PathBuf};

/// The check's id in every [`Diagnostic`].
const RULE: &str = "metrics-registry";

/// Path suffix identifying the registry file.
const REGISTRY_PATH: &str = "trace/src/names.rs";

/// One finding, pointing at a workspace-relative path and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (`crates/trace/src/names.rs`).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Check id: `metrics-registry`.
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

/// Which checks run: the one there is. The type carries no choice; it
/// stays because the `flbench` package calls
/// `lint_workspace(&root, &LintConfig::all())`.
#[derive(Clone, Debug, Default)]
pub struct LintConfig;

impl LintConfig {
    /// The one check.
    pub fn all() -> Self {
        Self
    }
}

/// The result of a full-workspace run.
pub struct LintRun {
    /// Diagnostics sorted by path, line, rule.
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files read (each scanned once).
    pub files: usize,
}

/// A code token.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'s> {
    /// An identifier, keyword or number. A literal's `b` or `c` prefix is
    /// a word of its own, and the raw identifier `r#x` is `r`, `#`, `x`.
    Word(&'s str),
    /// A string, byte-string, raw-string, char or byte-char literal.
    Lit,
    /// One punctuation character; a lifetime `'a` is `'` then `a`.
    Punct(u8),
}

/// The code tokens of `src`, each with its 1-based line. Comments
/// (`//…`, nested `/* */`) yield none. Never fails: a literal or comment
/// left open runs to the end of the text.
fn tokens(src: &str) -> Vec<(Tok<'_>, usize)> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0);
    let is_word = |c: u8| c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80;
    // Just past the first `pat` at or after `from`, or the end.
    let past = |from: usize, pat: &[u8]| {
        let rest = b.get(from..).unwrap_or_default();
        let hit = rest.windows(pat.len()).position(|w| w == pat);
        hit.map_or(b.len(), |k| from + k + pat.len())
    };
    // Just past a `"…"` body starting at `i`, escapes skipped.
    let str_end = |mut i: usize| {
        while i < b.len() && b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    };
    // Just past the char literal opening at the quote `q`, or `None`
    // when `q` starts a lifetime.
    let char_end = |q: usize| {
        if at(q + 1) == b'\\' {
            return Some(past(q + 3, b"'"));
        }
        let n = src.get(q + 1..).and_then(|s| s.chars().next());
        let n = n.map_or(1, char::len_utf8);
        (at(q + 1 + n) == b'\'').then_some(q + 2 + n)
    };
    let block_end = |mut i: usize| {
        let mut depth = 0;
        while i < b.len() {
            match (b[i], at(i + 1)) {
                (b'/', b'*') => (depth, i) = (depth + 1, i + 2),
                (b'*', b'/') if depth == 1 => return i + 2,
                (b'*', b'/') => (depth, i) = (depth - 1, i + 2),
                _ => i += 1,
            }
        }
        i
    };

    let mut out = Vec::new();
    let (mut i, mut line, mut counted) = (0, 1, 0);
    while let Some(&c) = b.get(i) {
        let start = i;
        let tok = match c {
            b'/' if at(i + 1) == b'/' => {
                i = past(i, b"\n");
                continue;
            }
            b'/' if at(i + 1) == b'*' => {
                i = block_end(i);
                continue;
            }
            b'"' => {
                i = str_end(i + 1);
                Tok::Lit
            }
            b'\'' => match char_end(i) {
                Some(end) => {
                    i = end;
                    Tok::Lit
                }
                None => {
                    i += 1;
                    Tok::Punct(c)
                }
            },
            _ if is_word(c) => {
                let j = i + b[i..].iter().take_while(|&&c| is_word(c)).count();
                let word = &src[i..j];
                let hashes = b[j..].iter().take_while(|&&h| h == b'#').count();
                if matches!(word, "r" | "br" | "cr") && at(j + hashes) == b'"' {
                    let close = [&b"\""[..], &b"#".repeat(hashes)].concat();
                    i = past(j + hashes + 1, &close);
                    Tok::Lit
                } else {
                    i = j;
                    Tok::Word(word)
                }
            }
            _ if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            _ => {
                i += 1;
                Tok::Punct(c)
            }
        };
        line += b[counted..start].iter().filter(|&&c| c == b'\n').count();
        counted = start;
        out.push((tok, line));
    }
    out
}

/// Lint a set of in-memory `(path, source)` files as one workspace: every
/// file is scanned once, and each registry entry is looked up in all the
/// other files. Findings come back sorted by path, line, rule.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<_> = sources.iter().map(|(_, src)| tokens(src)).collect();
    let mut diags = Vec::new();
    for (fi, (path, _)) in sources.iter().enumerate() {
        if !path.ends_with(REGISTRY_PATH) {
            continue;
        }
        for entry in files[fi].windows(4) {
            let [(Tok::Word(name), line), (Tok::Punct(b'='), _), (Tok::Lit, _), (Tok::Punct(b';'), _)] =
                *entry
            else {
                continue;
            };
            let used = files
                .iter()
                .enumerate()
                .any(|(i, toks)| i != fi && toks.iter().any(|&(t, _)| t == Tok::Word(name)));
            if !used {
                diags.push(Diagnostic {
                    path: path.clone(),
                    line,
                    rule: RULE.to_string(),
                    message: format!(
                        "registry entry `{name}` is referenced by no code — dead taxonomy \
                         entries hide which telemetry actually exists; remove it or wire it up"
                    ),
                });
            }
        }
    }
    diags.sort();
    diags
}

/// Recursively collect `*.rs` files under `dir`, sorted for
/// deterministic output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
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

/// Lint every `crates/*/src/**/*.rs` under the workspace `root`.
pub fn lint_workspace(root: &Path, _cfg: &LintConfig) -> std::io::Result<LintRun> {
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    crate_dirs.sort();
    let mut files = Vec::new();
    for src in crate_dirs.iter().map(|d| d.join("src")) {
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let rel = rel.to_string_lossy().replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(f)?));
    }
    Ok(LintRun {
        diags: lint_sources(&sources),
        files: sources.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_count_through_comments_literals_and_string_continuations() {
        let src =
            "a /* one\n/* two\n */ */ b r#\"three\nfour\"# c '\\n' \"five\\\nsix\" d\n// e\nf";
        let words: Vec<_> = tokens(src)
            .into_iter()
            .filter_map(|(t, line)| match t {
                Tok::Word(w) => Some((w, line)),
                _ => None,
            })
            .collect();
        assert_eq!(words, [("a", 1), ("b", 3), ("c", 4), ("d", 5), ("f", 7)]);
    }
}
