//! `parallel-escape-send-sync` — hand-rolled `Send`/`Sync` impls must
//! argue disjointness.
//!
//! Closures handed to the parallel entry points cannot smuggle shared
//! mutable state across worker threads: every entry point takes
//! `F: Fn + Sync`, so a captured write is a compile error (pinned by
//! the `compile_fail` doctests in `crates/parallel/src/lib.rs`). The one
//! escape the compiler does not see is an `unsafe impl Send`/`Sync`,
//! which *asserts* thread-safety instead of deriving it. This rule
//! requires the adjacent `// SAFETY:` comment to state a *disjointness*
//! argument (who owns which region, why writers never overlap). That
//! the comment exists at all is `clippy::undocumented_unsafe_blocks`,
//! denied for every workspace member; what it must say is this rule,
//! in every crate, test code included; the `race_check` shadow
//! sanitizer (`crates/parallel/src/shadow.rs`) checks the same argument
//! at runtime.

use crate::engine::{Diagnostic, FileCtx};
use crate::lexer::TokKind;

const SEND_SYNC_RULE: &str = "parallel-escape-send-sync";

/// Disjointness vocabulary a `Send`/`Sync` safety comment must use —
/// some phrase saying which single owner touches which region.
const DISJOINT_VOCAB: &[&str] = &[
    "disjoint",
    "exactly one",
    "at most one",
    "only one",
    "one participant",
    "single claimant",
    "single writer",
    "single owner",
    "never concurrently",
    "no two",
];

/// Run `parallel-escape-send-sync` over one file: every
/// `unsafe impl Send/Sync` must carry an adjacent `// SAFETY:` comment
/// that states a disjointness argument.
pub fn check_send_sync_safety(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for (k, &i) in ctx.code.iter().enumerate() {
        let t = &ctx.toks[i];
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(&j) = ctx.code.get(k + 1) else {
            continue;
        };
        if !ctx.toks[j].is_ident("impl") {
            continue;
        }
        // `unsafe impl<T: Send> Sync for Slot<T>` — the trait is the
        // last angle-depth-0 identifier before `for`.
        let mut depth = 0i64;
        let mut trait_name: Option<&str> = None;
        let mut saw_for = false;
        for &m in &ctx.code[k + 2..] {
            let tok = &ctx.toks[m];
            if tok.is_punct('<') {
                depth += 1;
            } else if tok.is_punct('>') {
                depth -= 1;
            } else if tok.is_punct('{') || tok.is_punct(';') {
                break;
            } else if depth == 0 && tok.kind == TokKind::Ident {
                if tok.text == "for" {
                    saw_for = true;
                    break;
                }
                trait_name = Some(&tok.text);
            }
        }
        let Some(trait_name) = trait_name else {
            continue;
        };
        if !saw_for || !matches!(trait_name, "Send" | "Sync") {
            continue;
        }
        let comment = adjacent_comment_text(ctx, t.line).to_lowercase();
        let has_safety = comment.contains("safety:");
        let has_disjoint = DISJOINT_VOCAB.iter().any(|kw| comment.contains(kw));
        if has_safety && has_disjoint {
            continue;
        }
        let what = if has_safety {
            "does not state a disjointness argument"
        } else {
            "is missing"
        };
        diags.push(ctx.diag(
            SEND_SYNC_RULE,
            t.line,
            format!(
                "`unsafe impl {trait_name}` whose `// SAFETY:` comment {what} — say which \
                 single owner touches which region and why writers never overlap \
                 (e.g. \"disjoint\", \"exactly one\", \"at most one\", \"never concurrently\")"
            ),
        ));
    }
}

/// All comment text adjacent to `line`: the line's own comments plus
/// the contiguous run of comment/attribute lines directly above (a
/// blank or code line breaks the association).
fn adjacent_comment_text(ctx: &FileCtx, line: usize) -> String {
    let mut text = ctx.lines[line].comment_text.clone();
    let mut ln = line.saturating_sub(1);
    while ln >= 1 {
        let li = &ctx.lines[ln];
        let blank = !li.has_code && !li.has_comment;
        if blank || (li.has_code && !li.starts_attr) {
            break;
        }
        text.push(' ');
        text.push_str(&li.comment_text);
        ln -= 1;
    }
    text
}
