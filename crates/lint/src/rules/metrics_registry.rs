//! `metrics-registry` — no dead entry in `crates/trace/src/names.rs`.
//!
//! That a producer passes a registered name is the compiler's job now:
//! `Tracer::span`, `MetricsRegistry::counter_add` and the rest take a
//! `fedwcm_trace::names::Name`, which only the `names!` table can make,
//! so a literal or a misspelt constant does not build. What no type
//! carries is the other direction — a table entry that nothing uses,
//! which hides which telemetry actually exists. This rule is that one
//! check, as a token scan: an `IDENT = "string";` entry of the registry
//! file whose identifier appears in no other file is an error at its
//! declaration.

use crate::engine::{Diagnostic, FileCtx};
use crate::lexer::TokKind;

const RULE: &str = "metrics-registry";

/// Path suffix identifying the registry module.
const REGISTRY_PATH: &str = "trace/src/names.rs";

/// The `IDENT = "string";` entries of a registry file: `(name, line)`.
fn entries(ctx: &FileCtx) -> Vec<(&str, usize)> {
    ctx.code
        .windows(4)
        .filter_map(|w| {
            let [id, eq, s, semi] = [w[0], w[1], w[2], w[3]].map(|i| &ctx.toks[i]);
            let entry = id.kind == TokKind::Ident
                && eq.is_punct('=')
                && s.kind == TokKind::Str
                && semi.is_punct(';');
            entry.then_some((id.text.as_str(), id.line))
        })
        .collect()
}

/// Run the rule over the lexed workspace.
pub fn check_metrics_registry(files: &[FileCtx], diags: &mut Vec<Diagnostic>) {
    for (fi, registry) in files.iter().enumerate() {
        if !registry.path.ends_with(REGISTRY_PATH) {
            continue;
        }
        for (name, line) in entries(registry) {
            let used = files
                .iter()
                .enumerate()
                .any(|(i, ctx)| i != fi && ctx.code.iter().any(|&t| ctx.toks[t].is_ident(name)));
            if !used {
                diags.push(registry.diag(
                    RULE,
                    line,
                    format!(
                        "registry entry `{name}` is referenced by no code — dead taxonomy \
                         entries hide which telemetry actually exists; remove it or wire it up"
                    ),
                ));
            }
        }
    }
}
