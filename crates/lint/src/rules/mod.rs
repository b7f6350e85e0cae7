//! The rule families.
//!
//! Every family walks a [`FileCtx`](crate::engine::FileCtx) token
//! stream — **token sequences over non-comment tokens**, so nothing
//! ever fires inside a comment, string, or char literal (the lexer
//! guarantees it). Nothing is parsed: what needed a syntax tree, real
//! types or a call graph is carried by the compiler, clippy and tests
//! (DESIGN.md §9). [`metrics_registry`] is the one workspace pass: an
//! entry of the `trace::names` table against every other file's
//! identifiers.

use crate::engine::{Diagnostic, FileCtx, LintConfig};

mod determinism;
mod doc_coverage;
mod metrics_registry;
mod panic_freedom;
mod parallel_escape;
mod unsafe_safety;

pub use determinism::check_determinism;
pub use doc_coverage::check_doc_coverage;
pub use metrics_registry::check_metrics_registry;
pub use panic_freedom::check_panic_freedom;
pub use parallel_escape::check_send_sync_safety;
pub use unsafe_safety::check_unsafe_safety;

/// One blessed-file exemption: `rule` does not fire in `path`.
///
/// Consolidating every per-file escape hatch into this one table keeps
/// the exemption surface auditable: the fixtures crate asserts each
/// path exists on disk (a renamed module cannot leave a stale
/// blessing), and `--rules` prints the table alongside the taxonomy.
#[derive(Debug)]
pub struct Blessing {
    /// The exempted rule id.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: &'static str,
    /// Why the exemption is sound — shown by `--rules`.
    pub why: &'static str,
}

/// Every blessed-file exemption, in rule-then-path order.
pub const BLESSINGS: &[Blessing] = &[
    Blessing {
        rule: "determinism-env",
        path: "crates/fl/src/config.rs",
        why: "the one config entry point allowed to read process environment variables",
    },
    Blessing {
        rule: "determinism-std-time",
        path: "crates/trace/src/clock.rs",
        why: "the Clock trait's wall-clock implementation must name std::time to wrap it",
    },
];

/// Is `path` blessed for `rule`?
pub fn is_blessed(rule: &str, path: &str) -> bool {
    BLESSINGS.iter().any(|b| b.rule == rule && b.path == path)
}

/// Comma-separated blessed paths for `rule`, for diagnostics.
pub fn blessed_paths_list(rule: &str) -> String {
    BLESSINGS
        .iter()
        .filter(|b| b.rule == rule)
        .map(|b| b.path)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run every enabled per-file rule family over one file.
pub fn run_all(ctx: &FileCtx, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    if cfg.is_enabled("unsafe-safety") {
        check_unsafe_safety(ctx, diags);
    }
    check_determinism(ctx, cfg, diags);
    if cfg.is_enabled("panic-freedom") {
        check_panic_freedom(ctx, diags);
    }
    if cfg.is_enabled("doc-coverage") {
        check_doc_coverage(ctx, diags);
    }
    if cfg.is_enabled("parallel-escape-send-sync") {
        check_send_sync_safety(ctx, diags);
    }
}

/// Run the cross-file rule over the whole file set at once.
pub fn run_workspace(files: &[FileCtx], cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    if cfg.is_enabled("metrics-registry") {
        check_metrics_registry(files, diags);
    }
}
