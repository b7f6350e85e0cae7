//! The rule families.
//!
//! The v1 families walk a [`FileCtx`](crate::engine::FileCtx) token
//! stream — **token sequences over non-comment tokens**, so nothing
//! ever fires inside a comment, string, or char literal (the lexer
//! guarantees it); [`parallel_escape`] (the `unsafe impl Send/Sync`
//! disjointness check) is one of them. The v2 families
//! ([`rng_hygiene`], [`lock_order`], [`cast_soundness`]) walk the parsed
//! syntax tree instead, and the first two run as a single workspace
//! pass over every file at once so they can follow calls across crates.
//! [`metrics_registry`] is a workspace pass too, over call sites and
//! the `trace::names` constant table.

use crate::engine::{Diagnostic, FileCtx, LintConfig};

mod cast_soundness;
mod determinism;
mod doc_coverage;
mod lock_order;
mod metrics_registry;
mod panic_freedom;
mod parallel_escape;
mod rng_hygiene;
mod unsafe_safety;

pub use cast_soundness::check_cast_soundness;
pub use determinism::check_determinism;
pub use doc_coverage::check_doc_coverage;
pub use lock_order::check_lock_order;
pub use metrics_registry::check_metrics_registry;
pub use panic_freedom::check_panic_freedom;
pub use parallel_escape::check_send_sync_safety;
pub use rng_hygiene::check_rng_hygiene;
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
    if cfg.is_enabled("cast-soundness") {
        check_cast_soundness(ctx, diags);
    }
    if cfg.is_enabled("parallel-escape-send-sync") {
        check_send_sync_safety(ctx, diags);
    }
}

/// Run the cross-file rule families over the whole file set at once.
/// The call graph is built once and shared.
pub fn run_workspace(files: &[FileCtx], cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let rng = cfg.is_enabled("rng-stream-hygiene");
    let lock = cfg.is_enabled("lock-order");
    if cfg.is_enabled("metrics-registry") {
        check_metrics_registry(files, diags);
    }
    if !(rng || lock) {
        return;
    }
    let cg = crate::callgraph::CallGraph::build(files);
    if rng {
        check_rng_hygiene(files, &cg, diags);
    }
    if lock {
        check_lock_order(files, &cg, diags);
    }
}
