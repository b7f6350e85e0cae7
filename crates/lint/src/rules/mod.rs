//! The one rule.
//!
//! It walks [`FileCtx`](crate::engine::FileCtx) token streams — **token
//! sequences over non-comment tokens**, so nothing ever fires inside a
//! comment, string, or char literal (the lexer guarantees it). Nothing
//! is parsed: what needs resolved paths, real types or a call graph is
//! carried by the compiler, clippy and tests (DESIGN.md §9).
//! [`check_metrics_registry`] is a workspace pass: an entry of the
//! `trace::names` table against every other file's identifiers.

mod metrics_registry;

pub use metrics_registry::check_metrics_registry;
