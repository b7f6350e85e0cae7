//! The two rules.
//!
//! Both walk a [`FileCtx`](crate::engine::FileCtx) token stream —
//! **token sequences over non-comment tokens**, so nothing ever fires
//! inside a comment, string, or char literal (the lexer guarantees it).
//! Nothing is parsed: what needs resolved paths, real types or a call
//! graph is carried by the compiler, clippy and tests (DESIGN.md §9).
//! [`check_metrics_registry`] is the one workspace pass: an entry of the
//! `trace::names` table against every other file's identifiers.

mod metrics_registry;
mod parallel_escape;

pub use metrics_registry::check_metrics_registry;
pub use parallel_escape::check_send_sync_safety;
