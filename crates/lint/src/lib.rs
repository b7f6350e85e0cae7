//! `fedwcm-lint` — the one workspace check no compiler or clippy lint
//! states, as a zero-dependency token scan.
//!
//! | rule | enforces |
//! |------|----------|
//! | `metrics-registry` | no entry of the `fedwcm_trace::names` table is dead (that producers pass a registered name is a type, `names::Name`) |
//!
//! Run it locally with `cargo run -p fedwcm-lint`. The rule has no
//! suppression.
//!
//! The crate has **zero external dependencies** (this build environment
//! has no reachable crates.io registry) and hand-rolls the lexer in
//! [`lexer`]. The rule is a token-sequence pattern over its output —
//! each file is lexed exactly once per run and nothing is parsed — so
//! it never fires inside comments, strings, raw strings, or char
//! literals.
//!
//! What a type, the compiler's own lints, clippy or a test can carry is
//! not linted here. The determinism, panic-freedom, `// SAFETY:` and
//! rustdoc gates this crate used to scan tokens for are clippy lints
//! over resolved paths — the root `clippy.toml`, a `deny` block at the
//! top of each library crate, `[workspace.lints]` — and an exemption is
//! an `#[expect(clippy::.., reason = "..")]` beside the code, which the
//! compiler rejects once it stops being needed. A parallel closure
//! cannot write captured state because every `fedwcm-parallel` entry
//! point takes `F: Fn + Sync`; an `unsafe impl Send`/`Sync` does not
//! compile because `[workspace.lints.rust]` denies `unsafe_code` outside
//! three `#[expect]`ed blocks (DESIGN.md §15); a staleness discount is applied exactly
//! once because `fl::Undiscounted::apply` consumes the upload; a
//! checkpoint writer cannot drift from its reader because both expand
//! from one `wire_struct!` field table; a span or metric name is a
//! `fedwcm_trace::names::Name`, not a string; lock nesting is asserted
//! by the `lock_recover` helpers themselves in every debug build; and
//! RNG stream labels live in one table with a distinctness test.
//! DESIGN.md §9 records, rule by rule, which carrier took each retired
//! gate and why the one here has none; `--rules` prints the taxonomy.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{
    lint_sources, lint_workspace, Diagnostic, FileCtx, LintConfig, LintRun, RuleInfo, ALL_RULES,
    RULE_INFO,
};
