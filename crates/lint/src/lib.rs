//! `fedwcm-lint` — zero-dependency static analysis for the FedWCM
//! workspace.
//!
//! PR 1 made the repo's headline guarantee *bitwise determinism across
//! thread counts* and introduced the workspace's only `unsafe` code
//! (disjoint-slot writes in `fedwcm-parallel`). Those invariants used
//! to live in comments and differential tests; this crate turns them
//! into machine-checked gates that run in CI on every change:
//!
//! | rule | enforces |
//! |------|----------|
//! | `unsafe-safety` | every `unsafe` is immediately preceded by `// SAFETY:` |
//! | `determinism-collections` | no `HashMap`/`HashSet` in library crates |
//! | `determinism-time` | no `Instant::now`/`SystemTime::now` in library crates |
//! | `determinism-env` | no `env::var` outside the blessed config module |
//! | `determinism-threads` | no `available_parallelism` outside `fedwcm-parallel` |
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!`/`unimplemented!`/`todo!` in non-test library code |
//! | `doc-coverage` | public items in `tensor`/`fl`/`core`/`parallel` carry rustdoc |
//! | `metrics-registry` | no entry of the `fedwcm_trace::names` table is dead (that producers pass a registered name is a type, `names::Name`) |
//! | `parallel-escape-send-sync` | every `unsafe impl Send`/`Sync` states a disjointness argument in its `// SAFETY:` comment |
//!
//! Run it locally with `cargo run -p fedwcm-lint` (add `--format json`
//! for machine-readable findings); see the binary's `--help` for rule
//! toggles. Findings are suppressed — never silenced — with scoped
//! `// lint:allow(<rule>) <reason>` markers; a marker without a reason
//! is itself a hard error.
//!
//! The crate has **zero external dependencies** (this build environment
//! has no reachable crates.io registry) and hand-rolls the lexer in
//! [`lexer`]. Every rule is a token-sequence pattern over its output —
//! each file is lexed exactly once per run and nothing is parsed — so
//! rules never fire inside comments, strings, raw strings, or char
//! literals. `parallel-escape-send-sync` is the static half of the
//! `race_check` sanitizer's soundness story (DESIGN.md §15).
//!
//! What a type, the compiler's own lints or a test can carry is not
//! linted: a parallel closure cannot write captured state because every
//! `fedwcm-parallel` entry point takes `F: Fn + Sync`; a staleness
//! discount is applied exactly once because `fl::Undiscounted::apply`
//! consumes the upload; a checkpoint writer cannot drift from its reader
//! because both expand from one `wire_struct!` field table; a span or
//! metric name is a `fedwcm_trace::names::Name`, not a string; lossy
//! casts and unchecked byte-counter arithmetic in the serializing crates
//! are denied clippy lints, which see real types; lock nesting is
//! asserted by the `lock_recover` helpers themselves in every debug
//! build; and RNG stream labels live in one table with a distinctness
//! test. DESIGN.md §9 records, rule by rule, why each remaining gate has
//! no cheaper carrier; `--rules` prints the taxonomy with per-rule
//! escape hatches.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{
    lint_file, lint_sources, lint_workspace, Diagnostic, FileCtx, LintConfig, LintRun, RuleInfo,
    ALL_RULES, DOC_CRATES, LIB_CRATES, MARKER_RULE, RULE_INFO,
};
pub use rules::{Blessing, BLESSINGS};
