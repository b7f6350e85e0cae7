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
//! | `rng-stream-hygiene` | named RNG streams are never mixed in one function or passed across unaudited crate boundaries |
//! | `lock-order` | the static `lock_recover`/`wait_recover` acquisition graph is acyclic |
//! | `cast-soundness` | no lossy `as` casts / unchecked byte-counter arithmetic in the serializing crates |
//! | `metrics-registry` | span/metric names at call sites resolve to `fedwcm_trace::names` constants; no literals, typos, or dead taxonomy |
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
//! [`lexer`]. The v1 rules are token-sequence patterns over its
//! output, so they never fire inside comments, strings, raw strings,
//! or char literals. The v2 rules go further: [`parser`] builds a
//! recovering item/expression tree ([`ast`]) for each file — lexed and
//! parsed exactly once per run — and [`callgraph`] resolves calls
//! across files so the stream-hygiene and lock-order analyses can
//! follow values through the workspace. `metrics-registry` checks span
//! and metric call sites against the `trace::names` table, and
//! `parallel-escape-send-sync` is the static half of the `race_check`
//! sanitizer's soundness story (DESIGN.md §15).
//!
//! What a type can carry is not linted: a parallel closure cannot write
//! captured state because every `fedwcm-parallel` entry point takes
//! `F: Fn + Sync`, a staleness discount is applied exactly once because
//! `fl::Undiscounted::apply` consumes the upload, and a checkpoint
//! writer cannot drift from its reader because both expand from one
//! `wire_struct!` field table. DESIGN.md §9 records, rule by rule, why
//! each remaining gate has no cheaper type or test; `--rules` prints
//! the taxonomy with per-rule escape hatches.

pub mod ast;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use engine::{
    lint_file, lint_sources, lint_workspace, Diagnostic, FileCtx, LintConfig, LintRun, RuleInfo,
    ALL_RULES, DOC_CRATES, LIB_CRATES, MARKER_RULE, RULE_INFO,
};
pub use rules::{Blessing, BLESSINGS};
