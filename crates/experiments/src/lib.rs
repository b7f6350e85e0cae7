//! Experiment harness: shared machinery for the per-table/figure binaries.
//!
//! Every binary follows the same pattern: parse CLI flags ([`cli`]),
//! build a federated task from a preset ([`setup`]), instantiate methods
//! by name ([`methods`]), run, and print the table rows / figure series
//! the paper reports ([`report`]). The diagnostics the figures read
//! (concentration, geometry, per-class accuracy, spikes, the Theorem 6.1
//! rate fit) live in [`analysis`].
//!
//! Scales: `--smoke` (seconds; CI), `--quick` (default; minutes),
//! `--paper-scale` (the paper's client counts and round budgets; hours on
//! a laptop). Scale changes sizes only — never the algorithms.

#![warn(missing_docs)]

pub mod analysis;
pub mod claims;
pub mod cli;
pub mod collapse;
pub mod methods;
pub mod report;
pub mod setup;

pub use cli::{parse_args, Cli, Scale};
pub use methods::{build_method, Method};
pub use setup::{ExpConfig, PreparedTask};
