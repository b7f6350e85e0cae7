//! Analysis tooling: minority-collapse diagnostics and convergence-rate
//! fitting.
//!
//! * [`concentration`] — the neuron-concentration metric behind Figs. 4
//!   and 13–17: how much of a neuron's activation mass its dominant class
//!   captures, per layer and averaged;
//! * [`spikes`] — abrupt-change detection for concentration/accuracy
//!   series (the "structured transitions" of §4);
//! * [`rate`] — `‖∇f(x_r)‖²` along an engine run and power-law fitting
//!   of its average vs `R`, the Theorem 6.1 rate check;
//! * [`per_class`] — head/tail accuracy summaries for Fig. 8.

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists outside test
// code and no panicking shortcut anywhere; an exemption is an
// `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod concentration;
pub mod geometry;
pub mod per_class;
pub mod rate;
pub mod spikes;

pub use concentration::{layer_concentrations, mean_concentration, ConcentrationReport};
pub use geometry::{classifier_geometry, within_class_variability, ClassifierGeometry};
pub use per_class::{head_tail_summary, HeadTailSummary};
pub use rate::fit_power_law;
pub use spikes::detect_spikes;
