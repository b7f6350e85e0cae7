//! Analysis tooling: minority-collapse diagnostics and convergence-rate
//! fitting.
//!
//! * [`concentration`] — the neuron-concentration metric behind Figs. 4
//!   and 13–17: how much of a neuron's activation mass its dominant class
//!   captures, per layer and averaged;
//! * [`geometry`] — the classifier head's row norms and angles (Appendix B);
//! * [`spikes`] — abrupt-change detection for concentration/accuracy
//!   series (the "structured transitions" of §4);
//! * [`rate`] — `‖∇f(x_r)‖²` along an engine run and power-law fitting
//!   of its average vs `R`, the Theorem 6.1 rate check;
//! * [`per_class`] — head/tail accuracy summaries for Fig. 8.
//!
//! Unlike the rest of this crate, these are library code (DESIGN.md §9):
//! nothing `clippy.toml` lists outside test code and no panicking
//! shortcut anywhere; an exemption is an `#[expect(.., reason = "..")]`
//! beside the code it excuses.

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
