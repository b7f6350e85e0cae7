//! Deterministic random-number generation and probability distributions.
//!
//! Everything stochastic in the FedWCM reproduction flows through this
//! crate. We implement the generators from scratch (xoshiro256++ seeded via
//! splitmix64) instead of depending on an external RNG so that every
//! experiment is bit-reproducible across library versions, platforms, and
//! thread counts.
//!
//! The crate provides:
//!
//! * [`rng::Xoshiro256pp`] — the core generator, plus [`rng::split_seed`]
//!   for deriving independent per-(round, client, purpose) streams;
//! * [`dist`] — Normal (Box–Muller), Gamma (Marsaglia–Tsang), Dirichlet
//!   and Categorical (alias-method) samplers, which back the paper's
//!   Dirichlet data partitions and synthetic datasets;
//! * [`describe`] — descriptive statistics (mean/variance/quantiles/Gini)
//!   used by the analysis and experiment crates, and the paired-seed
//!   interval and sign test a comparison of methods rests on.

#![warn(missing_docs)]
// Library code (DESIGN.md §9): nothing `clippy.toml` lists and no unused
// dependency outside test code, no panicking shortcut anywhere; an
// exemption is an `#[expect(.., reason = "..")]` beside the code it excuses.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod describe;
pub mod dist;
pub mod rng;

pub use dist::{Categorical, Dirichlet, Gamma, Normal};
pub use rng::{split_seed, Rng, Xoshiro256pp};
