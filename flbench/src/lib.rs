//! `flbench`: a steady wall-clock benchmark of the FedWCM reproduction.
//!
//! Four workloads of short, bit-identical repetitions, measured end to
//! end (`--trace 0`) and per layer (`--trace 1`) entirely from outside
//! the crates: by timing calls into public functions, through the hooks
//! the crates export, and through the [`timed::Timed`] adapter. See
//! `README.md` for the protocol and the reasons behind it.

#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod e2e;
pub mod layers;
pub mod registry;
pub mod sets;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workload;

/// Armed only during the armed repetitions of a `--trace 1` run.
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
