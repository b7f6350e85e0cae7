//! Dense f32 tensor primitives for the FedWCM reproduction.
//!
//! This crate is the numeric substrate under `fedwcm-nn`: a row-major
//! dense [`Tensor`], BLAS-1 style vector kernels ([`ops`]), a register-tiled
//! matrix multiply ([`matmul`](mod@matmul)), and im2col lowering for convolutions
//! ([`im2col`]).
//!
//! Design notes (per the HPC guides):
//! * storage is a single flat `Vec<f32>` — no per-element boxing, no
//!   strides beyond row-major, so the hot kernels vectorise;
//! * kernels take `&[f32]`/`&mut [f32]` slices so the NN parameter arena
//!   can reuse them without copies;
//! * all shape errors are programmer errors and panic with context rather
//!   than returning `Result`, matching ndarray-style numerical libraries.
//!   A non-finite value is data, not a shape error: it flows through every
//!   kernel unchecked, and the federated engine's containment filter is
//!   where a poisoned update is caught.

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

pub mod im2col;
mod isa;
pub mod matmul;
pub mod ops;
pub mod tensor;

#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

pub use matmul::{matmul, matmul_a_bt, matmul_at_b};
pub use tensor::Tensor;
