//! Additively-homomorphic encryption for private global-distribution
//! aggregation (§5.5 / Appendix C).
//!
//! The paper uses the BFV scheme via TenSEAL; this crate implements the
//! same *protocol role* from scratch: a symmetric RLWE encryption over
//! `Z_q[x]/(x^N + 1)` that is additively homomorphic with
//! coefficient-packed integer vectors (class counts in coefficients), so
//! the server can sum encrypted per-client class distributions without
//! seeing any individual one.
//!
//! Parameters follow BFV shape: power-of-two ring degree `N`, modulus
//! `q = 2^62`, plaintext modulus `t`. Ciphertexts are `(c0, c1)` with
//! `c0 = c1·s + e + Δ·m`, `Δ = q/t`.
//!
//! The one product the scheme needs is dense × sparse ternary secret
//! (64 taps at the default `N = 4096`), once per encryption and once per
//! decryption. [`ring::negacyclic_mul_sparse`] sums all taps for a
//! register block of sixteen output coefficients in wrapping `u64`
//! arithmetic and masks once per coefficient as the block is written.
//! Because `q` divides `2^64`, that is bit for bit the per-term mod-`q`
//! result; `tests/golden.rs` pins the ciphertext bytes. The protocol adds
//! each client's ciphertext to the running sum as soon as it is
//! encrypted, so at most two ciphertexts are alive whatever the client
//! count.
//!
//! **Security note.** This is a faithful *functional* reproduction for
//! measuring protocol overheads (Table 6) and exercising the aggregation
//! flow; it deliberately reuses the workspace's deterministic RNG for
//! reproducibility, so it must not be used as a production cryptosystem.
//!
//! Modules: [`ring`] (negacyclic polynomial arithmetic), [`rlwe`]
//! (keygen/encrypt/add/decrypt), [`protocol`] (the BatchCrypt-style
//! aggregation protocol with size/time accounting).

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
    clippy::unimplemented
)]
// This crate writes bytes other processes read back: a lossy `as` is a
// compile error here, and an exemption states the bound that makes it
// exact.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::allow_attributes_without_reason
)]

pub mod protocol;
pub mod ring;
pub mod rlwe;

pub use protocol::{aggregate_distributions, ProtocolReport};
pub use rlwe::{Ciphertext, RlweParams, SecretKey};
