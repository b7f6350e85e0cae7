//! Federated-learning simulation engine.
//!
//! This crate is the substrate every algorithm (FedAvg, FedCM, FedWCM, …)
//! plugs into. It owns the round loop: sample a client subset `P_r`, train
//! each sampled client **in parallel** (deterministically seeded per
//! `(seed, round, client)`), hand the collected updates to the algorithm's
//! aggregation step, apply the server update, and periodically evaluate on
//! the held-out test set.
//!
//! # Delta convention
//!
//! The paper's Algorithm 1 writes `Δ_k = x_B − x_r` and then
//! `x_{r+1} = x_r − η_g Δ_{r+1}`, which taken literally ascends; we adopt
//! the standard FedCM convention instead. A client update's `delta` is the
//! **gradient-scale normalised direction**
//!
//! ```text
//! delta_k = (x_r − x_B) / (η_l · B_k)
//! ```
//!
//! so `delta` has the magnitude of a single mini-batch gradient. The global
//! momentum `Δ` fed back into clients is an aggregation of these, and the
//! server step is `x ← x − η_g · η_l · B̄ · Δ`, which for `η_g = 1` and
//! uniform weights recovers exact model averaging (FedAvg).
//!
//! Modules: [`config`], [`cadence`] (when the server aggregates),
//! [`client`] (the local-training loop every algorithm runs),
//! [`algorithm`] (the [`algorithm::FederatedAlgorithm`] trait),
//! [`engine`] (the round loop: `Simulation`, the server's run state and
//! `drive`, a list of calls to six stage files — `train` → `perturb` →
//! `deliver` → `admit` → `apply` → `evaluate`),
//! [`checkpoint`] (crash/resume snapshots),
//! [`metrics`] (histories and resilience reports),
//! [`comms`] (nominal model-traffic volumes, Appendix C's comparison), and
//! [`wire`] (payload codec for the fault-tolerant transport). Three
//! private modules carry protocols in types instead of conventions:
//! `codec` (one field table per serialized struct, driving writer and
//! reader alike), `undiscounted` ([`Undiscounted`]: the staleness
//! discount as a move-only hand-off) and `observe` ([`Observability`]
//! and the per-round context every stage reports through).

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

pub mod algorithm;
pub mod cadence;
pub mod checkpoint;
pub mod client;
mod codec;
pub mod comms;
pub mod config;
pub mod engine;
pub mod metrics;
mod observe;
mod undiscounted;
pub mod wire;

pub use algorithm::{FederatedAlgorithm, RoundInput, RoundLog, StateError};
pub use cadence::Cadence;
pub use checkpoint::{CheckpointError, ServerCheckpoint};
pub use client::{ClientEnv, ClientUpdate, LocalSgdSpec};
pub use config::FlConfig;
pub use engine::{
    evaluate_accuracy_threads, per_class_accuracy_threads, sampled_clients_for, Observability,
    Simulation,
};
pub use fedwcm_transport::{NetConfig, NetCounters, NetPlan, RetryPolicy};
pub use metrics::{History, ResilienceReport, RoundFaults, RoundRecord};
pub use undiscounted::Undiscounted;
