//! A from-scratch neural-network library for the FedWCM reproduction.
//!
//! Substitutes for the paper's PyTorch stack. The design centres on a
//! **flat parameter vector**: a [`model::Model`] owns one `Vec<f32>` of
//! parameters and produces gradients into an equally-shaped buffer, so all
//! federated-learning arithmetic (deltas, momentum blending, weighted
//! aggregation) is plain BLAS-1 over flat slices — no tree walking, no
//! per-layer bookkeeping in the FL code.
//!
//! Modules:
//! * [`layer`] — the [`layer::Layer`] trait plus ReLU;
//! * [`dense`] — fully-connected layer;
//! * [`conv`] — Conv2d (im2col-lowered), average pooling, global pooling;
//! * [`residual`] — residual blocks (the "ResLite" CNN backbone);
//! * [`model`] — sequential model with forward/backward over the arena;
//! * [`models`] — architecture presets matching the paper's per-dataset
//!   choices (MLP for Fashion-MNIST-like, ResLite for the CIFAR-likes);
//! * [`loss`] — cross-entropy, Focal, Balanced-Softmax (PriorCE);
//! * [`opt`] — SGD-style parameter updates used by every FL algorithm;
//! * [`gradcheck`] — finite-difference validation utilities.

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

pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod model;
pub mod models;
pub mod opt;
pub mod residual;
pub mod serialize;

pub use layer::{Layer, Relu};
pub use loss::{BalancedSoftmax, CrossEntropy, FocalLoss, Loss};
pub use model::Model;
