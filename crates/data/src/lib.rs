//! Synthetic long-tailed datasets and federated partitioners.
//!
//! Substitutes for the paper's image benchmarks (Fashion-MNIST, SVHN,
//! CIFAR-10/100, ImageNet): seeded Gaussian class-prototype generators
//! with per-preset class counts and difficulty, plus the two partition
//! schemes the paper studies —
//!
//! * the **paper partition** (following BalanceFL): global long-tail with
//!   imbalance factor `IF`, clients hold *equal sample quantities* with
//!   Dirichlet(β) class skew;
//! * the **FedGrab partition**: per-class Dirichlet(β) split across
//!   clients, producing heavy quantity skew (Appendix A / Fig. 11).
//!
//! Modules: [`dataset`] (storage + views), [`synth`] (generators and
//! presets), [`longtail`] (IF-profiles), [`partition`] (both partitioners),
//! [`sampler`] (mini-batch and class-balanced samplers).

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

pub mod dataset;
pub mod longtail;
pub mod partition;
pub mod sampler;
pub mod synth;

pub use dataset::{ClientView, Dataset};
pub use longtail::longtail_counts;
pub use partition::{fedgrab_partition, paper_partition, Partition};
pub use synth::{DatasetPreset, SyntheticSpec};
