//! # fedwcm-suite
//!
//! A from-scratch Rust reproduction of **FedWCM: Unleashing the Potential
//! of Momentum-based Federated Learning in Long-Tailed Scenarios**
//! (ICPP 2025), including every substrate the paper depends on: a neural-
//! network library, synthetic long-tailed federated datasets, an FL
//! simulation engine, eleven baseline algorithms and the long-tail-specific
//! methods (`algos`), an RLWE additively-homomorphic aggregation protocol,
//! and the experiment harness with its minority-collapse analysis tooling
//! (`fedwcm-experiments`, linked here by the tests and examples only).
//!
//! This facade re-exports the library crates under stable paths:
//!
//! ```
//! use fedwcm_suite::prelude::*;
//!
//! // Build a long-tailed federated task and run FedWCM on it.
//! let spec = DatasetPreset::FashionMnist.spec();
//! let counts = longtail_counts(10, 40, 0.1);
//! let train = spec.generate_train(&counts, 42);
//! let test = spec.generate_test(42);
//! let mut cfg = FlConfig::default_sim();
//! cfg.clients = 4;
//! cfg.rounds = 2;
//! cfg.participation = 0.5;
//! let views = paper_partition(&train, cfg.clients, 0.1, 42).views(&train);
//! let sim = Simulation::new(cfg, &train, &test, views, Box::new(|| {
//!     let mut rng = Xoshiro256pp::seed_from(7);
//!     fedwcm_suite::nn::models::mlp(64, &[16], 10, &mut rng)
//! }));
//! let history = sim.run(&mut FedWcm::new());
//! assert_eq!(history.records.len(), 2);
//! ```

#![warn(missing_docs)]

pub use fedwcm_algos as algos;
pub use fedwcm_core as core;
pub use fedwcm_data as data;
pub use fedwcm_faults as faults;
pub use fedwcm_fl as fl;
pub use fedwcm_he as he;
pub use fedwcm_nn as nn;
pub use fedwcm_obs as obs;
pub use fedwcm_parallel as parallel;
pub use fedwcm_stats as stats;
pub use fedwcm_tensor as tensor;
pub use fedwcm_trace as trace;
pub use fedwcm_transport as transport;

/// The most commonly used items in one import.
pub mod prelude {
    pub use fedwcm_algos::{BalanceFl, FedAvg, FedCm, FedGrab, FedProx, Scaffold};
    pub use fedwcm_core::{FedWcm, FedWcmOptions};
    pub use fedwcm_data::longtail::longtail_counts;
    pub use fedwcm_data::partition::{fedgrab_partition, paper_partition};
    pub use fedwcm_data::synth::DatasetPreset;
    pub use fedwcm_data::Dataset;
    pub use fedwcm_faults::{FaultConfig, FaultPlan};
    pub use fedwcm_fl::{
        Cadence, FederatedAlgorithm, FlConfig, History, ServerCheckpoint, Simulation,
    };
    pub use fedwcm_stats::{Rng, Xoshiro256pp};
    pub use fedwcm_tensor::Tensor;
    pub use fedwcm_trace::{
        JsonlSink, LogicalClock, MetricsRegistry, MetricsSnapshot, RingSink, Tracer, WallClock,
    };
    pub use fedwcm_transport::{NetConfig, NetPlan, RetryPolicy};
}
