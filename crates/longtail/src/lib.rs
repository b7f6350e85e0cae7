//! Long-tail-specific federated baselines.
//!
//! The methods the paper compares FedWCM against that specifically target
//! class imbalance:
//!
//! * [`balancefl::BalanceFl`] — balanced local update scheme (class-
//!   balanced resampling + knowledge inheritance for locally-absent
//!   classes), following Shuai et al. (IPSN 2022);
//! * [`fedgrab::FedGrab`] — self-adjusting gradient balancer + direct
//!   prior analysis, following Xiao et al. (NeurIPS 2024);
//! * [`variants`] — the paper's FedCM+{Focal, Balance Loss, Balance
//!   Sampler} combinations, built on `fedwcm-algos`' FedCM chassis.
//!
//! The re-implementations keep each method's defining mechanism and are
//! documented where they simplify secondary machinery (DESIGN.md §1).

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

pub mod balancefl;
pub mod fedgrab;
pub mod variants;

pub use balancefl::BalanceFl;
pub use fedgrab::FedGrab;
pub use variants::{fedcm_balance_loss, fedcm_balance_sampler, fedcm_focal};
