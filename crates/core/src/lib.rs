//! FedWCM — the paper's primary contribution.
//!
//! FedWCM repairs client-momentum federated learning (FedCM) under
//! long-tailed global class distributions with two per-round adaptive
//! mechanisms driven by global distribution knowledge:
//!
//! 1. **Weighted momentum aggregation** (Eq. 3–4): each client gets a
//!    *scarcity score* — how much of its data belongs to globally
//!    under-represented classes — and the round's momentum is aggregated
//!    with softmax(score/T) weights, where the temperature `T` shrinks as
//!    global imbalance grows (sharper weighting when it matters).
//! 2. **Adaptive momentum value** (Eq. 5): the momentum value `α_r`
//!    (weight on the fresh local gradient, `1−α_r` on the global momentum)
//!    rises from the FedCM base 0.1 as (a) the global distribution gets
//!    more imbalanced and (b) the currently sampled clients over-represent
//!    scarce classes — trusting informative fresh gradients over the
//!    possibly-biased accumulated momentum.
//!
//! Both read one [`ClassPrior`] built from class counts; the experiments
//! build it from the counts §5.5's encrypted exchange returns (`fedwcm-he`)
//! and pass it to [`FedWcm::with_prior`]. The one path that still reads
//! every client's counts in the clear is [`FedWcm::prepare`], kept for the
//! benchmark harness.
//!
//! ## Notation interpretation (documented deviations)
//!
//! * The paper's Eq. 5 factor `(1 − e^{−‖T/K‖₁})` is not fully specified;
//!   we implement `(1 − e^{−D·C})` with `D` the total-variation distance
//!   between the global and target distributions and `C` the class count —
//!   the "discrepancy scaled by the number of classes" the temperature
//!   paragraph describes. Limiting behaviour matches the paper's prose:
//!   balanced data ⇒ `α ≡ 0.1` (pure FedCM); heavy imbalance ⇒ `α → 1`
//!   (momentum influence fades instead of compounding the bias).
//! * Algorithm 1's `Δ_k = x_B − x_r` / `x ← x − η_g Δ` sign convention is
//!   normalised as described in `fedwcm-fl` (gradient-scale deltas).
//!
//! Modules: [`prior`] (the class prior), [`score`] (Eq. 3 + temperature),
//! [`weighting`] (Eq. 4), [`adaptive`] (Eq. 5), [`algorithm`] (FedWCM,
//! Alg. 1, and FedWCM-X, Alg. 3 — the quantity-skew generalisation, built
//! by [`FedWcm::x`]).

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

pub mod adaptive;
pub mod algorithm;
pub mod prior;
pub mod score;
pub mod weighting;

pub use algorithm::{FedWcm, FedWcmOptions, FIXED_TEMPERATURE};
pub use prior::ClassPrior;
pub use score::{imbalance_degree, temperature, ScoreForm};
pub use weighting::aggregation_weights;
