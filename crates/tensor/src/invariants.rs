//! Runtime invariant checks behind the `debug_invariants` cargo feature.
//!
//! The static gates (clippy, `fedwcm-lint`) catch hazards visible in source;
//! this module catches the ones only visible at run time — NaN/Inf
//! creeping through a training step, or shape drift between layers and
//! at server aggregation. Checks are **zero-cost when the feature is
//! off**: every entry point starts with `if !ENABLED { return; }` on a
//! `const`, so release builds compile the bodies away entirely, and the
//! context closures are only invoked on failure.
//!
//! Enable with `cargo test --features debug_invariants` (the `fedwcm-nn`
//! and `fedwcm-fl` features of the same name forward here).

/// Whether this build carries the runtime invariant checks.
///
/// `true` iff the crate was compiled with `--features debug_invariants`.
/// Callers can branch on this to skip building check inputs entirely.
pub const ENABLED: bool = cfg!(feature = "debug_invariants");

/// Panic if any value in `xs` is NaN or infinite, naming the offending
/// index and the caller-provided context. No-op when [`ENABLED`] is
/// `false`; `ctx` is only evaluated on failure.
#[expect(
    clippy::panic,
    reason = "failing fast is this module's entire purpose: debug_invariants builds \
              trade crash-on-NaN for pinpoint blame, and release builds never \
              reach here"
)]
pub fn check_finite(xs: &[f32], ctx: impl FnOnce() -> String) {
    if !ENABLED {
        return;
    }
    for (i, &x) in xs.iter().enumerate() {
        if !x.is_finite() {
            panic!(
                "debug_invariants: non-finite value {x} at index {i} in {}",
                ctx()
            );
        }
    }
}

/// Panic if `actual != expected`, naming both and the caller-provided
/// context. No-op when [`ENABLED`] is `false`; `ctx` is only evaluated
/// on failure.
#[expect(
    clippy::panic,
    reason = "same fail-fast contract as check_finite: this path exists only in \
              debug_invariants builds"
)]
pub fn check_len(actual: usize, expected: usize, ctx: impl FnOnce() -> String) {
    if !ENABLED {
        return;
    }
    if actual != expected {
        panic!(
            "debug_invariants: length mismatch in {}: got {actual}, expected {expected}",
            ctx()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(ENABLED, cfg!(feature = "debug_invariants"));
    }

    #[test]
    fn finite_data_passes() {
        check_finite(&[0.0, -1.5, 3.0e20], unreachable_ctx);
        check_len(4, 4, unreachable_ctx);
    }

    fn unreachable_ctx() -> String {
        panic!("ctx must not be evaluated on success");
    }

    #[cfg(feature = "debug_invariants")]
    #[test]
    fn non_finite_panics_with_context() {
        let err = std::panic::catch_unwind(|| {
            check_finite(&[1.0, f32::NAN], || "layer dense0 output".to_string())
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("non-finite"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
        assert!(msg.contains("layer dense0 output"), "{msg}");
    }

    #[cfg(feature = "debug_invariants")]
    #[test]
    fn length_mismatch_panics_with_context() {
        let err = std::panic::catch_unwind(|| check_len(3, 5, || "delta".to_string())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("got 3, expected 5"), "{msg}");
    }

    #[cfg(not(feature = "debug_invariants"))]
    #[test]
    fn disabled_checks_are_noops() {
        check_finite(&[f32::NAN, f32::INFINITY], unreachable_ctx);
        check_len(1, 2, unreachable_ctx);
    }
}
