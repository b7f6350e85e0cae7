//! The instruction-set level of this machine: the one place in the crate
//! that knows the CPU, and the home of its only two `unsafe` blocks.
//!
//! A kernel in [`mod@crate::matmul`] or [`crate::im2col`] is one body of
//! plain Rust, `#[inline(always)]` from its entry down to its innermost
//! loop, closures included. [`Isa::run`] calls that body from inside a
//! function compiled with the level's target features, so the body is
//! inlined there and its lane arrays become registers of that width —
//! one source, one machine-code instance per level. A body that is not
//! `#[inline(always)]` all the way down is compiled once at the baseline
//! features and merely called from the wrapper: correct, and no faster.
//!
//! **Bits.** A level changes which elements are computed together, never
//! how one is summed: the kernels write `acc += a * b` as two roundings
//! and nothing here lets the compiler contract them into one (no
//! `mul_add`, no fast-math flag), so every level produces the bits of the
//! scalar loops in `tests/support/reference.rs`. The tests run every
//! kernel at every level in `Isa::available()` against that reference.
//!
//! **No option.** The level is read from the machine
//! (`is_x86_feature_detected!`, cached by `std`); no build flag, cargo
//! feature, environment variable or config field selects or reports it.
//! Off x86-64 `Portable` is the whole of [`Isa`].

/// Proof that a feature test passed: minted only by [`Isa::detect`] and
/// [`Isa::narrower`], each time directly under the test of the variant's
/// own feature, so holding a wide [`Isa`] variant *is* the licence to run
/// its instance.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Detected(());

/// Instruction-set levels a kernel is instantiated at, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The target's baseline features (128-bit vectors on x86-64).
    Portable,
    /// 256-bit vectors, sixteen registers.
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected),
    /// 512-bit vectors, thirty-two registers, masked gathers.
    #[cfg(target_arch = "x86_64")]
    Avx512(Detected),
}

impl Isa {
    /// The widest level this machine runs.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512(Detected(()));
        }
        Isa::detect_below_avx512()
    }

    /// The widest level short of AVX-512 this machine runs.
    #[inline]
    fn detect_below_avx512() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2(Detected(()));
        }
        Isa::Portable
    }

    /// The next narrower level this machine runs (`Portable` stays
    /// `Portable`): what a kernel uses when its instance at this level
    /// measured no faster.
    #[cfg(any(test, target_arch = "x86_64"))]
    #[inline]
    pub(crate) fn narrower(self) -> Isa {
        match self {
            Isa::Portable => Isa::Portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => Isa::Portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(_) => Isa::detect_below_avx512(),
        }
    }

    /// Every level this machine runs, narrowest first, ending at
    /// [`Isa::detect`]: what the differential tests loop over.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Isa> {
        let mut levels = vec![Isa::detect()];
        while levels[0] != Isa::Portable {
            levels.insert(0, levels[0].narrower());
        }
        levels
    }

    /// Run `body` compiled for this level. `body` must be
    /// `#[inline(always)]` down to its innermost loop (see the module
    /// docs), and it and the closures it passes on should capture by
    /// value (`move`): through a by-reference capture the instance
    /// reloads loop-invariant scalars from the environment inside its
    /// innermost loop (a fifth of the portable GEMM's speed, measured).
    /// Never inlined into the caller on any level: a kernel that must
    /// stay out of line of the code around it can rely on that.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self {
            Isa::Portable => portable(body),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(Detected(())) => {
                #[expect(
                    unsafe_code,
                    reason = "calling into a #[target_feature] instance is the one step safe code cannot take"
                )]
                // SAFETY: `avx2` may only run on a CPU with AVX2, and the
                // `Detected` of this variant is minted nowhere but under
                // a passed `is_x86_feature_detected!("avx2")`.
                unsafe {
                    avx2(body)
                }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(Detected(())) => {
                #[expect(
                    unsafe_code,
                    reason = "calling into a #[target_feature] instance is the one step safe code cannot take"
                )]
                // SAFETY: `avx512` may only run on a CPU with AVX-512F,
                // and the `Detected` of this variant is minted nowhere
                // but under a passed `is_x86_feature_detected!("avx512f")`.
                unsafe {
                    avx512(body)
                }
            }
        }
    }
}

#[inline(never)]
fn portable<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_is_a_prefix_of_the_order_ending_at_detect() {
        let levels = Isa::available();
        // What every kernel test on this host ran at; CI prints it, so a
        // green run says which instances were checked.
        println!("instruction-set levels under test: {levels:?}");
        assert_eq!(levels.first(), Some(&Isa::Portable));
        assert_eq!(levels.last(), Some(&Isa::detect()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "{levels:?}");
        #[cfg(target_arch = "x86_64")]
        {
            let want = if std::arch::is_x86_feature_detected!("avx512f") {
                3
            } else if std::arch::is_x86_feature_detected!("avx2") {
                2
            } else {
                1
            };
            assert_eq!(levels.len(), want, "{levels:?}");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(levels, [Isa::Portable]);
    }

    #[test]
    fn run_returns_the_body_s_value_on_every_level() {
        for isa in Isa::available() {
            let xs = [1.0f32, 2.0, 3.0];
            let sum = isa.run(
                #[inline(always)]
                || xs.iter().sum::<f32>(),
            );
            assert_eq!(sum, 6.0, "{isa:?}");
        }
    }
}
