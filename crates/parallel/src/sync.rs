//! Poison-tolerant locking for the few leaf locks the workspace takes.
//!
//! The standard library poisons a `Mutex` when a holder panics, and
//! every subsequent `lock()` returns `Err` forever after. For the locks
//! behind this helper — [`crate::parallel_over_rows`]'s chunk queue and
//! `fedwcm-fl`'s training-buffer pool — that policy is strictly worse
//! than recovery: a task's panic already reaches the caller through the
//! scope's join, and every critical section is one `push` or `pop`,
//! which leaves the guarded `Vec` valid at every step. Recovering the
//! guard therefore cannot observe a broken invariant — whereas
//! unwrapping the poison error would turn one contained client panic
//! into a cascading crash of every later round.
//!
//! # Lock order, checked where it runs
//!
//! Every critical section behind this helper is a **leaf**: taken on its
//! own, never while holding another, and user tasks run with no lock
//! held. In builds with `debug_assertions` (every `cargo test`)
//! [`lock_recover`] asserts exactly that: the returned [`Guard`] marks
//! this thread as holding a lock, and acquiring while the mark is set
//! panics, naming the rule. Unlike a static call-graph pass this sees
//! every executed path — through a closure, a trait object, a callee in
//! another crate — and needs one thread, not a losing interleaving.
//! Release builds compile the mark out: [`Guard`] is then a `MutexGuard`
//! and nothing else. (`fedwcm-trace` keeps its own copy of the helper and
//! its own count: neither crate depends on the other, by design.)

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

#[cfg(debug_assertions)]
std::thread_local! {
    /// This thread holds a [`Guard`].
    static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// This thread's "holds a lock" mark: set before the mutex is taken,
/// cleared when the [`Guard`] drops. Zero-sized, and without
/// `debug_assertions` inert.
struct Held;

impl Held {
    fn acquire() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            assert!(
                !held.replace(true),
                "lock_recover: this thread already holds a lock taken through this helper; \
                 every critical section behind it is a leaf (crates/parallel/src/sync.rs)"
            );
        });
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(false));
    }
}

/// A lock held through [`lock_recover`]: dereferences to the guarded
/// value and unlocks on drop, like the `MutexGuard` it wraps.
pub struct Guard<'a, T> {
    // Declared first: the mutex is released before the mark is cleared.
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Acquire `m`, recovering the guard if a previous holder panicked.
///
/// Sound where every critical section keeps its guarded data
/// structurally valid at all times (see the module docs); a poisoned
/// lock only records that *some* holder's thread panicked, which the
/// fan-out already re-raises on its caller.
///
/// With `debug_assertions`, panics if this thread already holds a
/// [`Guard`] (module docs).
pub fn lock_recover<T>(m: &Mutex<T>) -> Guard<'_, T> {
    let held = Held::acquire();
    let guard = m.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    Guard { guard, _held: held }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(7usize);
        // Poison the mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) = 9;
        assert_eq!(*lock_recover(&m), 9);
    }

    /// The `lock-order` fixtures' bug classes, on the real helper: a
    /// second acquisition while a guard lives panics; a temporary and a
    /// dropped guard release.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds a lock")]
    fn nested_acquisition_panics() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _held = lock_recover(&a);
        let _nested = lock_recover(&b);
    }

    #[test]
    fn temporary_and_dropped_guards_release() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        *lock_recover(&a) += 1; // temporary: released at the `;`
        let held = lock_recover(&a);
        assert_eq!(*held, 2);
        drop(held);
        let _a = lock_recover(&b);
    }
}
