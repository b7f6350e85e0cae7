//! Poison-tolerant locking helpers shared by the pool internals.
//!
//! The standard library poisons a `Mutex` when a holder panics, and
//! every subsequent `lock()` returns `Err` forever after. For the pool
//! that policy is strictly worse than recovery: worker panics are
//! already caught with `catch_unwind` inside [`crate::pool`] and
//! re-raised on the submitting caller, and no lock-held critical
//! section leaves its guarded state half-updated (queue pushes/removes
//! and counter updates are single atomic operations on the structure).
//! Recovering the guard therefore cannot observe a broken invariant —
//! whereas unwrapping the poison error would turn one contained client
//! panic into a cascading crash of every later round.
//!
//! Recovery also preserves the pool's **publication** duty: a
//! `lock_recover` acquire is still a full mutex acquire, so the
//! `done_lock` handshake that joins a job keeps its release/acquire
//! edge even when some participant panicked — which is exactly the
//! happens-before edge [`crate::shadow`] asserts under `race_check`.
//!
//! # Lock order, checked where it runs
//!
//! Every critical section behind these helpers is a **leaf**: the pool
//! takes `spawn_lock`, `queue`, `done_lock` or a job's panic slot, and
//! `fedwcm-fl` its training-buffer pool, each on its own and never
//! while holding another — user tasks run with no lock held. In builds
//! with `debug_assertions` (every `cargo test`) [`lock_recover`] asserts
//! exactly that: the returned [`Guard`] marks this thread as holding a
//! lock, and acquiring while the mark is set panics, naming the rule. Unlike a static call-graph pass this sees every executed
//! path — through a closure, a trait object, a callee in another crate
//! — and needs one thread, not a losing interleaving. Release builds
//! compile the mark out: [`Guard`] is then a `MutexGuard` and nothing
//! else. (`fedwcm-trace` keeps its own copy of the helper and its own
//! count: neither crate depends on the other, by design.)

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};

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
    held: Held,
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
/// Sound for pool state because every critical section keeps its
/// guarded data structurally valid at all times (see the module docs);
/// a poisoned lock only records that *some* participant panicked, which
/// the pool already tracks and re-raises through the job's panic slot.
///
/// With `debug_assertions`, panics if this thread already holds a
/// [`Guard`] (module docs).
pub fn lock_recover<T>(m: &Mutex<T>) -> Guard<'_, T> {
    let held = Held::acquire();
    let guard = m.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    Guard { guard, held }
}

/// Block on `cv`, recovering the reacquired guard if the mutex was
/// poisoned while this thread slept. The guard's "holds a lock" mark
/// rides through the wait: the thread is parked, not free.
///
/// Same soundness argument as [`lock_recover`]: recovery only skips the
/// poison bookkeeping, never exposes torn state.
pub fn wait_recover<'a, T>(cv: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T> {
    let Guard { guard, held } = guard;
    let guard = cv
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    Guard { guard, held }
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

    /// A real wait — the notifier can only take the mutex once this
    /// thread has parked — hands the flag over, comes back still marked
    /// as held, and clears the mark when the guard drops.
    #[test]
    fn wait_recover_keeps_the_count() {
        let (m, cv) = (&Mutex::new(false), &Condvar::new());
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                locked_rx.recv().expect("main thread holds the mutex");
                *lock_recover(m) = true;
                cv.notify_all();
            });
            let mut guard = lock_recover(m);
            locked_tx.send(()).expect("notifier is listening");
            while !*guard {
                guard = wait_recover(cv, guard);
            }
            #[cfg(debug_assertions)]
            assert!(HELD.with(std::cell::Cell::get), "held through the wait");
            drop(guard);
            #[cfg(debug_assertions)]
            assert!(!HELD.with(std::cell::Cell::get), "cleared on drop");
        });
    }
}
