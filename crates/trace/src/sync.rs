//! The crate's one way to a lock: poison-recovering, and — in builds
//! with `debug_assertions` — checked for nesting where it runs.
//!
//! Recovery is sound because the protected state (event buffers, metric
//! maps, a writer) is valid after every individual update, so a guard
//! recovered from a holder that panicked observes nothing torn.
//!
//! # Lock order
//!
//! Every critical section in this crate is a **leaf** — `RingSink.buf`,
//! `SharedBuf.0`, `SpanBuffer.events`, `MetricsRegistry.inner` are each
//! taken on their own — with one listed nesting:
//!
//! | outer | inner |
//! |---|---|
//! | `JsonlSink.w` ([`lock_writer`]) | whatever the writer `W` locks in `Write::write`/`flush` — for a `SharedBuf`, its `.0` |
//!
//! With `debug_assertions` (every `cargo test`) the guards count
//! themselves in a thread-local and an acquisition asserts the table:
//! [`lock_recover`] panics if this thread holds another leaf,
//! [`lock_writer`] if it holds anything at all. Holding a `SharedBuf`
//! and then recording into the `JsonlSink` over it — the inversion of
//! the listed order, which a static pass cannot see through `W: Write`
//! — therefore fails the first test that executes it, on one thread.
//! Release builds compile the count out: [`Guard`] is then a
//! `MutexGuard` and nothing else. (`fedwcm-parallel` keeps its own copy
//! and its own count: neither crate depends on the other, by design.)

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

#[cfg(debug_assertions)]
std::thread_local! {
    /// Live [`Guard`]s on this thread: `(writer locks, leaf locks)`.
    static HELD: std::cell::Cell<(u32, u32)> = const { std::cell::Cell::new((0, 0)) };
}

/// One unit of this thread's held-lock count: taken before the mutex,
/// given back when the [`Guard`] drops. Without `debug_assertions`,
/// zero-sized and inert.
struct Held {
    #[cfg(debug_assertions)]
    writer: bool,
}

impl Held {
    #[cfg(debug_assertions)]
    fn acquire(writer: bool) -> Held {
        HELD.with(|held| {
            let (writers, leaves) = held.get();
            assert!(
                leaves == 0 && !(writer && writers > 0),
                "lock order: acquiring a {} lock while this thread holds {writers} writer and \
                 {leaves} leaf lock(s); the only listed nesting is JsonlSink.w, then the \
                 writer's own lock (crates/trace/src/sync.rs)",
                if writer { "writer" } else { "leaf" },
            );
            held.set(if writer {
                (writers.saturating_add(1), leaves)
            } else {
                (writers, leaves.saturating_add(1))
            });
        });
        Held { writer }
    }

    #[cfg(not(debug_assertions))]
    fn acquire(_writer: bool) -> Held {
        Held {}
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| {
            let (writers, leaves) = held.get();
            held.set(if self.writer {
                (writers.saturating_sub(1), leaves)
            } else {
                (writers, leaves.saturating_sub(1))
            });
        });
    }
}

/// A lock held through [`lock_recover`] or [`lock_writer`]:
/// dereferences to the guarded value and unlocks on drop, like the
/// `MutexGuard` it wraps.
pub(crate) struct Guard<'a, T> {
    // Declared first: the mutex is released before the count.
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

fn lock<T>(m: &Mutex<T>, writer: bool) -> Guard<'_, T> {
    let held = Held::acquire(writer);
    let guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    Guard { guard, _held: held }
}

/// Acquire a leaf lock, recovering the guard if a holder panicked.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> Guard<'_, T> {
    lock(m, false)
}

/// Acquire `JsonlSink`'s writer lock — the one lock under which another
/// (the writer's own) may be taken; see the module table.
pub(crate) fn lock_writer<T>(m: &Mutex<T>) -> Guard<'_, T> {
    lock(m, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(7usize);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_recover(&m);
            panic!("poison");
        }));
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&m), 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order")]
    fn nested_leaf_acquisition_panics() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _held = lock_recover(&a);
        let _nested = lock_recover(&b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order")]
    fn nested_writer_acquisition_panics() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _held = lock_writer(&a);
        let _nested = lock_writer(&b);
    }

    #[test]
    fn temporary_and_dropped_guards_release() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        *lock_recover(&a) += 1; // temporary: released at the `;`
        let held = lock_recover(&a);
        assert_eq!(*held, 2);
        drop(held);
        let _b = lock_recover(&b);
    }

    #[test]
    fn the_listed_nesting_is_allowed() {
        let (w, inner) = (Mutex::new(()), Mutex::new(0));
        let _writer = lock_writer(&w);
        *lock_recover(&inner) += 1;
        *lock_recover(&inner) += 1;
    }
}
