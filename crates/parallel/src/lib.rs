//! Deterministic data-parallel utilities on a persistent worker pool.
//!
//! The FL engine trains the clients sampled in a round concurrently; each
//! client's work is independent (own RNG stream, own model copy), so the
//! natural shape is an indexed parallel map whose results are collected
//! **in index order** — making the subsequent server aggregation bitwise
//! deterministic regardless of thread count or scheduling.
//!
//! All primitives run on one process-wide pool of persistent workers
//! (see [`pool`]): submitting work is a queue push, not a per-call burst
//! of `thread::spawn`, and results land in **disjoint, index-owned
//! slots** — each index is claimed by exactly one participant, so no
//! lock guards the result vector.
//!
//! Two levels of parallelism share the budget without oversubscription:
//! [`ThreadBudget`] splits a round's threads between *client-level*
//! fan-out and *intra-client* kernels (row-parallel GEMM in
//! `fedwcm-tensor`), and [`with_intra_threads`] carries the inner share
//! to the kernels through a scoped thread-local.
//!
//! # `Fn + Sync` is the race and determinism gate
//!
//! Every entry point takes its closure as `F: Fn(..) + Sync`. That bound
//! is not plumbing: an `Fn` closure cannot assign to, `&mut`-borrow, or
//! call a `&mut self` method on anything it captures (E0594/E0596), and
//! `Sync` rules out the `Cell`/`RefCell` side door. So no invocation can
//! write state another invocation sees — results leave a closure only
//! as its return value (collected in index order) or through the
//! `&mut` chunk it was handed, and a float reduction has no order but
//! the index-ordered fold's. The doctests on the entry points pin each
//! shape (plain assignment, `push`, `&mut` lent to a helper that does
//! the float `+=`, literal-index slice write), each next to a compiling twin
//! that differs in the offending line only. (Where ROADMAP asks kernels
//! to keep `float-reduction-order` holding, this bound is what holds.)
//! Writes the compiler does allow (a `Mutex`, an atomic, `unsafe`) are
//! explicit at the call site; `unsafe impl Send/Sync` stays policed by
//! `fedwcm-lint`'s `parallel-escape-send-sync` rule and clippy's
//! `undocumented_unsafe_blocks`, and this crate's own unsafe sites by
//! the [`shadow`] sanitizer.
//!
//! When the machine exposes a single core — or `FEDWCM_THREADS=1` —
//! everything runs inline on the caller thread, which also keeps stack
//! traces simple.

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

use std::cell::{Cell, UnsafeCell};
use std::num::NonZeroUsize;

mod pool;
pub mod shadow;
pub mod sync;

pub use pool::{pool_stats, PoolStats};

/// Resolve the worker count: the `FEDWCM_THREADS` env var if set (≥1),
/// otherwise [`std::thread::available_parallelism`].
#[expect(
    clippy::disallowed_methods,
    reason = "FEDWCM_THREADS only selects the worker count, and every primitive in \
              this crate is bitwise deterministic across thread counts, so this \
              read cannot change simulation output"
)]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FEDWCM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "this crate alone observes the host's core count; everything \
                  else takes an explicit thread budget"
    )]
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Thread budget available to *intra-task* kernels on this thread.
    static INTRA_THREADS: Cell<usize> = const { Cell::new(1) };
}

/// The thread budget kernels (GEMM, reductions) may use on the current
/// thread. Defaults to 1; scoped via [`with_intra_threads`].
pub fn intra_threads() -> usize {
    INTRA_THREADS.with(Cell::get)
}

/// Run `f` with the current thread's intra-task budget set to `threads`,
/// restoring the previous value afterwards (also on panic).
pub fn with_intra_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INTRA_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = INTRA_THREADS.with(|c| c.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Split of a total thread budget between task-level fan-out (`outer`)
/// and per-task kernels (`inner`), such that `outer * inner <= total` —
/// nested parallelism never oversubscribes the configured budget.
///
/// The split favours the outer level (independent clients scale better
/// than intra-GEMM rows) and gives the remainder to the inner level:
/// 8 threads over 3 clients → `outer = 3`, `inner = 2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadBudget {
    outer: usize,
    inner: usize,
}

impl ThreadBudget {
    /// Split `total` threads across `outer_tasks` concurrent tasks.
    pub fn split(total: usize, outer_tasks: usize) -> Self {
        let total = total.max(1);
        let outer = total.min(outer_tasks.max(1));
        let inner = (total / outer).max(1);
        ThreadBudget { outer, inner }
    }

    /// Fully sequential budget (1 × 1).
    pub fn sequential() -> Self {
        ThreadBudget { outer: 1, inner: 1 }
    }

    /// Threads for task-level fan-out.
    pub fn outer(&self) -> usize {
        self.outer
    }

    /// Threads each task may use internally.
    pub fn inner(&self) -> usize {
        self.inner
    }
}

/// Run `f(i)` for every `i in 0..n` with up to `threads` participants
/// (the caller plus pool workers). No result collection; use this when
/// `f` writes through index-owned state of its own.
///
/// The `Fn + Sync` bound *is* the race gate: a captured flag cannot be
/// assigned from inside `f` —
///
/// ```compile_fail,E0594
/// # use fedwcm_parallel::{parallel_for_each, parallel_map};
/// let xs = [3u32, 7, 9];
/// let mut found = false;
/// parallel_for_each(xs.len(), 2, |i| if xs[i] == 7 { found = true });
/// assert!(found);
/// ```
///
/// — return per-index values and fold them on the caller thread:
///
/// ```
/// # use fedwcm_parallel::{parallel_for_each, parallel_map};
/// let xs = [3u32, 7, 9];
/// let mut found = false;
/// found |= parallel_map(xs.len(), 2, |i| xs[i] == 7).contains(&true);
/// assert!(found);
/// ```
///
/// Nor can a captured local be lent out as `&mut` to a helper —
///
/// ```compile_fail,E0596
/// # use fedwcm_parallel::{parallel_for_each, parallel_map};
/// fn add_into(acc: &mut f32, v: f32) { *acc += v; }
/// let xs = [0.5f32, 0.25];
/// let mut acc = 0.0f32;
/// parallel_for_each(xs.len(), 2, |i| add_into(&mut acc, xs[i]));
/// assert_eq!(acc, 0.75);
/// ```
///
/// — the helper runs on the caller thread, over index-ordered results:
///
/// ```
/// # use fedwcm_parallel::{parallel_for_each, parallel_map};
/// fn add_into(acc: &mut f32, v: f32) { *acc += v; }
/// let xs = [0.5f32, 0.25];
/// let mut acc = 0.0f32;
/// for v in parallel_map(xs.len(), 2, |i| xs[i]) { add_into(&mut acc, v) }
/// assert_eq!(acc, 0.75);
/// ```
pub fn parallel_for_each<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    pool::run_indexed(n, threads, &f);
}

/// A result slot owned by exactly one claimant (the participant that
/// claimed its index), hence safely shared without a lock.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: `&Slot` is shared across participants, but the cell behind it
// is written through a **disjointness** discipline, not a lock: the
// pool's atomic claim counter hands index `i` to exactly one
// participant (`pool::run_items`, checked by `shadow::ClaimTable`), and
// that participant is the only writer of slot `i` for the job's
// lifetime (checked by `shadow::ShadowSlots::record_write`). The caller
// reads slots only after `pool::run_indexed` returns, i.e. after it
// observed `active == 0` under `done_lock` — the release/acquire edge
// that publishes every slot write (checked by `ShadowSlots::seal` /
// `assert_readable`). `T: Send` because the value crosses from the
// writing participant to the collecting caller.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Apply `f` to every index in `0..n`, producing a `Vec` ordered by index.
///
/// Work is distributed dynamically (atomic claim counter), so
/// heterogeneous per-item costs — e.g. clients with different data
/// volumes in FedWCM-X — balance automatically. Each result is written
/// to a slot owned by its index's claimant: no lock, no contention, and
/// the collected order is always `0..n` regardless of thread count.
///
/// The `Fn + Sync` bound *is* the race gate: `f` cannot push onto a
/// captured `Vec` (whose order would be the scheduler's) —
///
/// ```compile_fail,E0596
/// # use fedwcm_parallel::parallel_map;
/// let xs = [1u32, 2, 3];
/// let mut out = Vec::new();
/// parallel_map(xs.len(), 2, |i| out.push(xs[i] * 2));
/// assert_eq!(out, [2, 4, 6]);
/// ```
///
/// — the return value is the only way out, and it lands at index `i`:
///
/// ```
/// # use fedwcm_parallel::parallel_map;
/// let xs = [1u32, 2, 3];
/// let mut out = Vec::new();
/// out.extend(parallel_map(xs.len(), 2, |i| xs[i] * 2));
/// assert_eq!(out, [2, 4, 6]);
/// ```
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let slots: Vec<Slot<T>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let slots_ref = &slots;
    let shadow = shadow::ShadowSlots::new(n);
    let shadow_ref = &shadow;
    pool::run_indexed(n, threads, &|i| {
        let value = f(i);
        if shadow::ENABLED {
            shadow_ref.record_write(i);
        }
        // SAFETY: the pool's claim counter hands index `i` to exactly one
        // participant, so for the job's lifetime this is the only `&mut`
        // derived from slot `i`'s cell (no other participant even forms
        // one — see `Slot`'s `Sync` impl). The write is published to the
        // collecting caller by the job's join. Both halves are checked
        // under `race_check`: `shadow_ref.record_write(i)` above panics
        // on a second writer before this store could alias.
        unsafe {
            *slots_ref[i].0.get() = Some(value);
        }
    });
    if shadow::ENABLED {
        shadow.seal();
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            if shadow::ENABLED {
                shadow.assert_readable(i);
            }
            #[expect(
                clippy::panic,
                reason = "unreachable unless the pool's exactly-once claim invariant \
                          is broken; crashing loudly beats silently returning \
                          corrupt results"
            )]
            slot.0.into_inner().unwrap_or_else(|| {
                panic!("parallel_map: result slot {i} was never written (claimant failed)")
            })
        })
        .collect()
}

/// Split `0..n` into at most `parts` contiguous chunks of near-equal size.
/// Returns `(start, end)` pairs; never returns empty chunks.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// A disjoint mutable chunk handed to exactly one claimant.
struct Chunk<T>(*mut T, usize);

// SAFETY: a `Chunk` is a raw view of one `split_at_mut` region of the
// caller's buffer, so distinct chunks are pairwise-**disjoint** by
// construction (checked by `shadow::ShadowChunks::register`) and the
// region outlives the job: `parallel_over_rows` borrows the buffer for
// the whole call and `pool::run_indexed` joins before returning.
// Sending the chunk to a pool worker therefore moves exclusive access
// to a disjoint region, which is sound exactly when `T: Send`.
unsafe impl<T: Send> Send for Chunk<T> {}
// SAFETY: `&Chunk` is shared across participants, but the raw region
// behind it is turned into a `&mut` only by the **single claimant** of
// its index (`shadow::ShadowChunks::claim` panics on a second
// claimant), never concurrently — so shared access to the handle never
// becomes shared access to the elements. `T: Send` suffices for the
// same reason as the `Send` impl; no `&T` is ever shared cross-thread.
unsafe impl<T: Send> Sync for Chunk<T> {}

/// Partition `data` — a dense `rows × row_len` buffer — into at most
/// `threads` contiguous row chunks and run `f(row_start, row_end, chunk)`
/// on each in parallel.
///
/// Every chunk is a disjoint `&mut` region owned by one claimant, so
/// writes need no lock; because the chunking is by whole rows and `f`
/// computes rows independently, the result is **bitwise identical** to
/// running `f(0, rows, data)` sequentially.
///
/// The `Fn + Sync` bound *is* the race gate: the chunk `f` is handed is
/// the only thing it can write, so there is no index into shared state
/// to get wrong. A literal-index write into a captured `&mut [f32]`
/// (every invocation hitting the same slot) does not compile —
///
/// ```compile_fail,E0594
/// # use fedwcm_parallel::parallel_over_rows;
/// let mut data = vec![0.0f32; 8];
/// let mut side = vec![0.0f32; 4];
/// let shared: &mut [f32] = &mut side;
/// parallel_over_rows(&mut data, 2, 2, |_r0, _r1, chunk| shared[0] = 1.0);
/// assert_eq!(data[0] + data[4] + shared[0], 2.0);
/// ```
///
/// — the same literal index into the chunk is owned by its claimant:
///
/// ```
/// # use fedwcm_parallel::parallel_over_rows;
/// let mut data = vec![0.0f32; 8];
/// let mut side = vec![0.0f32; 4];
/// let shared: &mut [f32] = &mut side;
/// parallel_over_rows(&mut data, 2, 2, |_r0, _r1, chunk| chunk[0] = 1.0);
/// assert_eq!(data[0] + data[4] + shared[0], 2.0);
/// ```
pub fn parallel_over_rows<T, F>(data: &mut [T], row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data must be a whole number of rows"
    );
    let rows = data.len() / row_len;
    let ranges = chunk_ranges(rows, threads.max(1));
    if ranges.len() <= 1 {
        if rows > 0 {
            f(0, rows, data);
        }
        return;
    }

    let total = data.len();
    let mut shadow = shadow::ShadowChunks::new(total, ranges.len());
    let mut chunks: Vec<Chunk<T>> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for (ci, &(start, end)) in ranges.iter().enumerate() {
        let (head, tail) = rest.split_at_mut((end - start) * row_len);
        if shadow::ENABLED {
            shadow.register(ci, start * row_len, head.len());
        }
        chunks.push(Chunk(head.as_mut_ptr(), head.len()));
        rest = tail;
    }
    if shadow::ENABLED {
        shadow.assert_covering();
    }

    let chunks_ref = &chunks;
    let ranges_ref = &ranges;
    let shadow_ref = &shadow;
    parallel_for_each(ranges.len(), ranges.len(), |ci| {
        let Chunk(ptr, len) = chunks_ref[ci];
        if shadow::ENABLED {
            shadow_ref.claim(ci);
        }
        // SAFETY: chunk `ci` is one `split_at_mut` region — disjoint from
        // every other chunk and borrowed from a buffer that outlives this
        // call — and the pool hands index `ci` to exactly one participant,
        // so this is the only `&mut` ever materialised over the region.
        // Both halves are checked under `race_check`: `ShadowChunks`
        // verified bounds/disjointness/coverage at partition time, and
        // `shadow_ref.claim(ci)` above panics on a second claimant before
        // an aliasing `&mut` could exist.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        let (start, end) = ranges_ref[ci];
        f(start, end, chunk);
    });
}

/// Parallel elementwise accumulation: `acc[i] += weight * parts[k][i]`
/// summed over `k` in index order within each disjoint range.
///
/// The output vector is chunked across threads; every thread owns a
/// disjoint slice, so there is no contention, and within a chunk the
/// addition order over `k` is fixed — deterministic result.
pub fn weighted_sum_into(acc: &mut [f32], parts: &[(&[f32], f32)], threads: usize) {
    for (p, _) in parts {
        assert_eq!(p.len(), acc.len(), "weighted_sum_into length mismatch");
    }
    if parts.is_empty() {
        return;
    }
    let n = acc.len();
    let threads = threads.max(1);
    if threads == 1 || n < 1 << 14 {
        for &(p, w) in parts {
            for (a, x) in acc.iter_mut().zip(p) {
                *a += w * x;
            }
        }
        return;
    }
    parallel_over_rows(acc, 1, threads, |start, _end, chunk| {
        for &(p, w) in parts {
            let src = &p[start..start + chunk.len()];
            for (a, x) in chunk.iter_mut().zip(src) {
                *a += w * x;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn repeated_jobs_reuse_the_pool() {
        // The pool is persistent: many small jobs must not accumulate
        // threads (regression guard for per-call spawning).
        for round in 0..200 {
            let out = parallel_map(8, 4, move |i| i + round);
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_jobs_complete() {
        // Client-level fan-out with intra-client jobs underneath — the
        // shape every training round has after the budget split.
        let out = parallel_map(6, 3, |i| {
            let inner = parallel_map(5, 2, move |j| (i + 1) * (j + 1));
            inner.into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|i| (i + 1) * 15).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "boom at index 3")]
    fn worker_panic_propagates_to_caller() {
        parallel_map(16, 4, |i| {
            if i == 3 {
                panic!("boom at index 3");
            }
            i
        });
    }

    #[test]
    fn budget_split_never_oversubscribes() {
        for total in 1..=16 {
            for tasks in 1..=20 {
                let b = ThreadBudget::split(total, tasks);
                assert!(
                    b.outer() * b.inner() <= total.max(1),
                    "total={total} tasks={tasks}"
                );
                assert!(b.outer() >= 1 && b.inner() >= 1);
                assert!(b.outer() <= tasks.max(1));
            }
        }
        assert_eq!(
            ThreadBudget::split(8, 3),
            ThreadBudget { outer: 3, inner: 2 }
        );
        assert_eq!(
            ThreadBudget::split(4, 100),
            ThreadBudget { outer: 4, inner: 1 }
        );
        assert_eq!(
            ThreadBudget::sequential(),
            ThreadBudget { outer: 1, inner: 1 }
        );
    }

    #[test]
    fn intra_threads_scoped_and_restored() {
        assert_eq!(intra_threads(), 1);
        let inner = with_intra_threads(4, || {
            let nested = with_intra_threads(2, intra_threads);
            assert_eq!(nested, 2);
            intra_threads()
        });
        assert_eq!(inner, 4);
        assert_eq!(intra_threads(), 1);
    }

    #[test]
    fn parallel_over_rows_matches_sequential() {
        let rows = 37;
        let row_len = 13;
        let mut gold = vec![0.0f32; rows * row_len];
        let fill = |r0: usize, _r1: usize, chunk: &mut [f32]| {
            for (off, x) in chunk.iter_mut().enumerate() {
                let r = r0 + off / row_len;
                let c = off % row_len;
                *x = (r * 31 + c) as f32 * 0.25;
            }
        };
        fill(0, rows, &mut gold);
        for threads in [1, 2, 3, 8, 64] {
            let mut out = vec![0.0f32; rows * row_len];
            parallel_over_rows(&mut out, row_len, threads, fill);
            assert_eq!(out, gold, "threads={threads}");
        }
    }

    #[test]
    fn parallel_over_rows_empty_is_noop() {
        let mut empty: Vec<f32> = Vec::new();
        parallel_over_rows(&mut empty, 4, 3, |_, _, _| panic!("no rows to visit"));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 17, 100] {
            for parts in [1usize, 2, 3, 7, 200] {
                let ranges = chunk_ranges(n, parts);
                let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                // Contiguous and non-empty.
                let mut prev = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, prev);
                    assert!(e > s);
                    prev = e;
                }
                // Balanced within 1.
                if !ranges.is_empty() {
                    let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn weighted_sum_matches_sequential() {
        let n = 40_000;
        let p1: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let p2: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        // Reference: same part-by-part accumulation order the kernel defines.
        let mut gold = vec![0.5f32; n];
        for (a, x) in gold.iter_mut().zip(&p1) {
            *a += 0.3 * x;
        }
        for (a, y) in gold.iter_mut().zip(&p2) {
            *a += 0.7 * y;
        }
        for threads in [1, 2, 4] {
            let mut acc = vec![0.5f32; n];
            weighted_sum_into(&mut acc, &[(&p1, 0.3), (&p2, 0.7)], threads);
            for (a, g) in acc.iter().zip(&gold) {
                assert_eq!(a.to_bits(), g.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn weighted_sum_empty_parts_is_noop() {
        let mut acc = vec![1.0f32; 10];
        weighted_sum_into(&mut acc, &[], 4);
        assert!(acc.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn dynamic_scheduling_handles_skewed_costs() {
        // Items with wildly different costs still produce ordered output.
        let out = parallel_map(50, 4, |i| {
            if i % 10 == 0 {
                // Simulate a heavy client.
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k.wrapping_mul(k));
                }
                (i, acc & 1)
            } else {
                (i, 0)
            }
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn default_threads_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
