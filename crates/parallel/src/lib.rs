//! Deterministic data-parallel utilities on scoped threads, in safe Rust.
//!
//! The FL engine trains the clients sampled in a round concurrently; each
//! client's work is independent (own RNG stream, own model copy), so the
//! natural shape is an indexed parallel map whose results are collected
//! **in index order** — making the subsequent server aggregation bitwise
//! deterministic regardless of thread count or scheduling.
//!
//! Every primitive is one [`std::thread::scope`]: the caller plus up to
//! `threads − 1` named helper threads that live for the call, borrow the
//! caller's data for exactly that long, and are joined before it returns.
//! Nothing is shared but what the borrow checker lets a `Sync` closure
//! share: a participant *owns* the results it produces until the join
//! hands them to the caller, and a mutable buffer is handed out as
//! `split_at_mut` chunks. The crate is `#![forbid(unsafe_code)]`.
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
//! Writes the compiler does allow (a `Mutex`, an atomic) are explicit at
//! the call site; `unsafe` is denied workspace-wide
//! (`[workspace.lints.rust]`), so an `unsafe impl Send/Sync` is a compile
//! error outside the three `#[expect(unsafe_code)]` sites DESIGN §15 lists.
//!
//! # Nesting and determinism
//!
//! A task may call back into this crate (client-level training runs
//! row-parallel GEMMs): the nested call is its own scope with its own
//! helpers, the calling participant always works through its own call's
//! items, so nothing can deadlock, and [`ThreadBudget`] keeps the product
//! of the two levels at or below the configured thread count. Scheduling
//! decides *which thread* runs an index, never what it computes or where
//! the result lands, so every primitive is bitwise deterministic across
//! thread counts.
//!
//! When the machine exposes a single core — or `FEDWCM_THREADS=1` —
//! everything runs inline on the caller thread, which also keeps stack
//! traces simple.

#![forbid(unsafe_code)]
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

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{Builder, ScopedJoinHandle};

pub mod sync;

/// Read a `FEDWCM_THREADS` value: unset is `None`, `0` means 1, and
/// anything that is not a decimal count is an error naming the variable
/// and the value — a typo must not quietly become "every core".
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(value) = raw else { return Ok(None) };
    match value.parse::<usize>() {
        Ok(n) => Ok(Some(n.max(1))),
        Err(e) => Err(format!(
            "FEDWCM_THREADS={value:?} is not a thread count ({e})"
        )),
    }
}

/// Resolve the worker count: the `FEDWCM_THREADS` env var if set (`0`
/// means 1), otherwise [`std::thread::available_parallelism`].
///
/// # Panics
///
/// If `FEDWCM_THREADS` is set to something that is not a decimal count
/// (`four`, `4 `): a "1 vs 4" comparison with a typo in it would
/// otherwise compare every core with every core and pass.
#[expect(
    clippy::disallowed_methods,
    reason = "FEDWCM_THREADS only selects the worker count, and every primitive in \
              this crate is bitwise deterministic across thread counts, so this \
              read cannot change simulation output"
)]
pub fn default_threads() -> usize {
    let raw = std::env::var_os("FEDWCM_THREADS");
    let raw = raw.as_deref().map(std::ffi::OsStr::to_string_lossy);
    match parse_threads(raw.as_deref()) {
        Ok(Some(n)) => n,
        #[expect(
            clippy::disallowed_methods,
            reason = "this crate alone observes the host's core count; everything \
                      else takes an explicit thread budget"
        )]
        Ok(None) => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        #[expect(
            clippy::panic,
            reason = "a malformed setting is the operator's to fix before the run \
                      starts; every fallback silently changes what was asked for"
        )]
        Err(msg) => panic!("{msg}"),
    }
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

    /// Threads for task-level fan-out.
    pub fn outer(&self) -> usize {
        self.outer
    }

    /// Threads each task may use internally.
    pub fn inner(&self) -> usize {
        self.inner
    }
}

/// Run `work` on the caller and on up to `helpers` named scoped threads
/// (fewer if the OS refuses a spawn — the caller always participates, so
/// the work still completes), and return every participant's result, the
/// caller's first. All helpers are joined before the first panic payload,
/// if any, is re-raised as it was.
fn fan_out<R, W>(helpers: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn() -> R + Sync,
{
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|s| {
        let spawned: Vec<ScopedJoinHandle<'_, R>> = (0..helpers)
            .map_while(|k| {
                Builder::new()
                    .name(format!("fedwcm-worker-{k}"))
                    .spawn_scoped(s, &work)
                    .ok()
            })
            .collect();
        let own = work();
        std::iter::once(Ok(own))
            .chain(spawned.into_iter().map(ScopedJoinHandle::join))
            .collect()
    });
    joined
        .into_iter()
        .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Run `f(i)` for every `i in 0..n` with up to `threads` participants
/// (the caller plus scoped helpers). No result collection; use this when
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
    parallel_map(n, threads, f);
}

/// Apply `f` to every index in `0..n`, producing a `Vec` ordered by index.
///
/// Work is distributed dynamically (atomic claim counter), so
/// heterogeneous per-item costs — e.g. clients with different data
/// volumes in FedWCM-X — balance automatically. Each participant keeps
/// the `(i, value)` pairs it produced in a `Vec` of its own until the
/// join; the caller merges them by index, so the collected order is
/// always `0..n` regardless of thread count.
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

    // `Relaxed`: the counter publishes nothing but itself — each index
    // goes to exactly one `fetch_add`, and the values reach the caller
    // through the scope's join.
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, T)> = fan_out(threads - 1, || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break mine;
            }
            mine.push((i, f(i)));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(pairs.len(), n, "every index is claimed exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, value)| value).collect()
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

/// Partition `data` — a dense `rows × row_len` buffer — into at most
/// `threads` contiguous row chunks and run `f(row_start, row_end, chunk)`
/// on each in parallel.
///
/// The chunks are `split_at_mut` regions, each moved to the one
/// participant that takes it, so writes need no lock; because the
/// chunking is by whole rows and `f` computes rows independently, the
/// result is **bitwise identical** to running `f(0, rows, data)`
/// sequentially.
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

    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for &(start, end) in ranges.iter().rev() {
        let (head, tail) = rest.split_at_mut(start * row_len);
        chunks.push((start, end, tail));
        rest = head;
    }
    // Popped in row order. A queue rather than one chunk per spawned
    // closure, because a refused spawn would take the chunk it was given
    // down with it.
    let queue = Mutex::new(chunks);
    fan_out(ranges.len() - 1, || loop {
        let Some((start, end, chunk)) = sync::lock_recover(&queue).pop() else {
            break;
        };
        f(start, end, chunk);
    });
}

/// Parallel elementwise accumulation: `acc[i] += weight * parts[k][i]`
/// summed over `k` in index order within each disjoint range.
///
/// The output vector is chunked across threads ([`parallel_over_rows`]),
/// and within a chunk the addition order over `k` is fixed —
/// deterministic result.
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

// What the entry points promise — order, nesting, dynamic claiming, panic
// payloads, bit identity of the chunked primitives — is stated once, in
// `tests/contract.rs`; the partition arithmetic in `tests/chunk_partition.rs`.
#[cfg(test)]
mod tests {
    use super::*;

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
    fn parallel_over_rows_empty_is_noop() {
        let mut empty: Vec<f32> = Vec::new();
        parallel_over_rows(&mut empty, 4, 3, |_, _, _| panic!("no rows to visit"));
    }

    #[test]
    fn weighted_sum_empty_parts_is_noop() {
        let mut acc = vec![1.0f32; 10];
        weighted_sum_into(&mut acc, &[], 4);
        assert!(acc.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn default_threads_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_setting_parses_or_names_what_is_wrong() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some("0")), Ok(Some(1)), "0 keeps meaning 1");
        for typo in ["four", "4 ", " 4", "", "-1", "4.0", "0x4", "\u{fffd}"] {
            let msg = parse_threads(Some(typo)).expect_err(typo);
            assert!(msg.contains("FEDWCM_THREADS"), "{msg}");
            assert!(msg.contains(&format!("{typo:?}")), "{msg}");
        }
    }
}
