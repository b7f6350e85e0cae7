//! Deterministic race sanitizer for the pool's disjoint-write contract.
//!
//! Every `unsafe` block in this crate leans on one discipline: the pool
//! hands each index of a job to **exactly one** participant, that
//! participant is the **only** writer of the index-owned state (a
//! [`crate::parallel_map`] slot or a [`crate::parallel_over_rows`]
//! chunk), and the caller reads results only **after** the job's join
//! (`active == 0` observed under `done_lock`), which is the
//! happens-before edge publishing the writes. This module turns that
//! prose into machine-checked shadow state behind the `race_check`
//! cargo feature.
//!
//! # Shadow state
//!
//! Each sanitized job owns a shadow table with one atomic cell per
//! index. A cell starts at `0` (unwritten) and is claimed by a single
//! compare-and-swap that packs `(epoch, writer)` — the job's globally
//! unique epoch and the participant slot of the writing thread
//! (`0` = submitting caller, `1 + id` = pool worker `id`, mirroring
//! [`crate::pool_stats`]). A second writer's CAS fails and panics with
//! the index, both writer slots, and the epoch. Chunk partitions are
//! additionally checked for bounds, pairwise overlap, and exact
//! coverage before any worker touches them.
//!
//! # Happens-before
//!
//! [`ShadowSlots::seal`] runs on the submitting caller *after*
//! `pool::run_indexed` returns — i.e. after the join — so observing an
//! unwritten cell there proves a non-covering execution, and
//! [`ShadowSlots::assert_readable`] proves no result is read before
//! its write epoch completed. The sanitizer never synchronises on the
//! caller's behalf: it only *observes* through the same join the real
//! code relies on, so a missing happens-before edge surfaces as a
//! stale shadow cell rather than being masked.
//!
//! # Cost
//!
//! With the feature off, [`ENABLED`] is `false`: every entry point
//! returns immediately, constructors allocate nothing, and the
//! branches fold away at compile time — the same zero-cost discipline
//! as `debug_invariants` (`fedwcm-tensor`'s `invariants` module).
//! Detection panics are deterministic in *what* they report (index,
//! epoch, bound), though *which* racing participant loses the CAS is
//! scheduling-dependent — exactly one of them always panics.

#![expect(
    clippy::panic,
    reason = "the sanitizer's whole job is to crash loudly, naming index and \
              participant, on a broken aliasing invariant; every panic below is \
              one such detection"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `true` when the crate is compiled with the `race_check` feature.
/// Every check in this module starts with `if !ENABLED { return; }`,
/// so release builds without the feature pay nothing.
pub const ENABLED: bool = cfg!(feature = "race_check");

/// Bits of a shadow cell reserved for the writer slot. The pool caps
/// workers at 256 (`MAX_POOL_WORKERS`), so `1 + slot` always fits.
const WRITER_BITS: u32 = 12;
const WRITER_MASK: u64 = (1 << WRITER_BITS) - 1;

/// Monotone source of job epochs; `0` is reserved for "disabled".
static EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Pack a job epoch and a writer slot into one shadow-cell word.
fn pack(epoch: u64, writer: usize) -> u64 {
    (epoch << WRITER_BITS) | (1 + writer as u64)
}

/// Writer slot recorded in a shadow-cell word (see [`crate::PoolStats::per_worker_items`]
/// for the slot numbering: `0` = submitting caller, `1 + id` = worker `id`).
fn writer_of(cell: u64) -> u64 {
    (cell & WRITER_MASK) - 1
}

/// Job epoch recorded in a shadow-cell word.
fn epoch_of(cell: u64) -> u64 {
    cell >> WRITER_BITS
}

/// Shadow table for index-owned result slots ([`crate::parallel_map`]).
///
/// One cell per slot records `(epoch, writer)` on first write; the
/// table is *sealed* after the job's join, and reads assert the seal —
/// so a double write, a never-written slot, and a read racing the
/// write epoch each panic with a named index and worker.
pub struct ShadowSlots {
    epoch: u64,
    cells: Vec<AtomicU64>,
    sealed: AtomicBool,
}

impl ShadowSlots {
    /// Shadow table for `n` slots. Allocates nothing when the
    /// `race_check` feature is off.
    pub fn new(n: usize) -> Self {
        if !ENABLED {
            return ShadowSlots {
                epoch: 0,
                cells: Vec::new(),
                sealed: AtomicBool::new(false),
            };
        }
        ShadowSlots {
            epoch: next_epoch(),
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sealed: AtomicBool::new(false),
        }
    }

    /// Record the current participant as the writer of slot `i`.
    /// Call immediately **before** the real write: on a double write
    /// the loser panics before the aliasing store can land.
    pub fn record_write(&self, i: usize) {
        if !ENABLED {
            return;
        }
        let me = crate::pool::participant_slot();
        if i >= self.cells.len() {
            panic!(
                "race_check: out-of-bounds write to slot {i} by participant {me} \
                 (epoch {}, {} slots)",
                self.epoch,
                self.cells.len()
            );
        }
        let tag = pack(self.epoch, me);
        if let Err(prev) =
            self.cells[i].compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
        {
            // Double write detected — this is
            // the data race the feature exists to surface.
            panic!(
                "race_check: double write to slot {i} in epoch {}: participant {} \
                 wrote it first, participant {me} wrote it again",
                epoch_of(prev),
                writer_of(prev),
            );
        }
    }

    /// Seal the table after the job's join. Must run on the submitting
    /// caller **after** `pool::run_indexed` returned — the join is the
    /// happens-before edge that makes every cell's final value visible
    /// here. Panics if any slot was never written (non-covering job).
    pub fn seal(&self) {
        if !ENABLED {
            return;
        }
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.load(Ordering::Acquire) == 0 {
                // A hole in the partition means
                // some result slot holds garbage; crashing beats reading it.
                panic!(
                    "race_check: non-covering job in epoch {}: slot {i} was never \
                     written before the join",
                    self.epoch
                );
            }
        }
        self.sealed.store(true, Ordering::Release);
    }

    /// Assert slot `i` may be read: its write epoch completed (the
    /// table was sealed after the join) and the slot was written.
    pub fn assert_readable(&self, i: usize) {
        if !ENABLED {
            return;
        }
        if !self.sealed.load(Ordering::Acquire) {
            // Reading a slot before the join is
            // exactly the use-before-publication race being sanitized.
            panic!(
                "race_check: slot {i} read before its write epoch ({}) completed \
                 (table not sealed — reader raced the job's join)",
                self.epoch
            );
        }
        if i < self.cells.len() && self.cells[i].load(Ordering::Acquire) == 0 {
            // `seal()` already guards this; kept as
            // a direct check for shadow tables sealed by foreign code.
            panic!(
                "race_check: slot {i} read but never written (epoch {})",
                self.epoch
            );
        }
    }
}

/// Shadow table for a chunked partition of one buffer
/// ([`crate::parallel_over_rows`]).
///
/// Chunks are registered sequentially at partition time (bounds and
/// pairwise-overlap checked as they arrive), coverage is asserted
/// before the job is submitted, and each chunk is *claimed* by the
/// participant that turns its raw region into a `&mut` — a second
/// claim panics with both worker slots.
pub struct ShadowChunks {
    epoch: u64,
    /// Total element count of the partitioned buffer.
    total: usize,
    /// Registered `(start, end)` element ranges, in registration order.
    bounds: Vec<(usize, usize)>,
    /// One claim cell per chunk, packed like [`ShadowSlots`] cells.
    claims: Vec<AtomicU64>,
}

impl ShadowChunks {
    /// Shadow table for a buffer of `total` elements split into at most
    /// `chunks` regions. Allocates nothing when `race_check` is off.
    pub fn new(total: usize, chunks: usize) -> Self {
        if !ENABLED {
            return ShadowChunks {
                epoch: 0,
                total,
                bounds: Vec::new(),
                claims: Vec::new(),
            };
        }
        ShadowChunks {
            epoch: next_epoch(),
            total,
            bounds: Vec::with_capacity(chunks),
            claims: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Register chunk `ci` covering elements `[start, start + len)`.
    /// Runs on the partitioning thread before the job is submitted.
    /// Panics when the chunk leaves the buffer or overlaps a
    /// previously registered chunk.
    pub fn register(&mut self, ci: usize, start: usize, len: usize) {
        if !ENABLED {
            return;
        }
        let end = start.saturating_add(len);
        if end > self.total || start.checked_add(len).is_none() {
            // An out-of-bounds chunk would hand a
            // worker a &mut past the buffer — crash before it can.
            panic!(
                "race_check: out-of-bounds chunk {ci} in epoch {}: [{start}, {end}) \
                 outside buffer of {} elements",
                self.epoch, self.total
            );
        }
        for (pi, &(ps, pe)) in self.bounds.iter().enumerate() {
            if start < pe && ps < end {
                // Overlapping chunks are two live
                // &mut over the same elements — the race being sanitized.
                panic!(
                    "race_check: chunk {ci} [{start}, {end}) overlaps chunk {pi} \
                     [{ps}, {pe}) in epoch {}",
                    self.epoch
                );
            }
        }
        self.bounds.push((start, end));
    }

    /// Assert the registered chunks exactly cover `[0, total)`.
    /// Runs after registration, before the job is submitted.
    pub fn assert_covering(&self) {
        if !ENABLED {
            return;
        }
        let covered: usize = self.bounds.iter().map(|&(s, e)| e - s).sum();
        if covered != self.total {
            // A hole in the partition leaves
            // elements no worker owns — results would silently go stale.
            panic!(
                "race_check: non-covering partition in epoch {}: chunks cover \
                 {covered} of {} elements",
                self.epoch, self.total
            );
        }
    }

    /// Record the current participant as the claimant of chunk `ci`,
    /// immediately before it materialises the chunk's `&mut`. A second
    /// claim of the same chunk panics with both participant slots.
    pub fn claim(&self, ci: usize) {
        if !ENABLED {
            return;
        }
        let me = crate::pool::participant_slot();
        if ci >= self.claims.len() {
            // Claiming a chunk that was never
            // registered means the partition and the job disagree on n.
            panic!(
                "race_check: claim of unregistered chunk {ci} by participant {me} \
                 (epoch {}, {} chunks)",
                self.epoch,
                self.claims.len()
            );
        }
        let tag = pack(self.epoch, me);
        if let Err(prev) =
            self.claims[ci].compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
        {
            // Two claimants of one chunk are two
            // live &mut over the same region — the race being sanitized.
            panic!(
                "race_check: double claim of chunk {ci} in epoch {}: participant {} \
                 claimed it first, participant {me} claimed it again",
                epoch_of(prev),
                writer_of(prev),
            );
        }
    }
}

/// Shadow exactly-once table for the pool's index claims. Embedded in
/// every `pool::Job` under `race_check`: the atomic claim counter is
/// supposed to hand each index out once, and this table proves it at
/// the source — a double execution panics inside the pool before any
/// caller-visible state can alias.
pub struct ClaimTable {
    epoch: u64,
    cells: Vec<AtomicU64>,
}

impl ClaimTable {
    /// Claim table for a job of `n` indices.
    pub fn new(n: usize) -> Self {
        if !ENABLED {
            return ClaimTable {
                epoch: 0,
                cells: Vec::new(),
            };
        }
        ClaimTable {
            epoch: next_epoch(),
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record that the current participant claimed index `i`.
    pub fn record(&self, i: usize) {
        if !ENABLED || i >= self.cells.len() {
            return;
        }
        let me = crate::pool::participant_slot();
        let tag = pack(self.epoch, me);
        if let Err(prev) =
            self.cells[i].compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
        {
            // The fetch_add counter handed one
            // index to two participants — the root invariant is broken.
            panic!(
                "race_check: index {i} claimed twice in epoch {}: participant {} \
                 claimed it first, participant {me} claimed it again",
                epoch_of(prev),
                writer_of(prev),
            );
        }
    }
}
