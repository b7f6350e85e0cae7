//! The parallel layer's contract, stated through its public entry points
//! only: what `fedwcm-fl` and `fedwcm-tensor` rely on, whatever runs the
//! participants underneath.
//!
//! - results come back in index order at any thread count, each index
//!   visited exactly once;
//! - a task may fan out again (client-level training over intra-client
//!   kernels) and everything completes;
//! - indices are claimed dynamically, so one expensive item does not hold
//!   a static share of the cheap ones behind it;
//! - the first panic's payload reaches the caller as it was raised, and
//!   the layer keeps working afterwards;
//! - thread-local state a task installs (`with_intra_threads`, or the
//!   task's own) is what code it calls next on that thread sees;
//! - the chunked primitives are bit-identical to their sequential form
//!   for arbitrary `(rows, row_len, threads)`.

use fedwcm_parallel::{
    intra_threads, parallel_map, parallel_over_rows, weighted_sum_into, with_intra_threads,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn map_returns_index_order_at_every_thread_count() {
    for n in [0usize, 1, 2, 7, 100, 257] {
        let gold: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for threads in THREADS {
            let out = parallel_map(n, threads, |i| {
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            assert_eq!(out, gold, "n={n} threads={threads}");
        }
    }
}

#[test]
fn map_moves_owned_non_copy_results() {
    for threads in THREADS {
        let out = parallel_map(33, threads, |i| vec![i; i % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; i % 5], "threads={threads}");
        }
    }
}

#[test]
fn every_index_is_visited_exactly_once() {
    for n in [0usize, 1, 3, 64, 301] {
        for threads in THREADS {
            let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_map(n, threads, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, v) in visits.iter().enumerate() {
                assert_eq!(
                    v.load(Ordering::Relaxed),
                    1,
                    "n={n} threads={threads} i={i}"
                );
            }
        }
    }
}

#[test]
fn nested_maps_complete() {
    for (outer, inner) in [(3usize, 2usize), (2, 4), (8, 8)] {
        let out = parallel_map(6, outer, |i| {
            parallel_map(5, inner, move |j| (i + 1) * (j + 1))
                .into_iter()
                .sum::<usize>()
        });
        let gold: Vec<usize> = (0..6).map(|i| (i + 1) * 15).collect();
        assert_eq!(out, gold, "outer={outer} inner={inner}");
    }
    // Three levels, and a chunked kernel at the bottom.
    let out = parallel_map(4, 2, |i| {
        parallel_map(3, 2, move |j| {
            let mut rows = vec![0u32; 6 * 4];
            parallel_over_rows(&mut rows, 4, 2, |r0, _r1, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = (r0 * 4 + off) as u32 + (i * 10 + j) as u32;
                }
            });
            rows.iter().sum::<u32>()
        })
    });
    for (i, row) in out.iter().enumerate() {
        for (j, &sum) in row.iter().enumerate() {
            let base: u32 = (0..24).sum();
            assert_eq!(sum, base + 24 * (i * 10 + j) as u32);
        }
    }
}

/// Item 0 finishes only after every other item has: under a static split
/// the items queued behind it on the same participant would never run.
/// The wait is on a condvar the other items signal (no sleeping, no
/// spinning); the deadline only turns a hang into a failure.
#[test]
fn skewed_costs_balance_through_dynamic_claiming() {
    const N: usize = 64;
    let done = Mutex::new(0usize);
    let all_others_done = Condvar::new();
    let out = parallel_map(N, 2, |i| {
        let mut count = done.lock().expect("no holder panics");
        if i == 0 {
            while *count < N - 1 {
                let (guard, timeout) = all_others_done
                    .wait_timeout(count, Duration::from_secs(30))
                    .expect("no holder panics");
                count = guard;
                assert!(
                    !timeout.timed_out() || *count == N - 1,
                    "item 0 still holds {} cheap items behind it",
                    N - 1 - *count
                );
            }
        } else {
            *count += 1;
            if *count == N - 1 {
                all_others_done.notify_all();
            }
        }
        i
    });
    assert_eq!(out, (0..N).collect::<Vec<_>>());
}

/// A payload type of the test's own: reaching the caller "verbatim" means
/// it downcasts back to this, not to a message the layer formatted.
#[derive(Debug, PartialEq)]
struct Boom {
    index: usize,
    note: &'static str,
}

fn payload_of(f: impl FnOnce()) -> Box<dyn std::any::Any + Send> {
    catch_unwind(AssertUnwindSafe(f)).expect_err("the task panicked, so the call must")
}

#[test]
fn a_panic_payload_reaches_the_caller_verbatim_and_the_layer_keeps_working() {
    for threads in [2usize, 4, 8] {
        let payload = payload_of(|| {
            parallel_map(16, threads, |i| {
                if i == 3 {
                    panic_any(Boom {
                        index: i,
                        note: "map",
                    });
                }
                i
            });
        });
        assert_eq!(
            payload.downcast_ref::<Boom>(),
            Some(&Boom {
                index: 3,
                note: "map"
            }),
            "threads={threads}"
        );

        // The last chunk panics: whichever participant holds it, the
        // payload comes out of the call.
        let mut rows = vec![0u8; 8 * 3];
        let payload = payload_of(|| {
            parallel_over_rows(&mut rows, 3, threads, |_r0, r1, _chunk| {
                if r1 == 8 {
                    panic_any(Boom {
                        index: r1,
                        note: "rows",
                    });
                }
            });
        });
        assert_eq!(
            payload.downcast_ref::<Boom>(),
            Some(&Boom {
                index: 8,
                note: "rows"
            }),
            "threads={threads}"
        );

        // A `panic!` with a message is a `String` payload, untouched.
        let payload = payload_of(|| {
            parallel_map(16, threads, |i| {
                assert!(i != 5, "boom at index {i}");
                i
            });
        });
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom at index 5")
        );

        // Later calls are unaffected.
        let out = parallel_map(40, threads, |i| i * 2);
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
    }
}

thread_local! {
    /// Stands in for any per-thread state a task installs for its callees
    /// (the tracer's client scope, the training-buffer checkout).
    static TASK_TAG: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[test]
fn thread_locals_set_inside_a_task_are_what_its_callees_see() {
    for threads in THREADS {
        let seen = parallel_map(12, threads, |i| {
            let budget = 1 + i % 3;
            TASK_TAG.with(|t| t.set(i));
            let before = intra_threads();
            let (inside, kernel_rows) = with_intra_threads(budget, || {
                // What `tensor::matmul` does: read the budget on the
                // task's thread, then fan out over rows with it.
                let inner = intra_threads();
                let mut rows = vec![0usize; 9 * 2];
                parallel_over_rows(&mut rows, 2, inner, |r0, _r1, chunk| {
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x = r0 * 2 + off;
                    }
                });
                // A nested map on this thread leaves its locals alone.
                let nested = parallel_map(4, 2, |j| j + 1);
                assert_eq!(nested, [1, 2, 3, 4]);
                (intra_threads(), rows)
            });
            assert_eq!(kernel_rows, (0..18).collect::<Vec<_>>());
            // Restored on the way out, and the task's own tag survived
            // everything it called.
            assert_eq!(intra_threads(), before);
            (inside, budget, TASK_TAG.with(Cell::get))
        });
        for (i, (inside, budget, tag)) in seen.into_iter().enumerate() {
            assert_eq!(inside, budget, "threads={threads} i={i}");
            assert_eq!(tag, i, "threads={threads} i={i}");
        }
    }
}

#[test]
fn intra_budget_is_restored_when_the_task_panics() {
    let before = intra_threads();
    let payload = payload_of(|| {
        with_intra_threads(5, || {
            panic_any(Boom {
                index: 0,
                note: "intra",
            })
        });
    });
    assert!(payload.is::<Boom>());
    assert_eq!(intra_threads(), before);
}

/// A cell value that depends on its absolute position only, so any
/// chunking must reproduce the sequential fill.
fn cell(row: usize, col: usize) -> f32 {
    ((row * 131 + col * 7) % 1009) as f32 * 0.37 - 91.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn over_rows_is_bit_identical_to_sequential(
        rows in 0usize..70, row_len in 1usize..24, threads in 1usize..12,
    ) {
        let fill = |r0: usize, r1: usize, chunk: &mut [f32]| {
            assert_eq!(chunk.len(), (r1 - r0) * row_len, "chunk is rows r0..r1");
            for (off, x) in chunk.iter_mut().enumerate() {
                // Read-modify-write: a chunk visited twice would differ.
                *x += cell(r0 + off / row_len, off % row_len);
            }
        };
        let mut gold = vec![0.25f32; rows * row_len];
        if rows > 0 {
            fill(0, rows, &mut gold);
        }
        let mut out = vec![0.25f32; rows * row_len];
        parallel_over_rows(&mut out, row_len, threads, fill);
        let same = out.iter().zip(&gold).all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(same, "rows={} row_len={} threads={}", rows, row_len, threads);
    }
}

proptest! {
    // Above the primitive's own inline threshold (1 << 14 elements), so
    // the chunked path is what runs.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn weighted_sum_is_bit_identical_to_sequential(
        n in 16_384usize..20_000, parts in 1usize..5, threads in 1usize..9, seed in 0u64..1_000,
    ) {
        let data: Vec<Vec<f32>> = (0..parts)
            .map(|k| {
                (0..n)
                    .map(|i| cell(i + seed as usize, k) * (1.0 + k as f32))
                    .collect()
            })
            .collect();
        let weighted: Vec<(&[f32], f32)> = data
            .iter()
            .enumerate()
            .map(|(k, p)| (p.as_slice(), 0.3 + 0.17 * k as f32))
            .collect();
        // The order the primitive defines: part by part, element by element.
        let mut gold = vec![0.5f32; n];
        for &(p, w) in &weighted {
            for (a, x) in gold.iter_mut().zip(p) {
                *a += w * x;
            }
        }
        let mut acc = vec![0.5f32; n];
        weighted_sum_into(&mut acc, &weighted, threads);
        let same = acc.iter().zip(&gold).all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(same, "n={} parts={} threads={}", n, parts, threads);
    }
}
