//! A server step allocates nothing parameter-sized once its first round
//! has sized what it keeps: the work space a method aggregates through
//! belongs to the method and lives across rounds, like its state.
//!
//! A counting global allocator watches each `aggregate` call on the thread
//! that makes it, for every method of the zoo. Every client takes part in
//! every round, so the per-client state SCAFFOLD, FedDyn and FedSMOO
//! allocate on first sight is all allocated in round 0.

use fedwcm_experiments::{build_method, ExpConfig, Method, Scale};
use fedwcm_suite::data::synth::DatasetPreset;
use fedwcm_suite::fl::{ClientEnv, ClientUpdate, FederatedAlgorithm, RoundInput, RoundLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on the threads that asked it to the
/// allocations of at least a given size.
struct Counting;

thread_local! {
    /// Smallest allocation counted on this thread; 0 while not counting.
    static FLOOR: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least `FLOOR` bytes counted on this thread.
    static COUNTED: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator also serves threads whose locals are
    // already torn down.
    let _ = FLOOR.try_with(|floor| {
        if floor.get() > 0 && size >= floor.get() {
            let _ = COUNTED.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every method forwards to `System`"
)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals and never allocates, so it cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size, which
        // is all `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`: the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is non-zero and does not overflow when
        // rounded up to the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A method whose every `aggregate` call is watched: how many allocations
/// of a parameter vector's size or more it made, round by round.
struct Watched {
    inner: Box<dyn FederatedAlgorithm>,
    counts: Vec<usize>,
}

impl FederatedAlgorithm for Watched {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        self.inner.local_train(env, global)
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        COUNTED.with(|n| n.set(0));
        FLOOR.with(|f| f.set(std::mem::size_of_val(global)));
        let log = self.inner.aggregate(global, input);
        FLOOR.with(|f| f.set(0));
        self.counts.push(COUNTED.with(Cell::get));
        log
    }
}

#[test]
fn no_method_allocates_a_parameter_sized_buffer_after_round_0() {
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 4003);
    let mut task = exp.prepare();
    task.exp.fl.participation = 1.0;
    let sim = task.simulation();
    assert!(sim.cfg.rounds >= 3, "rounds after the first to watch");

    let mut allocating = Vec::new();
    for method in Method::ALL {
        let mut watched = Watched {
            inner: build_method(method, &task),
            counts: Vec::new(),
        };
        let _ = sim.run(&mut watched);
        assert_eq!(watched.counts.len(), sim.cfg.rounds, "{}", method.label());
        if watched.counts[1..].iter().any(|&n| n > 0) {
            allocating.push(format!("{}: {:?}", method.label(), watched.counts));
        }
    }
    assert!(
        allocating.is_empty(),
        "parameter-sized allocations per round:\n{}",
        allocating.join("\n")
    );
}
