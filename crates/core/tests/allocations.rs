//! Exact heap-allocation counts of the Table III greedy on fixed inputs.
//!
//! Every `Q` solve of a greedy run shares one SoA view, one set of solve
//! buffers and one fill cache, so a solve allocates the allocation it
//! returns, and the cache one key per fill it stores (DESIGN §15). These
//! pins catch a per-solve buffer coming back: a `Vec` built per solve
//! adds at least one allocation per solve, 16 and 286 here.
//!
//! Telemetry stays off, so the pins count the solver's allocations
//! alone: with it on, the telemetry sink also allocates each counter's
//! name on every increment, about 11 more allocations per solve.
//!
//! The pins hold in both build profiles: a debug build adds the
//! allocations of the greedy's conflict-free check (`DEBUG_CHECK`).
//! They follow std's growth policy for `Vec` and `HashMap` buffers, so
//! a toolchain that changes it moves them.
//!
//! The counting allocator wraps the system allocator for this test
//! binary alone, which is why the counts live in their own binary, as
//! `work_counters.rs` does. It counts per thread, so tests running in
//! parallel do not add to each other's counts.

use fcr_core::greedy::GreedyAllocator;
use fcr_core::interfering::InterferingProblem;
use fcr_core::partition::Partition;
use fcr_core::problem::UserState;
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;
use fcr_sim::massive::{generate_problem, MassiveConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes
/// (`alloc`, `alloc_zeroed` and `realloc` calls).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its allocations go
    // uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap allocations `work` makes on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// The allocations of the greedy's `debug_assert!` that its assignment
/// is conflict-free, per greedy run: a debug build collects one list of
/// the channels' holders and one per held channel, 5 on these fixtures.
const DEBUG_CHECK: u64 = if cfg!(debug_assertions) { 5 } else { 0 };

/// The fig-5 chain: three FBSs in a path, two users each, four
/// channels.
fn fig5() -> InterferingProblem {
    let user = |w: f64, fbs: usize| UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.5, 0.9).unwrap();
    InterferingProblem::new(
        vec![
            user(30.2, 0),
            user(27.6, 0),
            user(28.8, 1),
            user(30.2, 1),
            user(27.6, 2),
            user(28.8, 2),
        ],
        InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))]),
        vec![0.9, 0.8, 0.85, 0.7],
    )
    .unwrap()
}

/// The fig-5 greedy run: 16 `Q` solves (`work_counters.rs`) and 67
/// fills stored. Each solve cloned its users and built its own view and
/// buffers before they were shared: 864 allocations then.
#[test]
fn the_fig5_greedy_run_allocates_exactly() {
    let problem = fig5();
    let allocator = GreedyAllocator::new();
    let counted = allocations(|| {
        allocator.allocate(&problem);
    });
    assert_eq!(counted, 220 + DEBUG_CHECK);
}

/// The 16 cluster greedies of the 64-FBS massive slot of seed 20110620:
/// 286 `Q` solves (`work_counters.rs`) and 990 fills stored; 14 379
/// allocations before the solves shared their view and buffers.
#[test]
fn the_massive_cluster_greedies_allocate_exactly() {
    let config = MassiveConfig {
        num_fbss: 64,
        ..MassiveConfig::default()
    };
    let partition = Partition::of(&generate_problem(&config, 20110620));
    let allocator = GreedyAllocator::new();
    let counted = allocations(|| {
        for cluster in partition.clusters() {
            allocator.allocate(cluster.problem());
        }
    });
    assert_eq!(counted, 3568 + 16 * DEBUG_CHECK);
}
