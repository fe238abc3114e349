//! Proof of the code/table hot path's heap traffic: cloning the root and
//! probing the table never touch the heap, and a child code costs
//! exactly one allocation at every depth.
//!
//! This is its own integration-test binary so the counting allocator
//! observes only this binary's allocations; the counter is per thread
//! because the harness runs the tests concurrently.

use ftbb_tree::{Code, CodeSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A code of `depth` decisions on vars 1..=depth.
fn code_of_depth(depth: usize) -> Code {
    let decisions: Vec<(ftbb_tree::Var, bool)> =
        (0..depth).map(|i| (i as u16 + 1, i % 2 == 0)).collect();
    Code::from_decisions(&decisions)
}

#[test]
fn clone_and_table_contains_do_not_allocate() {
    // Set up outside the measured window: codes at depths 0–20 and a
    // table covering part of their lineage.
    let codes: Vec<Code> = (0..=20).map(code_of_depth).collect();
    let shallow = &codes[4];

    let mut table = CodeSet::new();
    table.insert(&shallow.sibling().unwrap());
    table.insert(&codes[7]);

    let before = allocations();
    let mut hits = 0u32;
    for _ in 0..100 {
        let root = std::hint::black_box(Code::root()).clone();
        std::hint::black_box(&root);
        for code in &codes {
            if table.contains(code) {
                hits += 1;
            }
        }
    }
    let after = allocations();

    assert_eq!(hits, 100 * 14, "the depth-7 ancestor covers depths 7–20");
    assert_eq!(
        after - before,
        0,
        "cloning the root and table contains must not allocate"
    );
}

#[test]
fn child_allocates_exactly_once_at_every_depth() {
    for depth in 0..=20 {
        let parent = code_of_depth(depth);
        let before = allocations();
        let child = std::hint::black_box(parent.child(99, true));
        let allocated = allocations() - before;
        assert_eq!(child.depth(), depth + 1);
        assert_eq!(
            allocated, 1,
            "child of a depth-{depth} code: {allocated} allocations (realloc counts)"
        );
    }
}
