//! Proof that the hot path is allocation-free: cloning a code at or
//! below the inline cap and probing the table never touch the heap, and
//! a child past the cap costs exactly one allocation.
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
    // Set up outside the measured window: a code exactly at the inline
    // cap (the worst in-cap case) and a table covering part of its
    // lineage.
    let code = code_of_depth(Code::INLINE_CAP);
    let shallow = code_of_depth(4);

    let mut table = CodeSet::new();
    table.insert(&shallow.sibling().unwrap());
    table.insert(&code_of_depth(7));

    let before = allocations();
    let mut hits = 0u32;
    for _ in 0..1000 {
        let copy = code.clone();
        let again = copy.clone();
        if table.contains(&again) {
            hits += 1;
        }
        if table.contains(&shallow) {
            hits += 1;
        }
        std::hint::black_box(&again);
    }
    let after = allocations();

    assert_eq!(hits, 1000, "the depth-7 ancestor covers the deep code");
    assert_eq!(
        after - before,
        0,
        "clone + contains at depth <= INLINE_CAP must not allocate"
    );
}

#[test]
fn child_allocates_once_past_the_cap_and_never_below() {
    for depth in 0..Code::INLINE_CAP + 6 {
        let parent = code_of_depth(depth);
        let before = allocations();
        let child = std::hint::black_box(parent.child(99, true));
        let allocated = allocations() - before;
        let expected = u64::from(child.depth() > Code::INLINE_CAP);
        assert_eq!(
            allocated, expected,
            "child of a depth-{depth} code: {allocated} allocations (realloc counts)"
        );
    }
}
