//! A counting global allocator, so a binary can report how many heap
//! allocations a piece of work makes on its own thread.
//!
//! A binary installs it with
//! `#[global_allocator] static ALLOC: Counting = Counting;` (`repro`
//! does); [`allocations`] then counts what a closure allocates. Where it
//! is not installed, as in this crate's unit tests, [`allocations`]
//! reports `None`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator, counting allocations and reallocations per
/// thread.
pub struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Set by the first allocation [`Counting`] serves.
static INSTALLED: AtomicBool = AtomicBool::new(false);

fn note() {
    // relaxed-ok: a flag with no payload; it only says the counter runs.
    INSTALLED.store(true, Ordering::Relaxed);
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a thread-local `Cell` and a flag, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` and return its result with the allocations it made on this
/// thread, or `None` when [`Counting`] is not the global allocator.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = COUNT.with(Cell::get);
    let out = f();
    let count = COUNT.with(Cell::get) - before;
    (out, INSTALLED.load(Ordering::Relaxed).then_some(count))
}
