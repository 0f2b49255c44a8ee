//! Holds the heap allocations of the per-block set-up down.
//!
//! A counting global allocator counts the allocations this test's own
//! thread makes while it builds the DAG and the context of each of the
//! first 1,000 corpus blocks on the paper's machine and runs a λ = 1
//! search (the list tier): the list seed, its evaluation, the root bound,
//! the kernel's set-up and the final replay. Everything before a search's
//! first Ω is paid on every block, most of which settle in a few hundred
//! Ω, so an allocation there is paid by the whole corpus.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pipesched::core::{search, SchedContext, SearchConfig};
use pipesched::ir::DepDag;
use pipesched::machine::presets;
use pipesched::synth::CorpusSpec;

/// Blocks measured.
const BLOCKS: usize = 1_000;

/// Most allocations a block may cost on average.
const MAX_PER_BLOCK: f64 = 45.0;

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

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

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn set_up_and_list_tier_allocate_little() {
    let spec = CorpusSpec::paper_default();
    let blocks: Vec<_> = (0..BLOCKS).map(|k| spec.block(k)).collect();
    let machine = presets::paper_simulation();
    let cfg = SearchConfig::with_lambda(1);
    let mut nops = 0u64;
    ON.with(|on| on.set(true));
    for block in &blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        nops += u64::from(search(&ctx, &cfg).nops);
    }
    ON.with(|on| on.set(false));
    let per_block = COUNT.with(Cell::get) as f64 / BLOCKS as f64;
    println!("{per_block:.2} allocations per block over {BLOCKS} blocks ({nops} NOPs)");
    assert!(
        per_block <= MAX_PER_BLOCK,
        "{per_block:.2} allocations per block, more than {MAX_PER_BLOCK}"
    );
}
