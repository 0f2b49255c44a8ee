//! Holds the heap allocations of the per-block set-up and of the proof
//! checker down.
//!
//! A counting global allocator counts the allocations each test's own
//! thread makes while:
//!
//! * it builds the DAG and the context of each of the first 1,000 corpus
//!   blocks on the paper's machine and runs a λ = 1 search (the list
//!   tier): the list seed, its evaluation, the root bound, the kernel's
//!   set-up and the final replay. Everything before a search's first Ω is
//!   paid on every block, most of which settle in a few hundred Ω, so an
//!   allocation there is paid by the whole corpus;
//! * the independent checker replays the pooled certificate of each of
//!   the first 500 corpus blocks of 24–40 instructions, the blocks the
//!   `prove_hard` benchmark proves. Its replay state is sized once per
//!   certificate, so no event allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pipesched::core::{parallel_prove, search, ParallelConfig, SchedContext, SearchConfig};
use pipesched::ir::DepDag;
use pipesched::machine::presets;
use pipesched::proof::{check_certificate, ProofVerdict};
use pipesched::synth::CorpusSpec;

/// Blocks measured.
const BLOCKS: usize = 1_000;

/// Most allocations a block may cost on average.
const MAX_PER_BLOCK: f64 = 45.0;

/// Certificates checked.
const CERTIFICATES: usize = 500;

/// Most allocations one certificate's check may cost, however many
/// events it has.
const MAX_PER_CERTIFICATE: u64 = 16;

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

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.with(Cell::get);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, COUNT.with(Cell::get) - before)
}

#[test]
fn set_up_and_list_tier_allocate_little() {
    let spec = CorpusSpec::paper_default();
    let blocks: Vec<_> = (0..BLOCKS).map(|k| spec.block(k)).collect();
    let machine = presets::paper_simulation();
    let cfg = SearchConfig::with_lambda(1);
    let (nops, count) = allocations(|| {
        let mut nops = 0u64;
        for block in &blocks {
            let dag = DepDag::build(block);
            let ctx = SchedContext::new(block, &dag, &machine);
            nops += u64::from(search(&ctx, &cfg).nops);
        }
        nops
    });
    let per_block = count as f64 / BLOCKS as f64;
    println!("{per_block:.2} allocations per block over {BLOCKS} blocks ({nops} NOPs)");
    assert!(
        per_block <= MAX_PER_BLOCK,
        "{per_block:.2} allocations per block, more than {MAX_PER_BLOCK}"
    );
}

#[test]
fn the_checker_allocates_per_certificate_not_per_event() {
    let spec = CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let cfg = SearchConfig::default();
    let pool = ParallelConfig::with_threads(1);
    let (mut checked, mut total, mut most) = (0usize, 0u64, (0u64, 0usize));
    let mut longest = (0usize, 0u64);
    for k in 0.. {
        if checked == CERTIFICATES {
            break;
        }
        let block = spec.block(k);
        if !(24..=40).contains(&block.len()) {
            continue;
        }
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (out, proof) = parallel_prove(&ctx, &cfg, &pool);
        let cert = proof.merge();
        let (check, count) = allocations(|| check_certificate(&block, &machine, &cert));
        assert!(check.is_certified(), "corpus block {k}: {}", check.report);
        assert_eq!(
            check.verdict,
            ProofVerdict::OptimalCertified { nops: out.nops }
        );
        let events = cert.events.len();
        assert!(
            count <= MAX_PER_CERTIFICATE,
            "corpus block {k}: {count} allocations to check {events} events, more than \
             {MAX_PER_CERTIFICATE}"
        );
        checked += 1;
        total += count;
        most = most.max((count, events));
        longest = longest.max((events, count));
    }
    println!(
        "{:.2} allocations per certificate over {checked} certificates; most {} (at {} events); \
         the longest, {} events, took {}",
        total as f64 / checked as f64,
        most.0,
        most.1,
        longest.0,
        longest.1
    );
}
