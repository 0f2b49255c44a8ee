//! Windowed scheduling of very large blocks (§5.3's future work).
//!
//! "For very large basic blocks, it might be useful to split the basic
//! blocks into smaller sections (containing, say, twenty instructions or
//! less each) and find solutions which are locally optimal. A good
//! heuristic for the split might be to simply partition the list schedule."
//!
//! That is exactly what this module does: compute the machine-independent
//! list schedule, partition it into windows of `window` instructions, and
//! run the branch-and-bound kernel of [`crate::bnb`] *within* each window
//! while the timing engine carries the committed prefix's pipeline state
//! across the window boundary (the paper's footnote 1: adjacent regions
//! interact only through "the initial conditions in the analysis"). A
//! window's search is complete once the down-set that ends with it is
//! placed, and it is pruned by that down-set's critical-path bound alone.
//!
//! Windowed schedules are locally optimal per window, globally heuristic:
//! `μ(optimal) ≤ μ(windowed) ≤ μ(list schedule)`. Optimal windows alone do
//! not give the second inequality — a window-optimal arrangement can issue
//! a long-latency op later than the list did, and the next window pays —
//! so a stitched schedule worse than the list schedule gives way to it.
//! `tests/cross_check.rs` holds every window of every other schedule to
//! the exhaustive best arrangement of its members.

use pipesched_ir::TupleId;

use crate::bnb::{search_windows, SearchConfig, SearchStats};
use crate::bounds::LowerBound;
use crate::context::SchedContext;
use crate::list_sched::list_schedule;

/// Result of a windowed scheduling run.
#[derive(Debug, Clone)]
pub struct WindowedOutcome {
    /// The complete schedule (all windows concatenated).
    pub order: Vec<TupleId>,
    /// η per position of `order`.
    pub etas: Vec<u32>,
    /// Total NOPs of the stitched schedule.
    pub nops: u32,
    /// μ of the plain list schedule (the starting point).
    pub initial_nops: u32,
    /// Window length used.
    pub window: usize,
    /// Number of windows.
    pub windows: usize,
    /// Combined search counters across windows.
    pub stats: SearchStats,
}

/// Schedule `ctx`'s block by locally-optimal windows of `window`
/// instructions (λ is a whole-block budget shared by the windows).
pub fn windowed_schedule(ctx: &SchedContext<'_>, window: usize, lambda: u64) -> WindowedOutcome {
    windowed_schedule_bounded(ctx, window, lambda, None)
}

/// [`windowed_schedule`] with an anytime wall-clock deadline: windows whose
/// search exhausts the deadline (and all later windows) fall back to the
/// list-schedule order, so a legal full schedule is always returned.
pub fn windowed_schedule_bounded(
    ctx: &SchedContext<'_>,
    window: usize,
    lambda: u64,
    deadline: Option<std::time::Instant>,
) -> WindowedOutcome {
    assert!(window >= 1, "window must be at least 1 instruction");
    let n = ctx.len();
    let base = list_schedule(ctx.dag, &ctx.analysis);

    let cfg = SearchConfig {
        lambda,
        deadline,
        ..SearchConfig::default()
    };
    let lower_bound = LowerBound::windowed(ctx, &base, window);
    let starts = (0..n).step_by(window);
    let windows = starts.len();
    let ranges = starts.map(|start| start..(start + window).min(n));
    // A stitched schedule worse than the list schedule gives way to it.
    let (order, etas, nops, initial_nops, stats) =
        search_windows(ctx, &cfg, &lower_bound, base, ranges);

    WindowedOutcome {
        order,
        etas,
        nops,
        initial_nops,
        window,
        windows,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, SearchConfig};
    use pipesched_ir::{analysis::verify_schedule, BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn big_block() -> pipesched_ir::BasicBlock {
        let mut b = BlockBuilder::new("big");
        for i in 0..6 {
            let x = b.load(&format!("x{i}"));
            let y = b.load(&format!("y{i}"));
            let m = b.mul(x, y);
            b.store(&format!("r{i}"), m);
        }
        b.finish().unwrap()
    }

    #[test]
    fn windowed_is_legal_and_bounded_by_list_and_optimal() {
        let block = big_block();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let optimal = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        assert!(optimal.optimal);

        for window in [4usize, 8, 12, 24] {
            let w = windowed_schedule(&ctx, window, 100_000);
            verify_schedule(&block, &dag, &w.order).unwrap();
            assert!(
                w.nops >= optimal.nops,
                "window {window}: windowed beat the optimum?!"
            );
            assert!(
                w.nops <= w.initial_nops,
                "window {window}: worse than the list schedule"
            );
            assert_eq!(w.etas.iter().sum::<u32>(), w.nops);
        }
    }

    #[test]
    fn full_window_equals_optimal() {
        let block = big_block();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let optimal = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        let w = windowed_schedule(&ctx, block.len(), u64::MAX / 2);
        assert_eq!(w.windows, 1);
        assert_eq!(w.nops, optimal.nops);
    }

    #[test]
    fn window_of_one_is_exactly_the_list_schedule() {
        let block = big_block();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let w = windowed_schedule(&ctx, 1, 1_000);
        assert_eq!(w.nops, w.initial_nops);
        assert_eq!(w.windows, block.len());
    }

    #[test]
    fn quality_improves_with_window_size() {
        // Not guaranteed in general (windowing is a heuristic) but holds on
        // this symmetric block: wider windows never hurt here.
        let block = big_block();
        let dag = DepDag::build(&block);
        let machine = presets::deep_pipeline();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let w4 = windowed_schedule(&ctx, 4, 200_000);
        let w24 = windowed_schedule(&ctx, 24, 200_000);
        assert!(w24.nops <= w4.nops);
    }

    #[test]
    fn empty_block() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let w = windowed_schedule(&ctx, 8, 100);
        assert_eq!(w.nops, 0);
        assert!(w.order.is_empty());
    }
}
