//! Shared incumbent seeding for every exact backend.
//!
//! All exact schedulers — the serial branch-and-bound, the parallel
//! branch-and-bound, and the SAT portfolio backend in `pipesched-solve` —
//! start the same way: build an initial schedule from a heuristic (step
//! \[1\] of §4.2.3), price it with the timing engine to obtain the incumbent
//! μ, and compute the admissible whole-block lower bound that lets an
//! incumbent be *proved* optimal without exploring anything. This module is
//! that common prologue, hoisted out of the individual search kernels so
//! the three backends cannot drift apart (first slice of the ROADMAP's
//! kernel unification).

use pipesched_ir::TupleId;

use crate::bnb::InitialHeuristic;
use crate::bounds::Frontier;
use crate::context::SchedContext;
use crate::list_sched::list_schedule;
use crate::timing::{BoundaryState, TimingEngine};

/// The common starting state of an exact search: the heuristic incumbent
/// and the admissible lower bound it is measured against.
#[derive(Debug, Clone)]
pub struct SearchSeed {
    /// The initial (heuristic) instruction order.
    pub order: Vec<TupleId>,
    /// η per position of `order` under the default pipeline assignment.
    pub etas: Vec<u32>,
    /// μ of the initial schedule — the incumbent the search must beat.
    pub nops: u32,
    /// Admissible lower bound on μ over *all* legal schedules of the
    /// block from `boundary`: an incumbent at or below it is provably
    /// optimal before any search runs. It includes the heads-and-tails
    /// term (see [`crate::bounds`]) unless the cheap terms alone already
    /// reach `nops`, where the term cannot raise it. From a cold boundary
    /// without selection it equals [`crate::global_lower_bound`].
    pub global_lb: u32,
}

impl SearchSeed {
    /// True when the incumbent already matches the lower bound, i.e. the
    /// seed schedule is provably optimal without any search.
    pub fn proved_by_bound(&self) -> bool {
        self.nops <= self.global_lb
    }
}

/// Build the incumbent + lower-bound seed every exact backend starts from.
///
/// `pipeline_selection` must mirror the search's own setting: when the
/// search may choose among several units, ops with a choice are excluded
/// from the per-pipe resource counts and ready instructions are priced at
/// their cheapest unit, keeping the bound admissible (exactly the rule the
/// branch-and-bound kernels applied individually before this was hoisted).
pub fn seed_incumbent(
    ctx: &SchedContext<'_>,
    initial: InitialHeuristic,
    boundary: &BoundaryState,
    pipeline_selection: bool,
) -> SearchSeed {
    let mut engine = TimingEngine::with_boundary(ctx, boundary);
    let frontier = Frontier::new(ctx, pipeline_selection);
    let cold = boundary.pipe_age.iter().all(Option::is_none);
    seed_with(ctx, initial, cold, &mut engine, &frontier)
}

/// [`seed_incumbent`] on a search's own engine and frontier, both empty
/// (the engine from the boundary, `cold` when it carries no state, the
/// frontier with the search's selection setting), which it leaves empty.
pub(crate) fn seed_with(
    ctx: &SchedContext<'_>,
    initial: InitialHeuristic,
    cold: bool,
    engine: &mut TimingEngine<'_, '_>,
    frontier: &Frontier,
) -> SearchSeed {
    let order = match initial {
        InitialHeuristic::MaxDistance => list_schedule(ctx.dag, &ctx.analysis),
        InitialHeuristic::SourceOrder => ctx.block.ids().collect(),
        InitialHeuristic::Greedy => crate::baselines::greedy_schedule(ctx).0,
    };
    let (etas, nops) = engine.evaluate(&order, &ctx.sigma);
    let global_lb = crate::bounds::root_lower_bound(ctx, engine, frontier, cold, nops);

    SearchSeed {
        order,
        etas,
        nops,
        global_lb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, SearchConfig};
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    #[test]
    fn seed_matches_search_prologue() {
        let mut b = BlockBuilder::new("seed");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let boundary = BoundaryState::cold(machine.pipeline_count());

        let seed = seed_incumbent(&ctx, InitialHeuristic::MaxDistance, &boundary, false);
        let out = search(&ctx, &SearchConfig::default());
        assert_eq!(seed.order, out.initial_order);
        assert_eq!(seed.nops, out.initial_nops);
        // The lower bound is admissible: the proven optimum respects it.
        assert!(out.optimal);
        assert!(seed.global_lb <= out.nops);
        assert_eq!(seed.global_lb, crate::bounds::global_lower_bound(&ctx));
    }

    #[test]
    fn seed_on_empty_block() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let boundary = BoundaryState::cold(machine.pipeline_count());
        let seed = seed_incumbent(&ctx, InitialHeuristic::MaxDistance, &boundary, false);
        assert!(seed.order.is_empty());
        assert_eq!(seed.nops, 0);
        assert!(seed.proved_by_bound());
    }
}
