//! Scheduling straight-line *sequences* of basic blocks (footnote 1).
//!
//! Instructions never move across a block boundary (they are separate
//! scheduling units), but the pipeline state does: if block A's last
//! instruction enqueues a multiply, block B's first multiply must respect
//! the multiplier's enqueue time, and the η of B's first instruction prices
//! that in. Each block is scheduled by the full branch-and-bound search
//! seeded with the [`BoundaryState`] its predecessor left behind.
//!
//! Memory-carried dependences across blocks need no extra machinery in the
//! default machine models: a `Store` uses no pipelined resource, so its
//! value is architecturally visible by the time the next block issues its
//! first instruction. (For machines that give stores a pipeline, the
//! sequence scheduler conservatively ages that pipeline at the boundary
//! exactly like any other.)

use pipesched_ir::{BasicBlock, DepDag, TupleId};
use pipesched_machine::Machine;

use crate::bnb::{run, Run, SearchConfig, SearchStats};
use crate::context::SchedContext;
use crate::timing::{BoundaryState, TimingEngine};

/// One scheduled block of a sequence.
#[derive(Debug, Clone)]
pub struct ScheduledRegion {
    /// Block name (for diagnostics).
    pub name: String,
    /// Instruction order within the block.
    pub order: Vec<TupleId>,
    /// η per position, *including* any boundary-induced stall before the
    /// first instruction.
    pub etas: Vec<u32>,
    /// μ for this block alone.
    pub nops: u32,
    /// Whether this block's search completed.
    pub optimal: bool,
}

/// Result of scheduling a block sequence.
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Per-block results, in sequence order.
    pub regions: Vec<ScheduledRegion>,
    /// Total NOPs across the whole sequence.
    pub total_nops: u32,
    /// Combined search counters.
    pub stats: SearchStats,
}

/// Schedule `blocks` in order on `machine`, carrying pipeline state across
/// each boundary.
pub fn schedule_sequence(
    blocks: &[BasicBlock],
    machine: &Machine,
    cfg: &SearchConfig,
) -> SequenceOutcome {
    let mut boundary = BoundaryState::cold(machine.pipeline_count());
    let mut regions = Vec::with_capacity(blocks.len());
    let mut total_nops = 0u32;
    let mut stats = SearchStats::default();

    for block in blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, machine);
        let carried = Run {
            boundary: Some(&boundary),
            ..Run::default()
        };
        let (out, _) = run(&ctx, cfg, carried).expect("the boundary was captured on this machine");

        // Replay the chosen schedule to capture the outgoing boundary.
        let mut engine = TimingEngine::with_boundary(&ctx, &boundary);
        for &t in &out.order {
            engine.push(t, out.assignment[t.index()]);
        }
        boundary = engine.capture_boundary();

        total_nops += out.nops;
        stats.merge(&out.stats);
        regions.push(ScheduledRegion {
            name: block.name.clone(),
            order: out.order,
            etas: out.etas,
            nops: out.nops,
            optimal: out.optimal,
        });
    }

    SequenceOutcome {
        regions,
        total_nops,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    /// A block ending in a multiply (long latency, enqueue 2).
    fn mul_tail(name: &str) -> BasicBlock {
        let mut b = BlockBuilder::new(name);
        let x = b.load("x");
        let m = b.mul(x, x);
        b.store("z", m);
        b.finish().unwrap()
    }

    /// A block *starting* with a multiply.
    fn mul_head(name: &str) -> BasicBlock {
        let mut b = BlockBuilder::new(name);
        let y = b.load("y");
        let m = b.mul(y, y);
        b.store("w", m);
        b.finish().unwrap()
    }

    #[test]
    fn boundary_state_carries_conflicts() {
        let machine = presets::paper_simulation();
        let a = mul_tail("a");
        let b = mul_head("b");

        let seq = schedule_sequence(&[a.clone(), b.clone()], &machine, &SearchConfig::default());
        assert_eq!(seq.regions.len(), 2);

        // Scheduling b cold must not be more expensive than scheduling it
        // after a's multiplier traffic.
        let cold = schedule_sequence(&[b], &machine, &SearchConfig::default());
        assert!(seq.regions[1].nops >= cold.regions[0].nops);
        assert_eq!(
            seq.total_nops,
            seq.regions.iter().map(|r| r.nops).sum::<u32>()
        );
    }

    #[test]
    fn boundary_conflict_actually_bites() {
        // The recovery-unit multiplier (latency 2, enqueue 6) is still
        // recovering when the next block's multiply wants to issue: the
        // carried boundary must charge a strictly positive extra stall.
        let machine = presets::recovery_unit();
        let mut a = BlockBuilder::new("a");
        let xa = a.load("x");
        let ma = a.mul(xa, xa);
        a.store("ra", ma);
        let a = a.finish().unwrap();

        let seq_cold =
            schedule_sequence(std::slice::from_ref(&a), &machine, &SearchConfig::default());
        let seq = schedule_sequence(&[a.clone(), a.clone()], &machine, &SearchConfig::default());
        assert!(
            seq.regions[1].nops > seq_cold.regions[0].nops,
            "expected a strict boundary stall: {} vs {}",
            seq.regions[1].nops,
            seq_cold.regions[0].nops
        );
        assert_eq!(seq.regions[0].nops, seq_cold.regions[0].nops);
    }

    #[test]
    fn empty_sequence_and_empty_blocks() {
        let machine = presets::paper_simulation();
        let seq = schedule_sequence(&[], &machine, &SearchConfig::default());
        assert_eq!(seq.total_nops, 0);
        assert!(seq.regions.is_empty());

        let empty = BlockBuilder::new("e").finish().unwrap();
        let seq = schedule_sequence(&[empty, mul_tail("t")], &machine, &SearchConfig::default());
        assert_eq!(seq.regions.len(), 2);
        assert_eq!(seq.regions[0].nops, 0);
    }

    #[test]
    fn capture_boundary_round_trip() {
        let machine = presets::paper_simulation();
        let block = mul_tail("rt");
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let mut engine = TimingEngine::new(&ctx);
        for t in block.ids() {
            engine.push_default(t);
        }
        let boundary = engine.capture_boundary();
        // loader used at cycle 0; mul at 2; store σ=∅. Last issue = store
        // at 6; next cycle = 7.
        assert_eq!(boundary.pipe_age[0], Some(7), "loader age");
        assert_eq!(boundary.pipe_age[2], Some(5), "multiplier age");
        assert_eq!(boundary.pipe_age[1], None, "adder untouched");
    }
}
