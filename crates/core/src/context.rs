//! Per-block scheduling context: the block's DAG bound to a machine.

use std::ops::Index;
use std::sync::OnceLock;

use pipesched_ir::{BasicBlock, BlockAnalysis, DepDag, DepKind, Op, TupleId};
use pipesched_machine::{Machine, PipelineId};

use crate::bounds::LowerBound;

/// A dependence of one tuple on an earlier one, preprocessed for the timing
/// engine: `flow` distinguishes true (value) dependences, which wait for the
/// producer's pipeline latency, from anti/output dependences, which only
/// require issuing at least one cycle later.
#[derive(Debug, Clone, Copy)]
pub struct PredDep {
    /// Index of the producing tuple.
    pub from: u32,
    /// True for flow dependences (wait for latency), false for anti/output.
    pub flow: bool,
}

/// The preprocessed predecessor lists of every tuple: one flat array,
/// indexed through the DAG's own predecessor offsets, so `preds[i]` is
/// tuple `i`'s list in the DAG's order.
#[derive(Debug, Clone)]
pub struct Preds<'a> {
    dag: &'a DepDag,
    deps: Vec<PredDep>,
}

impl<'a> Preds<'a> {
    fn new(dag: &'a DepDag) -> Self {
        let deps = dag
            .edges()
            .map(|e| PredDep {
                from: e.from.0,
                flow: e.kind == DepKind::Flow,
            })
            .collect();
        Preds { dag, deps }
    }

    /// Each tuple's list, in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = &[PredDep]> + '_ {
        (0..self.dag.len()).map(move |i| &self[i])
    }
}

impl Index<usize> for Preds<'_> {
    type Output = [PredDep];

    #[inline]
    fn index(&self, i: usize) -> &[PredDep] {
        &self.deps[self.dag.pred_span(TupleId(i as u32))]
    }
}

/// The pipelines each tuple may run on, borrowed from the machine's
/// operation map: `allowed[i]` is tuple `i`'s set.
#[derive(Debug, Clone)]
pub struct Allowed<'a>(Vec<&'a [PipelineId]>);

impl<'a> Allowed<'a> {
    /// Each tuple's set, in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [PipelineId]> + '_ {
        self.0.iter().copied()
    }
}

impl Index<usize> for Allowed<'_> {
    type Output = [PipelineId];

    #[inline]
    fn index(&self, i: usize) -> &[PipelineId] {
        self.0[i]
    }
}

/// Everything the schedulers need to know about one block on one machine.
///
/// The context is immutable during a search; all mutable state lives in
/// [`crate::TimingEngine`] and the search's own bookkeeping.
pub struct SchedContext<'a> {
    /// The block being scheduled.
    pub block: &'a BasicBlock,
    /// Its dependence DAG.
    pub dag: &'a DepDag,
    /// Precomputed closure/slack analysis.
    pub analysis: BlockAnalysis,
    /// The target machine.
    pub machine: &'a Machine,
    /// Default pipeline assignment σ(ζ) per tuple (`None` ⇒ σ = ∅).
    pub sigma: Vec<Option<PipelineId>>,
    /// All pipelines allowed for each tuple (for the selection extension).
    pub allowed: Allowed<'a>,
    /// Preprocessed immediate predecessors per tuple.
    pub preds: Preds<'a>,
    /// Interchangeability class for *free* instructions (σ=∅ ∧ ρ=∅):
    /// two free instructions share a class iff they have identical
    /// immediate-successor sets, which makes swapping them a pure
    /// relabeling. `None` for non-free instructions. (Rule [5c] as the
    /// paper prints it — any two free instructions — can prune the optimum
    /// when the two feed different consumers; see the module docs of
    /// `crate::bnb`.)
    pub free_class: Vec<Option<u32>>,
    /// Per-pipeline latency (indexed by pipeline id).
    pub pipe_latency: Vec<u32>,
    /// Per-pipeline enqueue time (indexed by pipeline id).
    pub pipe_enqueue: Vec<u32>,
    /// Static data of the critical-path bound, built on first use.
    lower: OnceLock<LowerBound>,
    /// [`crate::global_lower_bound`], computed on first use.
    pub(crate) root_lb: OnceLock<u32>,
}

impl<'a> SchedContext<'a> {
    /// Bind `block` (with its `dag`) to `machine`.
    pub fn new(block: &'a BasicBlock, dag: &'a DepDag, machine: &'a Machine) -> Self {
        let analysis = BlockAnalysis::compute(dag);
        let n = block.len();
        // The machine's unit set of each operation, looked up once per
        // operation rather than once per tuple.
        let mut by_op: [Option<&'a [PipelineId]>; Op::COUNT] = [None; Op::COUNT];
        let allowed = Allowed(
            block
                .tuples()
                .iter()
                .map(|t| *by_op[t.op as usize].get_or_insert_with(|| machine.pipelines_for(t.op)))
                .collect(),
        );
        let sigma: Vec<Option<PipelineId>> =
            allowed.iter().map(|units| units.first().copied()).collect();
        let preds = Preds::new(dag);
        let pipe_latency = machine.pipelines().iter().map(|p| p.latency).collect();
        let pipe_enqueue = machine.pipelines().iter().map(|p| p.enqueue).collect();

        // Free-instruction interchangeability classes, keyed by succ sets:
        // an earlier free tuple with the same successors is a predecessor
        // of the first of them.
        let mut free_class: Vec<Option<u32>> = vec![None; n];
        let mut classes = 0;
        for i in (0..n).filter(|&i| sigma[i].is_none() && dag.preds(TupleId(i as u32)).is_empty()) {
            let succs = dag.succs(TupleId(i as u32));
            let same = |r: &usize| {
                let theirs = dag.succs(TupleId(*r as u32));
                free_class[*r].is_some()
                    && theirs.len() == succs.len()
                    && theirs.iter().all(|e| succs.iter().any(|f| f.to == e.to))
            };
            let earlier = match succs.first() {
                Some(e) => dag.preds(e.to).iter().map(|p| p.from.index()).find(same),
                None => (0..i).find(same),
            };
            free_class[i] = earlier.and_then(|r| free_class[r]).or_else(|| {
                classes += 1;
                Some(classes - 1)
            });
        }

        SchedContext {
            block,
            dag,
            analysis,
            machine,
            sigma,
            allowed,
            preds,
            free_class,
            pipe_latency,
            pipe_enqueue,
            lower: OnceLock::new(),
            root_lb: OnceLock::new(),
        }
    }

    /// The critical-path bound's static data, built on the first call
    /// and shared by every search of this context.
    pub fn lower_bound(&self) -> &LowerBound {
        self.lower.get_or_init(|| LowerBound::new(self))
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// σ(ζ): the default pipeline of tuple `t`.
    pub fn sigma(&self, t: TupleId) -> Option<PipelineId> {
        self.sigma[t.index()]
    }

    /// Latency of pipeline `p`.
    pub fn latency(&self, p: PipelineId) -> u32 {
        self.pipe_latency[p.index()]
    }

    /// Enqueue time of pipeline `p`.
    pub fn enqueue(&self, p: PipelineId) -> u32 {
        self.pipe_enqueue[p.index()]
    }

    /// The paper's `ρ(ζ) = ∅` test used by the equivalence filter [5c].
    pub fn has_no_preds(&self, t: TupleId) -> bool {
        self.preds[t.index()].is_empty()
    }

    /// True when both σ(ζ)=∅ and ρ(ζ)=∅ — the instruction neither uses a
    /// pipelined resource nor depends on anything.
    pub fn is_free_instruction(&self, t: TupleId) -> bool {
        self.sigma(t).is_none() && self.has_no_preds(t)
    }

    /// True when `a` and `b` are interchangeable free instructions: both
    /// σ=∅ ∧ ρ=∅ *and* gating exactly the same successors. Swapping such a
    /// pair is a relabeling with identical timing and identical readiness
    /// consequences, so exploring only one order is safe.
    pub fn interchangeable_free(&self, a: TupleId, b: TupleId) -> bool {
        match (self.free_class[a.index()], self.free_class[b.index()]) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, Op};
    use pipesched_machine::presets;

    #[test]
    fn context_binds_sigma_and_preds() {
        let mut b = BlockBuilder::new("ctx");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        assert_eq!(ctx.len(), 4);
        // Loads map to the loader, mul to the multiplier, store to nothing.
        assert_eq!(
            ctx.sigma(TupleId(0)),
            machine.default_pipeline_for(Op::Load)
        );
        assert!(ctx.sigma(TupleId(3)).is_none());
        // Mul has two flow preds.
        assert_eq!(ctx.preds[2].len(), 2);
        assert!(ctx.preds[2].iter().all(|p| p.flow));
        // Store depends on mul.
        assert_eq!(ctx.preds[3].len(), 1);
    }

    #[test]
    fn free_instruction_classification() {
        let mut b = BlockBuilder::new("free");
        let c = b.constant(1); // Const: σ=∅, ρ=∅ → free
        let x = b.load("x"); // Load: σ=loader → not free
        let s = b.add(c, x);
        b.store("z", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        assert!(ctx.is_free_instruction(TupleId(0)));
        assert!(!ctx.is_free_instruction(TupleId(1)));
        assert!(!ctx.is_free_instruction(TupleId(3)), "store has preds");
    }
}
