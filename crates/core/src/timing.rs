//! The NOP-insertion algorithm (§4.2.2) as an incremental engine.
//!
//! The engine maintains, for a growing partial schedule Φ, the issue cycle
//! of every placed instruction. Pushing instruction ζ computes the earliest
//! cycle at which it may issue:
//!
//! ```text
//! t(ζ) = max( t(prev) + 1,                                  // 1 issue/cycle
//!             t(last op in σ(ζ)) + enqueue(σ(ζ)),           // conflict
//!             max over δ∈ρ(ζ): t(δ) + delay(δ) )            // dependence
//! delay(δ) = latency(pipeline assigned to δ)  for flow dependences
//!          = 1                                 for anti/output dependences
//!          = 1                                 when σ(δ) = ∅
//! ```
//!
//! and the NOPs inserted immediately before ζ are
//! `η(ζ) = t(ζ) - t(prev) - 1` (paper definition 4). The total NOP count of
//! the partial schedule, `μ(Φ) = Σ η` (definition 5), is maintained
//! incrementally; it is monotone non-decreasing under extension, which is
//! what makes the α-β prune of step \[6\] sound.
//!
//! The printed TR's τ(j) formula sums only the NOPs between instructions j
//! and i, omitting the issue cycle each intervening instruction itself
//! consumes; with that reading the paper's own §2.1 worked examples come out
//! wrong, so we implement the arithmetically consistent elapsed-time model
//! above (see DESIGN.md §3). Both §2.1 examples are regression-tested here.
//!
//! Every `push` can be undone in O(1) with `pop`, so the branch-and-bound
//! search explores the schedule tree without any re-evaluation.

use pipesched_ir::TupleId;
use pipesched_machine::PipelineId;

use crate::context::SchedContext;

const NO_ISSUE: i64 = i64::MIN / 2;

#[derive(Debug, Clone, Copy)]
struct Frame {
    tuple: u32,
    prev_t_prev: i64,
    /// Pipeline whose `last_in_pipe` entry was overwritten (`u32::MAX` ⇒ none).
    pipe: u32,
    prev_last_in_pipe: i64,
    eta: u32,
}

/// Pipeline state carried across a basic-block boundary (the paper's
/// footnote 1: "interactions between adjacent blocks can be managed ...
/// essentially by modifying the initial conditions in the analysis for
/// each block"). `pipe_age[p]` is the number of cycles that have elapsed,
/// at the next block's first issue slot, since the last operation was
/// enqueued in pipeline `p` (`None` ⇒ the pipeline was never used).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryState {
    /// Cycles since each pipeline's last enqueue, at the block-entry slot.
    pub pipe_age: Vec<Option<u32>>,
}

impl BoundaryState {
    /// A cold boundary: no pipeline has any operation in flight.
    pub fn cold(pipeline_count: usize) -> Self {
        BoundaryState {
            pipe_age: vec![None; pipeline_count],
        }
    }
}

/// Incremental issue-time / NOP calculator with O(1) undo.
pub struct TimingEngine<'c, 'a> {
    ctx: &'c SchedContext<'a>,
    issue: Vec<i64>,
    assignment: Vec<Option<PipelineId>>,
    last_in_pipe: Vec<i64>,
    t_prev: i64,
    placed: usize,
    total_nops: u32,
    undo: Vec<Frame>,
}

impl<'c, 'a> TimingEngine<'c, 'a> {
    /// Create an engine for `ctx` with an empty partial schedule.
    pub fn new(ctx: &'c SchedContext<'a>) -> Self {
        Self::starting(ctx, vec![NO_ISSUE; ctx.machine.pipeline_count()])
    }

    /// Create an engine whose pipelines start with the in-flight state of a
    /// preceding block: pipeline `p`'s most recent enqueue is treated as
    /// having happened `pipe_age[p]` cycles before this block's cycle 0.
    pub fn with_boundary(ctx: &'c SchedContext<'a>, boundary: &BoundaryState) -> Self {
        assert_eq!(boundary.pipe_age.len(), ctx.machine.pipeline_count());
        let last_in_pipe = boundary
            .pipe_age
            .iter()
            .map(|age| match age {
                Some(a) => -i64::from(*a),
                None => NO_ISSUE,
            })
            .collect();
        Self::starting(ctx, last_in_pipe)
    }

    fn starting(ctx: &'c SchedContext<'a>, last_in_pipe: Vec<i64>) -> Self {
        let n = ctx.len();
        TimingEngine {
            ctx,
            issue: vec![NO_ISSUE; n],
            assignment: vec![None; n],
            last_in_pipe,
            t_prev: -1,
            placed: 0,
            total_nops: 0,
            undo: Vec::with_capacity(n),
        }
    }

    /// Capture the boundary state a *successor* block would start from,
    /// assuming it begins issuing at the cycle after this engine's last
    /// issue.
    pub fn capture_boundary(&self) -> BoundaryState {
        let next_cycle = self.t_prev + 1;
        BoundaryState {
            pipe_age: self
                .last_in_pipe
                .iter()
                .map(|&last| {
                    if last == NO_ISSUE {
                        None
                    } else {
                        Some((next_cycle - last) as u32)
                    }
                })
                .collect(),
        }
    }

    /// Number of instructions placed so far.
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// μ(Φ): total NOPs required by the current partial schedule.
    pub fn total_nops(&self) -> u32 {
        self.total_nops
    }

    /// Issue cycle of a placed instruction.
    pub fn issue_time(&self, t: TupleId) -> Option<i64> {
        let v = self.issue[t.index()];
        (v != NO_ISSUE).then_some(v)
    }

    /// The pipeline unit `t` was placed on.
    pub fn assigned_pipeline(&self, t: TupleId) -> Option<PipelineId> {
        self.assignment[t.index()]
    }

    /// The last cycle an operation was enqueued in `p`, counting the state
    /// carried in from a preceding block (`None` ⇒ `p` was never used).
    pub fn last_issue(&self, p: PipelineId) -> Option<i64> {
        let v = self.last_in_pipe[p.index()];
        (v != NO_ISSUE).then_some(v)
    }

    /// Earliest cycle an instruction pushed now on `pipe` could issue as
    /// far as issue order and the pipe's enqueue time allow.
    pub fn pipe_free(&self, pipe: Option<PipelineId>) -> i64 {
        let mut free = self.t_prev + 1;
        if let Some(p) = pipe {
            let last = self.last_in_pipe[p.index()];
            if last != NO_ISSUE {
                free = free.max(last + i64::from(self.ctx.enqueue(p)));
            }
        }
        free
    }

    /// Earliest cycle `t`'s dependences allow it to issue (0 without
    /// predecessors). All of `t`'s predecessors must already be placed; the
    /// value then stays fixed until one of them is popped. `t` issues at
    /// `max(pipe_free(pipe), dep_ready(t))`.
    pub fn dep_ready(&self, t: TupleId) -> i64 {
        let mut ready = 0;
        for dep in &self.ctx.preds[t.index()] {
            let pt = self.issue[dep.from as usize];
            debug_assert!(pt != NO_ISSUE, "predecessor must be placed");
            let delay: i64 = if dep.flow {
                match self.assignment[dep.from as usize] {
                    Some(p) => i64::from(self.ctx.latency(p)),
                    None => 1,
                }
            } else {
                1
            };
            ready = ready.max(pt + delay);
        }
        ready
    }

    /// Place `t` next in the schedule on pipeline `pipe` (normally
    /// `ctx.sigma(t)`; the selection extension passes explicit choices).
    /// Returns η(t), the NOPs inserted immediately before it.
    pub fn push(&mut self, t: TupleId, pipe: Option<PipelineId>) -> u32 {
        let earliest = self.pipe_free(pipe).max(self.dep_ready(t));
        let eta = (earliest - (self.t_prev + 1)) as u32;

        let (pipe_idx, prev_last) = match pipe {
            Some(p) => (p.0, self.last_in_pipe[p.index()]),
            None => (u32::MAX, 0),
        };
        self.undo.push(Frame {
            tuple: t.0,
            prev_t_prev: self.t_prev,
            pipe: pipe_idx,
            prev_last_in_pipe: prev_last,
            eta,
        });

        self.issue[t.index()] = earliest;
        self.assignment[t.index()] = pipe;
        if let Some(p) = pipe {
            self.last_in_pipe[p.index()] = earliest;
        }
        self.t_prev = earliest;
        self.placed += 1;
        self.total_nops += eta;
        eta
    }

    /// Place `t` on its default pipeline σ(t).
    pub fn push_default(&mut self, t: TupleId) -> u32 {
        self.push(t, self.ctx.sigma(t))
    }

    /// Undo the most recent `push`.
    pub fn pop(&mut self) {
        let f = self.undo.pop().expect("pop on empty engine");
        self.issue[f.tuple as usize] = NO_ISSUE;
        self.assignment[f.tuple as usize] = None;
        if f.pipe != u32::MAX {
            self.last_in_pipe[f.pipe as usize] = f.prev_last_in_pipe;
        }
        self.t_prev = f.prev_t_prev;
        self.placed -= 1;
        self.total_nops -= f.eta;
    }

    /// Reset to the empty partial schedule.
    pub fn clear(&mut self) {
        while !self.undo.is_empty() {
            self.pop();
        }
    }
}

impl TimingEngine<'_, '_> {
    /// Push `order`, each tuple on its unit in `assignment` (indexed by
    /// tuple id), then pop it again: the η of each position and the μ
    /// `order` adds to the current partial schedule.
    pub(crate) fn evaluate(
        &mut self,
        order: &[TupleId],
        assignment: &[Option<PipelineId>],
    ) -> (Vec<u32>, u32) {
        let before = self.total_nops;
        let etas: Vec<u32> = order
            .iter()
            .map(|&t| self.push(t, assignment[t.index()]))
            .collect();
        let total = self.total_nops - before;
        for _ in order {
            self.pop();
        }
        (etas, total)
    }
}

/// Evaluate a complete schedule on its default pipeline assignment,
/// returning per-position η values and the total NOP count μ(Π).
///
/// This is the paper's procedure Ω applied to one schedule.
pub fn evaluate_schedule(ctx: &SchedContext<'_>, order: &[TupleId]) -> (Vec<u32>, u32) {
    TimingEngine::new(ctx).evaluate(order, &ctx.sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    /// §2.1 example 1: `Load R1,X ; Add R0,R1` on a latency-4 loader needs
    /// a delay of 3 clock ticks between the two instructions.
    #[test]
    fn dependence_example_needs_three_nops() {
        let mut b = BlockBuilder::new("dep");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("r", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::section2_example();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let order: Vec<_> = block.ids().collect();
        let (etas, total) = evaluate_schedule(&ctx, &order);
        // Load x @0; Load y @2 (MAR conflict, 1 NOP); Add waits for y:
        // t ≥ 2 + 4 = 6, previous issued at 2, so 3 NOPs; Store next cycle.
        assert_eq!(etas, vec![0, 1, 3, 0]);
        assert_eq!(total, 4);
    }

    /// §2.1 example 2: two Loads through a MAR held 2 cycles (enqueue 2)
    /// need 1 NOP between them.
    #[test]
    fn conflict_example_needs_one_nop() {
        let mut b = BlockBuilder::new("conf");
        let x = b.load("x");
        let y = b.load("y");
        b.store("a", x);
        b.store("b", y);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::section2_example();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let mut e = TimingEngine::new(&ctx);
        assert_eq!(e.push_default(pipesched_ir::TupleId(0)), 0);
        assert_eq!(e.push_default(pipesched_ir::TupleId(1)), 1, "MAR conflict");
        assert_eq!(e.issue_time(pipesched_ir::TupleId(1)), Some(2));
    }

    #[test]
    fn push_pop_restores_state_exactly() {
        let mut b = BlockBuilder::new("undo");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let mut e = TimingEngine::new(&ctx);
        let t0 = pipesched_ir::TupleId(0);
        let t1 = pipesched_ir::TupleId(1);
        e.push_default(t0);
        let nops_after_one = e.total_nops();
        let eta1 = e.push_default(t1);
        e.pop();
        assert_eq!(e.placed(), 1);
        assert_eq!(e.total_nops(), nops_after_one);
        // Re-pushing reproduces the same η.
        assert_eq!(e.push_default(t1), eta1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = BlockBuilder::new("clr");
        let x = b.load("x");
        b.store("z", x);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let mut e = TimingEngine::new(&ctx);
        e.push_default(pipesched_ir::TupleId(0));
        e.push_default(pipesched_ir::TupleId(1));
        e.clear();
        assert_eq!(e.placed(), 0);
        assert_eq!(e.total_nops(), 0);
        assert_eq!(e.issue_time(pipesched_ir::TupleId(0)), None);
    }

    #[test]
    fn anti_dependence_requires_only_issue_order() {
        // Load x, then Store x: the store may issue the very next cycle —
        // it does not wait out the loader's latency.
        let mut b = BlockBuilder::new("anti");
        let x = b.load("x");
        let c = b.constant(9);
        b.store("x", c);
        b.store("keep", x);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let order: Vec<_> = block.ids().collect();
        let (etas, _) = evaluate_schedule(&ctx, &order);
        assert_eq!(etas[2], 0, "anti dep adds no NOPs: {etas:?}");
    }

    #[test]
    fn unpipelined_machine_needs_no_nops_for_any_order() {
        let mut b = BlockBuilder::new("nopipe");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("z", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::unpipelined();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let order: Vec<_> = block.ids().collect();
        let (_, total) = evaluate_schedule(&ctx, &order);
        assert_eq!(total, 0);
    }

    #[test]
    fn scheduling_hides_latency() {
        // load a; load b; mul a,b; load c; load d; mul c,d — in source order
        // the first mul stalls; interleaving hides it.
        let mut b = BlockBuilder::new("hide");
        let a = b.load("a");
        let bb_ = b.load("b");
        let m1 = b.mul(a, bb_);
        let c = b.load("c");
        let d = b.load("d");
        let m2 = b.mul(c, d);
        b.store("r1", m1);
        b.store("r2", m2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let source: Vec<_> = block.ids().collect();
        let (_, mu_source) = evaluate_schedule(&ctx, &source);
        // Interleaved: a b c d m1 m2 r1 r2
        let ids = [0u32, 1, 3, 4, 2, 5, 6, 7].map(pipesched_ir::TupleId);
        let (_, mu_inter) = evaluate_schedule(&ctx, &ids);
        assert!(
            mu_inter < mu_source,
            "interleaving should help: {mu_inter} vs {mu_source}"
        );
    }

    #[test]
    fn enqueue_conflict_only_against_same_pipeline() {
        // Load then Mul: different pipelines — no conflict beyond deps.
        let mut b = BlockBuilder::new("cross");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let m2 = b.mul(m, m);
        b.store("z", m2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let order: Vec<_> = block.ids().collect();
        let (etas, _) = evaluate_schedule(&ctx, &order);
        // loads back-to-back (enqueue 1): no NOP before load y.
        assert_eq!(etas[1], 0);
        // first mul waits for load y's latency (2): issued at 1, mul ≥ 3 → 1 NOP.
        assert_eq!(etas[2], 1);
        // second mul: dep on first mul latency 4 (t=3 → ≥7) and multiplier
        // enqueue 2 (≥5); dep dominates: ≥7; prev issued 3 → 3 NOPs.
        assert_eq!(etas[3], 3);
    }
}
