//! Lower bounds on the NOPs a partial schedule must still incur.
//!
//! The paper's α-β prune (step [6]) uses μ(Φ) itself as the bound: NOP
//! counts are monotone under extension, so a partial schedule that already
//! matches the incumbent cannot improve on it. [`BoundKind::CriticalPath`]
//! (an extension; ablated in the benches) strengthens this with two
//! admissible terms computed against the current engine state:
//!
//! * **chain term** — every ready instruction ξ cannot issue before
//!   `est(ξ) = max(pipe_free(σ(ξ)), dep_ready(ξ))`, and the final
//!   instruction of the block cannot issue before `est(ξ) + tail(ξ)`,
//!   where `tail(ξ)` is the minimum issue-to-issue length of the longest
//!   dependence chain below ξ;
//! * **resource term** — the `k` unscheduled operations bound to pipeline
//!   `p` need at least `enqueue(p)` cycles between consecutive issues;
//! * **heads-and-tails term** — Jackson's schedule, as in Carlier's
//!   single-machine bounds. Every unscheduled instruction `j` gets a head
//!   `r_j`, the earliest cycle the engine state and the DAG allow it to
//!   issue, and its tail `q_j`. The issue slot is one machine running
//!   unit jobs, where Jackson's rule (issue the released job with the
//!   largest tail) is exact; every pipe whose enqueue `e` exceeds 1 is
//!   another, running a preemptive schedule of its fixed-unit ops, each
//!   `e` unit pieces. The last instruction cannot issue before the
//!   largest `start + q_j` either schedule reaches.
//!
//! All three only use constraints that hold in *every* completion of the
//! partial schedule (each relaxation drops precedence or non-preemption),
//! so the optimum is never pruned (`tests/cross_check.rs` holds each term
//! to the best completion found by exhaustive search).
//!
//! The chain and resource terms cost O(|ready| + pipes) and price every
//! placement. The heads-and-tails term costs O(n + edges) and prices a
//! placement only where a prune is worth that: once the search has run
//! [`crate::SearchConfig::switch_on`] Ω, when the placement leaves at least
//! [`JACKSON_GATE`] instructions unscheduled, and when the cheap terms
//! leave it open. The whole-block bound of [`global_lower_bound`] always
//! includes it. The seed's skips it only where the cheap terms already
//! reach the seed's μ: the bound is then the same with or without it.
//!
//! **Down-sets.** A window (see [`crate::windowed`]) is complete once the
//! down-set `order[..end]` is placed, so its bound covers that alone: a
//! [`Frontier`] covers a down-set, whose other tuples are never ready,
//! never counted and never in Jackson's schedule, and `end − 1` replaces
//! `n − 1`. [`LowerBound::windowed`]'s tails stay inside one window.

use pipesched_ir::{BitSet, TupleId};
use pipesched_machine::PipelineId;

use crate::context::SchedContext;
use crate::timing::TimingEngine;

/// Fewest instructions a placement must leave unscheduled for the
/// heads-and-tails term to price it. A prune there cuts a large subtree;
/// deeper placements make up most evaluations and each prune there saves
/// little, so a lower gate slows the searches that run to λ. Measured on
/// the three perfbench workloads (seed 1, 36-s runs, shared 2-vCPU
/// x86-64 host): at 8, `prove_hard`'s p99 latency was 8,957–9,118 µs, no
/// better than without the term (median 8,066 µs), against 5,525–6,655
/// µs (quartiles) at 12; at 16, `corpus`'s p99 stayed at 2,899–2,983 µs
/// against 974–1,277 µs at 12, and `serve_miss`'s at 3,629–3,876 µs
/// against 2,304–2,834 µs.
pub const JACKSON_GATE: usize = 12;

/// Marks "no tuple" in the release buckets.
const NONE: u32 = u32::MAX;

/// Added to the pending-predecessor count of a tuple outside the down-set
/// a [`Frontier`] covers, so that it never becomes ready.
const OUTSIDE: u32 = 1 << 31;

/// Serializable choice of pruning bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKind {
    /// The paper's α-β rule: bound = μ(Φ).
    AlphaBeta,
    /// μ(Φ) strengthened with the critical-path, resource and
    /// heads-and-tails terms (the library default: same optimum, far
    /// smaller proofs).
    #[default]
    CriticalPath,
}

/// Static data of the critical-path bound, built once per block (see
/// [`SchedContext::lower_bound`]) and shared by the seed, the serial
/// kernel and every pool task.
#[derive(Debug, Clone)]
pub struct LowerBound {
    /// `tail[i]`: minimum cycles between issuing tuple `i` and issuing the
    /// last instruction on any chain below it (0 for sinks).
    tail: Vec<i64>,
    /// Largest tail: the tail levels of Jackson's schedule are `0..=max_tail`.
    max_tail: i64,
    /// Issue-to-issue distance from tuple `i` to a flow successor while
    /// `i` is unplaced: the latency of its cheapest allowed unit, or 1
    /// for σ(i) = ∅. The minimum keeps tails and heads admissible even
    /// when the search may *choose* the unit (pipeline selection); with a
    /// single unit per op it is exactly σ(i)'s latency. Anti and output
    /// edges cost 1.
    latency: Vec<i64>,
}

/// Buffers of [`LowerBound::jackson`], one per thread, grown to the block
/// on first use and reused, so an evaluation allocates nothing.
#[derive(Debug, Default)]
struct JacksonScratch {
    /// Head of each unscheduled tuple.
    head: Vec<i64>,
    /// The unscheduled tuples, in index (topological) order.
    jobs: Vec<u32>,
    /// Release buckets: the first job released `d` cycles after the
    /// schedule's start, chained through `next`.
    bucket: Vec<u32>,
    next: Vec<u32>,
    /// Unit pieces released and not yet run, per tail level.
    pieces: Vec<i64>,
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<JacksonScratch> = Default::default();
}

impl LowerBound {
    /// Precompute chain tails and producer latencies for `ctx`.
    pub fn new(ctx: &SchedContext<'_>) -> Self {
        Self::following(ctx, |_, _| true)
    }

    /// The bound of windows of `window` consecutive positions of the
    /// topological order `order`: tails follow only edges inside one
    /// window, as every chain below a window's member does inside the
    /// down-set that ends with the window.
    pub(crate) fn windowed(ctx: &SchedContext<'_>, order: &[TupleId], window: usize) -> Self {
        let mut chunk = vec![0; ctx.len()];
        for (position, t) in order.iter().enumerate() {
            chunk[t.index()] = position / window;
        }
        Self::following(ctx, |from, to| chunk[from] == chunk[to])
    }

    /// Tails along the edges `from → to` that `follows` accepts.
    fn following(ctx: &SchedContext<'_>, follows: impl Fn(usize, usize) -> bool) -> Self {
        let n = ctx.len();
        let latency: Vec<i64> = ctx
            .allowed
            .iter()
            .map(|units| {
                units
                    .iter()
                    .map(|&p| i64::from(ctx.latency(p)))
                    .min()
                    .unwrap_or(1)
            })
            .collect();
        let mut tail = vec![0i64; n];
        for i in (0..n).rev() {
            for e in ctx.dag.succs(TupleId(i as u32)) {
                if !follows(i, e.to.index()) {
                    continue;
                }
                let delay = match e.kind {
                    pipesched_ir::DepKind::Flow => latency[i],
                    _ => 1,
                };
                tail[i] = tail[i].max(delay + tail[e.to.index()]);
            }
        }
        LowerBound {
            max_tail: tail.iter().copied().max().unwrap_or(0),
            tail,
            latency,
        }
    }

    /// The static tail of tuple `t`.
    pub fn tail(&self, t: TupleId) -> i64 {
        self.tail[t.index()]
    }

    /// Lower bound on the total NOPs μ of any completion of `engine`'s
    /// partial schedule, with its derivation: `(chain, resource, bound)`,
    /// the chain- and resource-term maxima, both folded over the shared
    /// base `t_prev + remaining`, so that
    /// `bound = max(0, max(chain, resource) - (end - 1))`, `end` being the
    /// size of the down-set `frontier` covers (`n` unless in a window
    /// search) and `remaining` its unplaced members. The proof logger
    /// records all three; the independent certificate checker re-derives
    /// them from the analyze crate's timing oracle, term by term.
    ///
    /// `frontier` must describe the same partial schedule as `engine`. A
    /// ready instruction is priced at `max(pipe_free(σ), dep_ready)`; under
    /// pipeline selection, at its cheapest allowed unit, since the default
    /// unit would overestimate and could prune the optimum.
    pub(crate) fn bound(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
    ) -> (i64, i64, u32) {
        let n = frontier.covered as i64;
        let placed = engine.placed() as i64;
        let remaining = n - placed;
        // t_prev reconstructed from μ(Φ) = t_prev - (placed - 1).
        let t_prev = i64::from(engine.total_nops()) + placed - 1;
        if remaining == 0 {
            // Degenerate (fully placed): bound = μ; record the base alone.
            return (t_prev, t_prev, engine.total_nops());
        }
        // Every remaining instruction takes at least one cycle.
        let base = t_prev + remaining;
        let mut chain = base;
        for (t, dep) in frontier.ready() {
            let free = self.unit_free(ctx, engine, frontier.selection, t.index());
            chain = chain.max(free.max(dep) + self.tail(t));
        }
        let mut resource = base;
        for (p, &k) in frontier.remaining_per_pipe.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let enq = i64::from(ctx.pipe_enqueue[p]);
            // The first of the k issues happens no earlier than the cycle
            // after t_prev (and no earlier than the pipe's own reuse time,
            // which the chain term already captures for ready nodes).
            resource = resource.max(t_prev + 1 + enq * (i64::from(k) - 1));
        }
        let bound = (chain.max(resource) - (n - 1)).max(0) as u32;
        (chain, resource, bound)
    }

    /// Join the heads-and-tails term to a placement's cheap bound `cheap`
    /// (from [`LowerBound::bound`]), priced against the incumbent `best`:
    /// evaluated only when the placement leaves at least [`JACKSON_GATE`]
    /// instructions unscheduled and `cheap` does not already reach `best`.
    /// The term stops once it reaches `best` (see [`LowerBound::jackson`]).
    /// Returns the value it reached, which a certificate records, and the
    /// bound with it.
    #[inline]
    pub(crate) fn with_term(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
        cheap: u32,
        best: u32,
    ) -> (Option<i64>, u32) {
        if cheap >= best || frontier.covered - engine.placed() < JACKSON_GATE {
            return (None, cheap);
        }
        let slack = frontier.covered as i64 - 1;
        let term = self.jackson(ctx, engine, frontier, i64::from(best) + slack);
        let bound = cheap.max(term.saturating_sub(slack).max(0) as u32);
        (Some(term), bound)
    }

    /// The bound of `engine`'s partial schedule over the down-set
    /// `frontier` covers: every term, the heads-and-tails one evaluated
    /// in full unless the cheap terms already reach `enough`.
    pub(crate) fn full(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
        enough: u32,
    ) -> u32 {
        let (_, _, bound) = self.bound(ctx, engine, frontier);
        if bound >= enough {
            return bound;
        }
        let term = self.jackson(ctx, engine, frontier, i64::MAX);
        bound.max(term.saturating_sub(frontier.covered as i64 - 1).max(0) as u32)
    }

    /// Earliest cycle unscheduled tuple `j` could issue as far as its
    /// unit allows: its default unit's, or under selection, its cheapest
    /// unit's.
    #[inline]
    fn unit_free(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        selection: bool,
        j: usize,
    ) -> i64 {
        if selection && ctx.allowed[j].len() > 1 {
            ctx.allowed[j]
                .iter()
                .map(|&p| engine.pipe_free(Some(p)))
                .min()
                .expect("non-empty allowed set")
        } else {
            engine.pipe_free(ctx.sigma[j])
        }
    }

    /// The heads-and-tails term: a lower bound on the issue cycle of the
    /// last instruction of the down-set `frontier` covers, in any
    /// completion of `engine`'s partial schedule (`i64::MIN` when none of
    /// its members is unscheduled).
    ///
    /// Heads come from the engine state, propagated through the DAG in
    /// index order: a tuple cannot issue before its unit is free, before
    /// a placed predecessor's value is ready, or before an unplaced
    /// predecessor's head plus the distance the tails use. Each machine
    /// then runs Jackson's rule in unit pieces: at each cycle, one piece
    /// of the released job with the largest tail runs, and a piece run at
    /// cycle `t` reaches `t + q_j − (p_j − 1)` (the issue slot: every
    /// unscheduled tuple, one piece each; each pipe of enqueue `e > 1`:
    /// its fixed-unit ops, `e` pieces each). On unit pieces Jackson's rule
    /// is optimal, and which of two equal-tail pieces runs first changes
    /// no value, so the running maximum is a function of the state alone.
    ///
    /// The machines run in order, the issue slot first and then the slow
    /// pipes by index. The evaluation stops at the first running maximum
    /// at or above `target` and returns it; otherwise it returns the
    /// largest value any machine reached. The proof checker re-derives
    /// exactly this number.
    #[inline(never)]
    pub(crate) fn jackson(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
        target: i64,
    ) -> i64 {
        SCRATCH.with_borrow_mut(|s| self.jackson_in(s, ctx, engine, frontier, target))
    }

    fn jackson_in(
        &self,
        s: &mut JacksonScratch,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
        target: i64,
    ) -> i64 {
        let n = ctx.len();
        let start = i64::from(engine.total_nops()) + engine.placed() as i64;
        s.head.resize(n, 0);
        s.next.resize(n, NONE);
        s.pieces.resize(self.max_tail as usize + 1, 0);
        s.jobs.clear();
        let mut latest = start;
        for j in 0..n {
            let t = TupleId(j as u32);
            if engine.issue_time(t).is_some() || !frontier.covers(t) {
                continue;
            }
            let mut head = self.unit_free(ctx, engine, frontier.selection, j);
            if frontier.is_ready(t) {
                head = head.max(frontier.dep[j]);
            } else {
                for e in &ctx.preds[j] {
                    let from = TupleId(e.from);
                    let ready = match engine.issue_time(from) {
                        Some(at) if e.flow => {
                            at + engine
                                .assigned_pipeline(from)
                                .map_or(1, |p| i64::from(ctx.latency(p)))
                        }
                        Some(at) => at + 1,
                        None if e.flow => s.head[e.from as usize] + self.latency[e.from as usize],
                        None => s.head[e.from as usize] + 1,
                    };
                    head = head.max(ready);
                }
            }
            s.head[j] = head;
            latest = latest.max(head);
            s.jobs.push(j as u32);
        }
        let span = (latest - start) as usize;
        let mut value = self.machine(s, start, span, target, 1, |_| true);
        let selection = frontier.selection;
        for (p, &enqueue) in ctx.pipe_enqueue.iter().enumerate() {
            if value >= target {
                break;
            }
            if enqueue > 1 {
                let on_pipe = |j: usize| {
                    ctx.sigma[j].is_some_and(|u| u.index() == p)
                        && !(selection && ctx.allowed[j].len() > 1)
                };
                let pipe = self.machine(s, start, span, target, i64::from(enqueue), on_pipe);
                value = value.max(pipe);
            }
        }
        value
    }

    /// Jackson's rule on one machine over the jobs `member` picks, each
    /// `weight` unit pieces released at its head, a piece run at cycle
    /// `t` reaching `t + q − (weight − 1)`. Returns the first running
    /// maximum at or above `target`, or the final maximum (`i64::MIN`
    /// without jobs). `span` bounds every head's distance from `start`.
    fn machine(
        &self,
        s: &mut JacksonScratch,
        start: i64,
        span: usize,
        target: i64,
        weight: i64,
        member: impl Fn(usize) -> bool,
    ) -> i64 {
        let shift = weight - 1;
        s.bucket.clear();
        s.bucket.resize(span + 1, NONE);
        let mut left = 0i64;
        let mut d = span + 1;
        for &j in &s.jobs {
            let j = j as usize;
            if !member(j) {
                continue;
            }
            let rel = (s.head[j] - start) as usize;
            s.next[j] = s.bucket[rel];
            s.bucket[rel] = j as u32;
            left += weight;
            d = d.min(rel);
        }
        let mut value = i64::MIN;
        if left == 0 {
            return value;
        }
        // `d` is always the next unreleased non-empty bucket (or past
        // `span`); `top` the largest tail level holding pieces.
        let mut t = start + d as i64;
        let mut top = -1i64;
        let mut avail = 0i64;
        let reached = loop {
            while d <= span && start + d as i64 <= t {
                let mut j = s.bucket[d];
                while j != NONE {
                    let q = self.tail[j as usize];
                    s.pieces[q as usize] += weight;
                    avail += weight;
                    top = top.max(q);
                    j = s.next[j as usize];
                }
                d += 1;
                while d <= span && s.bucket[d] == NONE {
                    d += 1;
                }
            }
            if avail == 0 {
                t = start + d as i64;
                continue;
            }
            // The top level runs uninterrupted until it empties or the
            // next release, one piece per cycle.
            let horizon = if d <= span {
                start + d as i64 - t
            } else {
                i64::MAX
            };
            let run = s.pieces[top as usize].min(horizon);
            let first = t + top - shift;
            let last = first + run - 1;
            if last >= target {
                // Values rise by one per piece from `first`; `value` is
                // still below `target`.
                break Some(first.max(target));
            }
            value = value.max(last);
            s.pieces[top as usize] -= run;
            avail -= run;
            left -= run;
            t += run;
            if left == 0 {
                break None;
            }
            while top >= 0 && s.pieces[top as usize] == 0 {
                top -= 1;
            }
        };
        match reached {
            Some(v) => {
                // Pieces still queued stay counted; clear their levels.
                for &j in &s.jobs {
                    s.pieces[self.tail[j as usize] as usize] = 0;
                }
                v
            }
            None => value,
        }
    }
}

/// The terms of the critical-path bound at one partial schedule, each as
/// the NOP bound it gives alone, `max(0, value − (n − 1))`. See
/// [`term_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermBounds {
    /// The chain term's bound.
    pub chain: u32,
    /// The resource term's bound.
    pub resource: u32,
    /// The heads-and-tails term's bound (0 on a complete schedule).
    pub heads_tails: u32,
}

/// Each term of the critical-path bound for `engine`'s partial schedule,
/// priced as a search with `selection` prices it, the heads-and-tails one
/// in full whatever its gate and switch-on would say. Each is a lower
/// bound on the NOPs of every completion; this is what a test holds to
/// ground truth, or a tool reads to see which term carries a node. Costs
/// O(n + edges): it rebuilds the frontier from the engine.
pub fn term_bounds(
    ctx: &SchedContext<'_>,
    engine: &TimingEngine<'_, '_>,
    selection: bool,
) -> TermBounds {
    let mut frontier = Frontier::new(ctx, selection);
    // Index order is topological, and the placed set is a down-set.
    for t in ctx.block.ids() {
        if engine.issue_time(t).is_some() {
            frontier.commit(ctx, engine, t);
        }
    }
    let lb = ctx.lower_bound();
    let (chain, resource, _) = lb.bound(ctx, engine, &frontier);
    let term = lb.jackson(ctx, engine, &frontier, i64::MAX);
    let slack = ctx.len() as i64 - 1;
    let nops = |v: i64| v.saturating_sub(slack).max(0) as u32;
    TermBounds {
        chain: nops(chain),
        resource: nops(resource),
        heads_tails: nops(term),
    }
}

/// The unscheduled side of a partial schedule, kept incrementally: the
/// ready set as a bitset, each ready instruction's
/// [`TimingEngine::dep_ready`] cycle, and the per-pipe counts the resource
/// term reads. A [`Frontier::commit`]/[`Frontier::uncommit`] pair costs
/// O(out-degree) plus one predecessor scan per instruction made ready.
/// It covers a down-set of the block: the whole block, or for a window
/// search what [`Frontier::cover`] has added.
pub(crate) struct Frontier {
    /// Unscheduled immediate predecessors per tuple, plus [`OUTSIDE`] for
    /// a tuple outside the covered down-set.
    pending_preds: Vec<u32>,
    /// Unscheduled tuples whose predecessors are all placed.
    ready: BitSet,
    /// `dep[t]` for a ready `t`: its `dep_ready` cycle, taken when `t`
    /// became ready and valid while it stays ready.
    dep: Vec<i64>,
    /// Unscheduled instructions per pipeline whose unit is fixed. Under
    /// selection, ops with a choice of units are left out so no unit's
    /// load is overstated (which would make the bound inadmissible).
    remaining_per_pipe: Vec<u32>,
    /// Size of the covered down-set.
    covered: usize,
    selection: bool,
}

impl Frontier {
    /// The frontier of the empty schedule.
    pub(crate) fn new(ctx: &SchedContext<'_>, selection: bool) -> Self {
        let mut f = Frontier::uncovered(ctx, selection);
        f.cover(ctx, ctx.block.ids(), |_| 0);
        f
    }

    /// The frontier of the empty schedule over the empty down-set.
    pub(crate) fn uncovered(ctx: &SchedContext<'_>, selection: bool) -> Self {
        let n = ctx.len();
        Frontier {
            pending_preds: ctx.preds.iter().map(|p| p.len() as u32 + OUTSIDE).collect(),
            ready: BitSet::new(n),
            dep: vec![0; n],
            remaining_per_pipe: vec![0; ctx.machine.pipeline_count()],
            covered: 0,
            selection,
        }
    }

    /// Add `members`, unplaced, to the covered down-set, which they must
    /// keep a down-set. `dep_ready` prices a member made ready.
    pub(crate) fn cover(
        &mut self,
        ctx: &SchedContext<'_>,
        members: impl IntoIterator<Item = TupleId>,
        dep_ready: impl Fn(TupleId) -> i64,
    ) {
        for t in members {
            let i = t.index();
            self.pending_preds[i] -= OUTSIDE;
            if self.pending_preds[i] == 0 {
                self.ready.insert(i);
                self.dep[i] = dep_ready(t);
            }
            if let Some(p) = self.counted_pipe(ctx, t) {
                self.remaining_per_pipe[p.index()] += 1;
            }
            self.covered += 1;
        }
    }

    /// Size of the covered down-set.
    pub(crate) fn covered(&self) -> usize {
        self.covered
    }

    /// True when `t` is in the covered down-set.
    fn covers(&self, t: TupleId) -> bool {
        self.pending_preds[t.index()] < OUTSIDE
    }

    fn counted_pipe(&self, ctx: &SchedContext<'_>, t: TupleId) -> Option<PipelineId> {
        if self.selection && ctx.allowed[t.index()].len() > 1 {
            None
        } else {
            ctx.sigma(t)
        }
    }

    /// True when every predecessor of `t` is placed.
    pub(crate) fn is_ready(&self, t: TupleId) -> bool {
        self.pending_preds[t.index()] == 0
    }

    /// The ready instructions with their cached dependence-ready cycles.
    pub(crate) fn ready(&self) -> impl Iterator<Item = (TupleId, i64)> + '_ {
        self.ready.iter().map(|i| (TupleId(i as u32), self.dep[i]))
    }

    /// Account for `xi`, which `engine` has just pushed.
    pub(crate) fn commit(
        &mut self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        xi: TupleId,
    ) {
        self.ready.remove(xi.index());
        if let Some(p) = self.counted_pipe(ctx, xi) {
            self.remaining_per_pipe[p.index()] -= 1;
        }
        for e in ctx.dag.succs(xi) {
            let s = e.to.index();
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0 {
                self.ready.insert(s);
                self.dep[s] = engine.dep_ready(e.to);
            }
        }
    }

    /// Undo [`Frontier::commit`] of `xi`.
    pub(crate) fn uncommit(&mut self, ctx: &SchedContext<'_>, xi: TupleId) {
        for e in ctx.dag.succs(xi) {
            let s = e.to.index();
            if self.pending_preds[s] == 0 {
                self.ready.remove(s);
            }
            self.pending_preds[s] += 1;
        }
        if let Some(p) = self.counted_pipe(ctx, xi) {
            self.remaining_per_pipe[p.index()] += 1;
        }
        self.ready.insert(xi.index());
    }
}

/// Admissible lower bound on μ over every legal schedule of the block from
/// `engine`'s state, which must be empty, with ready instructions priced
/// at their cheapest unit when `frontier` (the empty schedule's) is under
/// selection (see [`crate::seed::seed_incumbent`]). The heads-and-tails
/// term is left out when the cheap terms already reach `enough`, the μ of
/// a schedule from that state: every term is admissible, so the cheap
/// bound is then already the full one. The bound from a `cold` boundary
/// without selection is kept in the context.
pub(crate) fn root_lower_bound(
    ctx: &SchedContext<'_>,
    engine: &TimingEngine<'_, '_>,
    frontier: &Frontier,
    cold: bool,
    enough: u32,
) -> u32 {
    let cold = cold && !frontier.selection;
    if let Some(&lb) = ctx.root_lb.get().filter(|_| cold) {
        return lb;
    }
    let lb = ctx.lower_bound().full(ctx, engine, frontier, enough);
    if cold {
        let _ = ctx.root_lb.set(lb);
    }
    lb
}

/// Admissible lower bound on μ for the whole block, scheduled from a cold
/// boundary with each op on its default unit: every term of the
/// critical-path bound, the heads-and-tails one in full. This is the
/// bound `search` uses for its optimality pre-check; callers that obtain
/// a schedule by other means (a cache hit, a heuristic tier) can compare
/// against it to prove optimality without running the branch-and-bound
/// at all. Computed on the first call and kept in the context, so the
/// seed, the service's tiers and SAT's descent share one evaluation.
pub fn global_lower_bound(ctx: &SchedContext<'_>) -> u32 {
    if let Some(&lb) = ctx.root_lb.get() {
        return lb;
    }
    let engine = TimingEngine::new(ctx);
    root_lower_bound(ctx, &engine, &Frontier::new(ctx, false), true, u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    #[test]
    fn tails_reflect_latency_chains() {
        let mut b = BlockBuilder::new("tails");
        let x = b.load("x"); // loader latency 2
        let m = b.mul(x, x); // multiplier latency 4
        let m2 = b.mul(m, m);
        b.store("z", m2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let lb = LowerBound::new(&ctx);
        // store: 0; m2: store next-cycle ⇒ its flow succ... m2→store is a
        // flow edge with m2's latency 4: tail(m2) = 4. tail(m) = 4 + 4.
        // tail(x) = 2 + 8.
        assert_eq!(lb.tail(TupleId(3)), 0);
        assert_eq!(lb.tail(TupleId(2)), 4);
        assert_eq!(lb.tail(TupleId(1)), 8);
        assert_eq!(lb.tail(TupleId(0)), 10);
    }

    #[test]
    fn bound_on_empty_prefix_is_admissible() {
        let mut b = BlockBuilder::new("adm");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let lb = LowerBound::new(&ctx);
        let engine = TimingEngine::new(&ctx);
        let (_, _, bound) = lb.bound(&ctx, &engine, &Frontier::new(&ctx, false));

        // Optimal schedule: x@0, y@1, mul@3 (waits y latency), store@7.
        // μ = 7 - 3 = 4.
        let order: Vec<_> = block.ids().collect();
        let (_, actual) = crate::timing::evaluate_schedule(&ctx, &order);
        assert!(bound <= actual, "bound {bound} exceeds optimum ≤ {actual}");
        assert!(bound > 0, "chain term should see the mul latency");
    }

    #[test]
    fn bound_equals_mu_when_complete() {
        let mut b = BlockBuilder::new("done");
        let x = b.load("x");
        b.store("z", x);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let lb = LowerBound::new(&ctx);
        let mut engine = TimingEngine::new(&ctx);
        let mut frontier = Frontier::new(&ctx, false);
        for t in block.ids() {
            engine.push_default(t);
            frontier.commit(&ctx, &engine, t);
        }
        assert_eq!(frontier.ready().count(), 0);
        let (_, _, bound) = lb.bound(&ctx, &engine, &frontier);
        assert_eq!(bound, engine.total_nops());
    }
}
