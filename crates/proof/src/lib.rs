#![warn(missing_docs)]

//! Independent checker for the branch-and-bound search's optimality
//! certificates (diagnostic codes `A04xx`).
//!
//! [`check_certificate`] replays a [`Certificate`] recorded by
//! `pipesched-core`'s proof logger and verifies that it constitutes a
//! complete case analysis of the block's schedule space:
//!
//! * every placement ([`ProofEvent::Enter`] / [`ProofEvent::BoundPrune`])
//!   is legal under dependences the checker re-extracts itself;
//! * every bound prune's μ and chain/resource derivation is re-derived
//!   from scratch and must match term by term ([`DiagCode::BoundArithmeticMismatch`]),
//!   and the recorded bound must actually dominate the incumbent at that
//!   point ([`DiagCode::UnjustifiedBoundPrune`]). A recorded
//!   heads-and-tails value must be exactly the value the checker's own
//!   Jackson schedule reaches, stopping where the search stopped: at the
//!   first running maximum that dominates the replay incumbent;
//! * a `ProvedByBound` must cite the whole-block bound the checker
//!   re-derives, its heads-and-tails term evaluated in full
//!   ([`DiagCode::LowerBoundMismatch`]);
//! * every equivalence prune's witness must have been placed at the same
//!   node and the pair must satisfy the *restricted* interchangeability
//!   condition — pipeline-free, dependence-free **and identical successor
//!   sets** — re-established from the DAG
//!   ([`DiagCode::StaleEquivalenceWitness`]). Certificates recorded under
//!   the paper's unrestricted rule are checked against the restricted
//!   condition and rejected where they over-prune;
//! * every dominance prune must cite a node the replay has already
//!   closed, which placed exactly the candidate prefix's set of
//!   instructions in a state no later in any slot than the candidate's:
//!   `t`, each pipe an unplaced instruction uses, and each placed
//!   producer with an unplaced consumer, all re-derived from the replay
//!   ([`DiagCode::UnjustifiedDominancePrune`]). Along any completion the
//!   witness then issues every instruction no later, and it met the
//!   incumbent when it closed;
//! * every node's dispositions cover *exactly* its unscheduled
//!   instructions ([`DiagCode::ProofCoverageGap`]);
//! * the incumbent chain is replayed — each improvement's μ re-derived —
//!   and must terminate at the trailer's claimed order and μ
//!   ([`DiagCode::IncumbentRegression`]).
//!
//! The checker shares **no code** with the search engine: timing is
//! replayed through the event-driven recurrence of the `pipesched-analyze`
//! crate (the workspace's third, independently written timing
//! implementation), over dependences re-extracted by
//! [`pipesched_analyze::extract_deps`] rather than taken from
//! [`pipesched_ir::DepDag`]. A certificate that survives yields
//! [`ProofVerdict::OptimalCertified`] — a strictly stronger claim than the
//! certifier's `LegalWithCost`-style verdict, because the *no cheaper
//! schedule exists* half no longer rests on trusting the search.

use std::collections::BinaryHeap;

use pipesched_analyze::certify::{extract_deps, Deps};
use pipesched_analyze::diag::{DiagCode, Diagnostic, Report};
use pipesched_core::bnb::EquivalenceMode;
use pipesched_core::bounds::BoundKind;
use pipesched_core::proof::{Certificate, ProofEvent};
use pipesched_ir::{BasicBlock, Op, TupleId};
use pipesched_machine::{Machine, PipelineId};

/// The checker's verdict on a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofVerdict {
    /// The certificate is a complete, arithmetically sound case analysis:
    /// no legal schedule of the block needs fewer than `nops` NOPs, and
    /// the trailer's order achieves exactly `nops`.
    OptimalCertified {
        /// The certified optimal μ.
        nops: u32,
    },
    /// The certificate was rejected; the report's `A04xx` diagnostics say
    /// why. Nothing about the schedule's optimality can be concluded.
    Rejected,
}

/// Result of checking one certificate.
#[derive(Debug, Clone)]
pub struct ProofCheck {
    /// Accept/reject verdict.
    pub verdict: ProofVerdict,
    /// Diagnostics (rejection reasons; empty on acceptance).
    pub report: Report,
}

impl ProofCheck {
    /// True when the certificate was accepted.
    pub fn is_certified(&self) -> bool {
        matches!(self.verdict, ProofVerdict::OptimalCertified { .. })
    }
}

/// Replay `cert` against `block` on `machine` and verify every obligation.
pub fn check_certificate(block: &BasicBlock, machine: &Machine, cert: &Certificate) -> ProofCheck {
    let mut report = Report::new(format!(
        "optimality certificate for `{}` on `{}`",
        if block.name.is_empty() {
            "block"
        } else {
            &block.name
        },
        machine.name
    ));
    let verdict = match Checker::new(block, machine).run(cert, &mut report) {
        Ok(nops) => ProofVerdict::OptimalCertified { nops },
        Err(()) => ProofVerdict::Rejected,
    };
    ProofCheck { verdict, report }
}

/// The issue cycle of a tuple the replay has not placed.
const UNPLACED: i64 = i64::MIN;

/// One tuple: what the block and machine fix, then its replay state.
#[derive(Clone, Copy)]
struct Tuple {
    /// Cheapest flow latency: the distance tails and the heads of
    /// unplaced producers use.
    latency: i64,
    /// Static chain tail, mirroring the bound's definition.
    tail: i64,
    /// Where its successor edges lie in [`Checker::succs`].
    succs: (u32, u32),
    /// Issue cycle, or [`UNPLACED`].
    issue: i64,
    /// Predecessors not yet placed: the tuple is legal at 0.
    pending: u32,
    /// Coverage stamp: `stamp == epoch` ⇔ the tuple was counted by the
    /// current coverage or permutation check.
    stamp: u32,
    /// Heads-and-tails head while unscheduled.
    head: i64,
    /// What placing it overwrote: `t_prev`, and its pipe's `free`.
    undo: (i64, i64),
    /// The node its `Enter` opened, while it is on the prefix.
    node: Frame,
}

/// One pipe: its enqueue time and load, then its replay state.
#[derive(Clone, Copy)]
struct Pipe {
    enqueue: i64,
    /// Tuples on it.
    tuples: i64,
    /// The first cycle it accepts another instruction.
    free: i64,
    /// Unscheduled tuples on it, kept by `push`/`pop`.
    left: i64,
}

/// A dependence seen from its producer.
#[derive(Clone, Copy)]
struct Succ {
    to: u32,
    flow: bool,
    delay: i64,
}

/// One open search-tree node during replay.
#[derive(Clone, Copy)]
struct Frame {
    /// The node's number: its `Enter`'s ordinal in the stream, the root 0.
    id: u64,
    /// Where its dispositions start on the disposition stack.
    start: usize,
}

/// The root node.
const ROOT: Frame = Frame { id: 0, start: 0 };

/// One candidate an open node has dispositioned (any event kind).
#[derive(Clone, Copy)]
struct Disposed {
    tuple: u32,
    /// Placed at this node (`Enter`, `BoundPrune` or `DominancePrune`):
    /// the only valid equivalence witnesses.
    placed: bool,
}

/// The nodes dominance prunes cite, found by counting `Enter`s ahead of
/// the replay, and the placed set and state of each once it closes, back
/// to back; a candidate's follow them while they are compared.
struct Witnesses {
    /// Cited node numbers, sorted and distinct, each with what it kept
    /// when it closed.
    cited: Vec<(u64, Option<Kept>)>,
    /// Words of one placed set.
    words: usize,
    sets: Vec<u64>,
    states: Vec<i64>,
}

/// Where one prefix's placed set starts in [`Witnesses::sets`], and
/// where its state lies in [`Witnesses::states`].
#[derive(Clone, Copy)]
struct Kept {
    set: usize,
    state: (usize, usize),
}

/// Most words the dominance buffers reserve ahead per certificate event,
/// so that a certificate cannot make the checker set aside much more
/// memory than it takes itself. An honest certificate of a block of up to
/// 60 or so instructions stays within it; past it, the buffers grow as
/// cited nodes close.
const WITNESS_WORDS_PER_EVENT: usize = 64;

impl Witnesses {
    fn new(cert: &Certificate, n: usize, pipes: usize) -> Self {
        let prunes = cert
            .events
            .iter()
            .filter(|ev| matches!(ev, ProofEvent::DominancePrune { .. }))
            .count();
        let mut cited = Vec::with_capacity(prunes);
        let mut entered = 0u64;
        for ev in &cert.events {
            match *ev {
                ProofEvent::Enter { .. } => entered += 1,
                ProofEvent::DominancePrune { back, .. } => {
                    cited.extend(entered.checked_sub(back).map(|id| (id, None)));
                }
                _ => {}
            }
        }
        cited.sort_unstable_by_key(|&(id, _)| id);
        cited.dedup_by_key(|&mut (id, _)| id);
        // Every cited node, and one candidate.
        let slots = if cited.is_empty() { 0 } else { cited.len() + 1 };
        let budget = WITNESS_WORDS_PER_EVENT * cert.events.len();
        let words = n.div_ceil(64);
        Witnesses {
            cited,
            words,
            sets: Vec::with_capacity((words * slots).min(budget)),
            states: Vec::with_capacity(((1 + pipes + n) * slots).min(budget)),
        }
    }

    /// Where node `id`'s set and state are kept, if a dominance prune
    /// cites it.
    fn slot(&self, id: u64) -> Option<usize> {
        self.cited.binary_search_by_key(&id, |&(id, _)| id).ok()
    }

    /// Keep the current prefix's placed set and state.
    fn keep(&mut self, checker: &Checker<'_>) -> Kept {
        let set = self.sets.len();
        self.sets.resize(set + self.words, 0);
        checker.placed_set(&mut self.sets[set..]);
        let from = self.states.len();
        checker.dominance_state(&mut self.states);
        Kept {
            set,
            state: (from, self.states.len()),
        }
    }

    /// Drop what `kept` and everything after it kept.
    fn forget(&mut self, kept: Kept) {
        self.sets.truncate(kept.set);
        self.states.truncate(kept.state.0);
    }

    fn set(&self, kept: Kept) -> &[u64] {
        &self.sets[kept.set..kept.set + self.words]
    }

    fn state(&self, kept: Kept) -> &[i64] {
        &self.states[kept.state.0..kept.state.1]
    }
}

/// Replay state: static block/machine data plus an undoable prefix timing
/// built on the analyze crate's recurrence, in arrays sized once.
struct Checker<'a> {
    n: usize,
    block: &'a BasicBlock,
    /// Default unit per tuple (fixed-σ replay; selection is unsupported).
    sigma: Vec<Option<PipelineId>>,
    /// Immediate predecessors, independently re-extracted.
    deps: Deps,
    /// Successor edges grouped by producer, each group sorted by consumer.
    succs: Vec<Succ>,
    tuples: Vec<Tuple>,
    pipes: Vec<Pipe>,
    // --- dynamic prefix state ---
    prefix: Vec<u32>,
    t_prev: i64,
    epoch: u32,
    // --- heads-and-tails buffers ---
    /// One machine's jobs as `(head, tail)`.
    jobs: Vec<(i64, i64)>,
    /// Released jobs, keyed by [`job_key`].
    queue: BinaryHeap<u128>,
}

impl<'a> Checker<'a> {
    fn new(block: &'a BasicBlock, machine: &'a Machine) -> Self {
        let n = block.len();
        // Each operation's default unit and cheapest latency, looked up
        // once rather than once per tuple.
        let mut unit = [None; Op::COUNT];
        let mut cheapest = [1i64; Op::COUNT];
        for op in Op::BLOCK_OPS.into_iter().chain([Op::Nop]) {
            let units = machine.pipelines_for(op);
            unit[op as usize] = units.first().copied();
            cheapest[op as usize] = units
                .iter()
                .map(|&p| i64::from(machine.pipeline(p).latency))
                .min()
                .unwrap_or(1);
        }
        let sigma: Vec<Option<PipelineId>> =
            block.tuples().iter().map(|t| unit[t.op as usize]).collect();
        let deps = extract_deps(block, machine, &sigma);
        let mut tuples: Vec<Tuple> = block
            .tuples()
            .iter()
            .enumerate()
            .map(|(i, t)| Tuple {
                latency: cheapest[t.op as usize],
                tail: 0,
                succs: (0, 0),
                issue: UNPLACED,
                pending: deps[i].len() as u32,
                stamp: 0,
                head: 0,
                undo: (0, 0),
                node: ROOT,
            })
            .collect();
        // Successors by a counting sort of the dependences on their
        // producer. Consumers are visited in index order, so each group
        // comes out sorted, and each holds a consumer once.
        for d in deps.all() {
            tuples[d.from.index()].succs.1 += 1;
        }
        let mut at = 0;
        for t in &mut tuples {
            let count = t.succs.1;
            t.succs = (at, at);
            at += count;
        }
        let mut succs = vec![
            Succ {
                to: 0,
                flow: false,
                delay: 0,
            };
            at as usize
        ];
        for i in 0..n {
            for d in &deps[i] {
                let group = &mut tuples[d.from.index()].succs;
                succs[group.1 as usize] = Succ {
                    to: i as u32,
                    flow: d.flow,
                    delay: d.delay as i64,
                };
                group.1 += 1;
            }
        }
        // tail[i]: minimum issue-to-issue cycles from i to the last
        // instruction of any dependence chain below it. Flow edges cost the
        // producer's cheapest allowed latency, other edges one tick — the
        // same definition the search's bound uses, re-derived here from the
        // checker's own dependences.
        for i in (0..n).rev() {
            let (from, to) = tuples[i].succs;
            let latency = tuples[i].latency;
            let tail = succs[from as usize..to as usize]
                .iter()
                .map(|s| (if s.flow { latency } else { 1 }) + tuples[s.to as usize].tail)
                .fold(0, i64::max);
            tuples[i].tail = tail;
        }
        let mut pipes: Vec<Pipe> = (0..machine.pipeline_count())
            .map(|p| Pipe {
                enqueue: i64::from(machine.pipeline(PipelineId(p as u32)).enqueue),
                tuples: 0,
                free: 0,
                left: 0,
            })
            .collect();
        for p in sigma.iter().flatten() {
            pipes[p.index()].tuples += 1;
            pipes[p.index()].left += 1;
        }
        Checker {
            n,
            block,
            sigma,
            deps,
            succs,
            tuples,
            pipes,
            prefix: Vec::with_capacity(n),
            t_prev: -1,
            epoch: 0,
            jobs: Vec::with_capacity(n),
            queue: BinaryHeap::with_capacity(n),
        }
    }

    fn succs(&self, t: usize) -> &[Succ] {
        let (from, to) = self.tuples[t].succs;
        &self.succs[from as usize..to as usize]
    }

    fn placed(&self, t: usize) -> bool {
        self.tuples[t].issue != UNPLACED
    }

    /// Start a new coverage or permutation check.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for t in &mut self.tuples {
                t.stamp = 0;
            }
            self.epoch = 1;
        }
        self.epoch
    }

    // --- prefix timing (analyze recurrence, with O(1) undo) ---

    /// The cycle a legal `t` issues at after the current prefix.
    fn earliest(&self, t: usize) -> i64 {
        let mut cycle = self.t_prev + 1;
        for d in &self.deps[t] {
            cycle = cycle.max(self.tuples[d.from.index()].issue + d.delay as i64);
        }
        if let Some(p) = self.sigma[t] {
            cycle = cycle.max(self.pipes[p.index()].free);
        }
        cycle
    }

    fn legal(&self, t: usize) -> bool {
        self.tuples[t].pending == 0
    }

    fn push(&mut self, t: usize) {
        let cycle = self.earliest(t);
        let mut free = 0;
        if let Some(p) = self.sigma[t] {
            let pipe = &mut self.pipes[p.index()];
            free = pipe.free;
            pipe.free = cycle + pipe.enqueue;
            pipe.left -= 1;
        }
        let (from, to) = self.tuples[t].succs;
        for s in &self.succs[from as usize..to as usize] {
            self.tuples[s.to as usize].pending -= 1;
        }
        let tuple = &mut self.tuples[t];
        tuple.issue = cycle;
        tuple.undo = (self.t_prev, free);
        self.prefix.push(t as u32);
        self.t_prev = cycle;
    }

    fn pop(&mut self) {
        let t = self.prefix.pop().expect("pop on empty prefix") as usize;
        let tuple = &mut self.tuples[t];
        tuple.issue = UNPLACED;
        let (t_prev, free) = tuple.undo;
        self.t_prev = t_prev;
        if let Some(p) = self.sigma[t] {
            let pipe = &mut self.pipes[p.index()];
            pipe.free = free;
            pipe.left += 1;
        }
        let (from, to) = self.tuples[t].succs;
        for s in &self.succs[from as usize..to as usize] {
            self.tuples[s.to as usize].pending += 1;
        }
    }

    /// Back to the empty prefix, where popping every placement would
    /// leave the replay, without popping them one by one.
    fn unwind(&mut self) {
        for &t in &self.prefix {
            self.tuples[t as usize].issue = UNPLACED;
        }
        for (i, tuple) in self.tuples.iter_mut().enumerate() {
            tuple.pending = self.deps[i].len() as u32;
        }
        for pipe in &mut self.pipes {
            pipe.free = 0;
            pipe.left = pipe.tuples;
        }
        self.prefix.clear();
        self.t_prev = -1;
    }

    /// μ of the current prefix: NOPs between its issues.
    fn mu(&self) -> u32 {
        (self.t_prev + 1 - self.prefix.len() as i64) as u32
    }

    /// Write the current prefix's placed set as a bitset into `set`.
    fn placed_set(&self, set: &mut [u64]) {
        set.fill(0);
        for &t in &self.prefix {
            set[t as usize / 64] |= 1 << (t % 64);
        }
    }

    /// Append the current prefix's dominance state, re-derived from the
    /// replay, to `state`: `t`, then `max(free, t + 1)` of each pipe an
    /// unplaced tuple uses, then, in index order, `max(issue + delay,
    /// t + 1)` of each placed tuple over its unplaced consumers. Prefixes
    /// of one set list the same slots.
    fn dominance_state(&self, state: &mut Vec<i64>) {
        let t = self.t_prev;
        state.push(t);
        for pipe in &self.pipes {
            if pipe.left > 0 {
                state.push(pipe.free.max(t + 1));
            }
        }
        for u in 0..self.n {
            let at = self.tuples[u].issue;
            if at == UNPLACED {
                continue;
            }
            let ready = self
                .succs(u)
                .iter()
                .filter(|s| !self.placed(s.to as usize))
                .map(|s| at + s.delay)
                .max();
            if let Some(ready) = ready {
                state.push(ready.max(t + 1));
            }
        }
    }

    /// Re-derive the critical-path bound's `(chain, resource, bound)` for
    /// the current prefix — the same three values the search recorded.
    fn terms(&self) -> (i64, i64, u32) {
        let n = self.n as i64;
        let placed = self.prefix.len() as i64;
        let remaining = n - placed;
        if remaining == 0 {
            return (self.t_prev, self.t_prev, self.mu());
        }
        let base = self.t_prev + remaining;
        let mut chain = base;
        for t in 0..self.n {
            if self.placed(t) || !self.legal(t) {
                continue;
            }
            chain = chain.max(self.earliest(t) + self.tuples[t].tail);
        }
        let mut resource = base;
        for pipe in &self.pipes {
            if pipe.left > 0 {
                resource = resource.max(self.t_prev + 1 + pipe.enqueue * (pipe.left - 1));
            }
        }
        let bound = (chain.max(resource) - (n - 1)).max(0) as u32;
        (chain, resource, bound)
    }

    /// The bound a heads-and-tails value gives: `max(0, value − (n − 1))`.
    fn bound_of(&self, value: i64) -> u32 {
        value
            .saturating_sub(self.n as i64 - 1)
            .clamp(0, i64::from(u32::MAX)) as u32
    }

    /// Re-derive the heads-and-tails value for the current prefix as the
    /// certificate format defines it: heads from the replayed timing,
    /// propagated in index order; Jackson's rule in unit pieces on the
    /// issue slot (one piece per unscheduled tuple), then on each pipe of
    /// enqueue `e > 1` (`e` pieces per unscheduled op on it), a piece run
    /// at cycle `t` reaching `t + tail − (pieces − 1)`. Stops at the first
    /// running maximum at or above `target`; otherwise returns the largest
    /// value reached (`i64::MIN` on a complete prefix).
    fn jackson(&mut self, target: i64) -> i64 {
        for t in 0..self.n {
            if self.placed(t) {
                continue;
            }
            let mut head = self.t_prev + 1;
            if let Some(p) = self.sigma[t] {
                head = head.max(self.pipes[p.index()].free);
            }
            for d in &self.deps[t] {
                let from = &self.tuples[d.from.index()];
                head = head.max(if from.issue != UNPLACED {
                    from.issue + d.delay as i64
                } else {
                    from.head + if d.flow { from.latency } else { 1 }
                });
            }
            self.tuples[t].head = head;
        }
        let mut value = self.machine(None, 1, target);
        for p in 0..self.pipes.len() {
            if value >= target {
                break;
            }
            let enqueue = self.pipes[p].enqueue;
            if enqueue > 1 {
                value = value.max(self.machine(Some(p), enqueue, target));
            }
        }
        value
    }

    /// One machine of [`Checker::jackson`]: the unscheduled tuples on
    /// `pipe` (every one for the issue slot), `pieces` unit pieces each.
    fn machine(&mut self, pipe: Option<usize>, pieces: i64, target: i64) -> i64 {
        self.jobs.clear();
        for t in 0..self.n {
            let on = pipe.is_none() || self.sigma[t].map(PipelineId::index) == pipe;
            let tuple = &self.tuples[t];
            if on && tuple.issue == UNPLACED {
                self.jobs.push((tuple.head, tuple.tail));
            }
        }
        // Jobs of one head are released together: their order is moot.
        self.jobs.sort_unstable_by_key(|&(head, _)| head);
        run_jobs(&self.jobs, &mut self.queue, pieces, target)
    }

    /// A tuple is *free* when it uses no pipeline and has no dependences.
    fn is_free(&self, t: usize) -> bool {
        self.sigma[t].is_none() && self.deps[t].is_empty()
    }

    /// Whether `a` and `b` have the same `(from, flow)` predecessors (the
    /// structural classes' key). A list names each producer once.
    fn same_preds(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.deps[a], &self.deps[b]);
        a.len() == b.len()
            && a.iter()
                .all(|d| b.iter().any(|e| (e.from, e.flow) == (d.from, d.flow)))
    }

    /// The interchangeability condition for an equivalence prune of
    /// `candidate` against `witness`, under the header's filter mode.
    /// Certificates recorded with [`EquivalenceMode::UnrestrictedPaper`]
    /// are deliberately held to the *restricted* (sound) condition.
    fn interchangeable(&self, mode: EquivalenceMode, candidate: usize, witness: usize) -> bool {
        let (c, w) = (self.succs(candidate), self.succs(witness));
        match mode {
            EquivalenceMode::Off => false,
            EquivalenceMode::Paper | EquivalenceMode::UnrestrictedPaper => {
                self.is_free(candidate)
                    && self.is_free(witness)
                    && c.iter().map(|s| s.to).eq(w.iter().map(|s| s.to))
            }
            EquivalenceMode::Structural => {
                self.block.tuple(TupleId(candidate as u32)).op
                    == self.block.tuple(TupleId(witness as u32)).op
                    && self.same_preds(candidate, witness)
                    && c.iter()
                        .map(|s| (s.to, s.flow))
                        .eq(w.iter().map(|s| (s.to, s.flow)))
            }
        }
    }

    // --- the replay proper ---

    fn run(&mut self, cert: &Certificate, report: &mut Report) -> Result<u32, ()> {
        let reject = |report: &mut Report, code: DiagCode, msg: String| {
            report.push(Diagnostic::new(code, msg));
            Err(())
        };

        if cert.header.n as usize != self.n {
            return reject(
                report,
                DiagCode::CertificateMalformed,
                format!(
                    "certificate is for a block of {} instructions, this block has {}",
                    cert.header.n, self.n
                ),
            );
        }

        // The global admissible lower bound, re-derived on the empty
        // prefix with the heads-and-tails term in full: what the
        // `ProvedByBound` event that ends a transcript must match. Only
        // such a transcript needs it.
        let global_lb =
            matches!(cert.events.last(), Some(ProofEvent::ProvedByBound { .. })).then(|| {
                let (_, _, cheap) = self.terms();
                let root = self.jackson(i64::MAX);
                cheap.max(self.bound_of(root))
            });

        // Validate and replay the initial incumbent.
        self.check_permutation(&cert.header.initial_order, "initial order", report)?;
        let initial_mu = self.replay_order(&cert.header.initial_order, "initial order", report)?;
        if initial_mu != cert.header.initial_nops {
            return reject(
                report,
                DiagCode::IncumbentRegression,
                format!(
                    "initial order needs {} NOPs, header claims {}",
                    initial_mu, cert.header.initial_nops
                ),
            );
        }
        let mut incumbent = cert.header.initial_nops;
        // Whether the incumbent's order is the trailer's: the initial
        // order, or the prefix of the last `Improve`.
        let mut best_is_trailer = cert.header.initial_order == cert.trailer.order;

        if self.n == 0 {
            if !cert.events.is_empty() {
                return reject(
                    report,
                    DiagCode::CertificateMalformed,
                    "an empty block's certificate must record no events".to_string(),
                );
            }
            if !cert.trailer.complete || cert.trailer.nops != 0 || !cert.trailer.order.is_empty() {
                return reject(
                    report,
                    DiagCode::IncumbentRegression,
                    "an empty block schedules trivially with zero NOPs".to_string(),
                );
            }
            return Ok(0);
        }

        let mut witnesses = Witnesses::new(cert, self.n, self.pipes.len());
        let mut entered = 0u64;

        // The open nodes are the root, until its `Leave`, and the node
        // each tuple of the prefix opened. Their dispositions share one
        // stack: a node at depth d dispositions at most n − d candidates,
        // and every event adds at most one, so it keeps its first size.
        let mut root_open = true;
        let mut disposed: Vec<Disposed> =
            Vec::with_capacity((self.n * (self.n + 1) / 2).min(cert.events.len()));
        let mut proved = false;

        for (k, ev) in cert.events.iter().enumerate() {
            let Some(top) = self.innermost(root_open) else {
                return reject(
                    report,
                    DiagCode::CertificateMalformed,
                    format!("event {k} follows the root node's Leave"),
                );
            };
            match *ev {
                ProofEvent::Enter { candidate } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    if !self.legal(c) {
                        return reject(
                            report,
                            DiagCode::IllegalPlacement,
                            format!("event {k} enters tuple {candidate} before its predecessors"),
                        );
                    }
                    disposed.push(Disposed {
                        tuple: candidate,
                        placed: true,
                    });
                    self.push(c);
                    entered += 1;
                    self.tuples[c].node = Frame {
                        id: entered,
                        start: disposed.len(),
                    };
                }
                ProofEvent::LegalityPrune { candidate } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    if self.legal(c) {
                        return reject(
                            report,
                            DiagCode::ProofCoverageGap,
                            format!(
                                "event {k} legality-prunes tuple {candidate}, but all its \
                                 predecessors are scheduled — its subtree is not covered"
                            ),
                        );
                    }
                    disposed.push(Disposed {
                        tuple: candidate,
                        placed: false,
                    });
                }
                ProofEvent::EquivalencePrune { candidate, witness } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    let placed_here = disposed[top.start..]
                        .iter()
                        .any(|d| d.placed && d.tuple == witness);
                    if !placed_here {
                        return reject(
                            report,
                            DiagCode::StaleEquivalenceWitness,
                            format!(
                                "event {k} cites witness {witness}, which was never placed \
                                 at this node"
                            ),
                        );
                    }
                    if !self.interchangeable(cert.header.equivalence, c, witness as usize) {
                        return reject(
                            report,
                            DiagCode::StaleEquivalenceWitness,
                            format!(
                                "event {k}: tuples {candidate} and {witness} are not \
                                 interchangeable (need σ = ∅, ρ = ∅ and identical \
                                 successor sets)"
                            ),
                        );
                    }
                    disposed.push(Disposed {
                        tuple: candidate,
                        placed: false,
                    });
                }
                ProofEvent::BoundPrune {
                    candidate,
                    mu,
                    bound,
                    chain,
                    resource,
                    term,
                } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    if !self.legal(c) {
                        return reject(
                            report,
                            DiagCode::IllegalPlacement,
                            format!(
                                "event {k} bound-prunes tuple {candidate}, which is not \
                                 even legal here"
                            ),
                        );
                    }
                    self.push(c);
                    let derived_mu = self.mu();
                    let arithmetic = if derived_mu != mu {
                        Some(format!(
                            "event {k}: recorded μ {mu}, re-derived {derived_mu}"
                        ))
                    } else {
                        match cert.header.bound {
                            BoundKind::AlphaBeta => {
                                if chain.is_some()
                                    || resource.is_some()
                                    || term.is_some()
                                    || bound != mu
                                {
                                    Some(format!(
                                        "event {k}: the α-β bound is μ itself ({mu}), \
                                         recorded bound {bound}"
                                    ))
                                } else {
                                    None
                                }
                            }
                            BoundKind::CriticalPath => {
                                let (dc, dr, mut db) = self.terms();
                                // The search stopped the term at the first
                                // value dominating the incumbent; so does
                                // the checker's schedule.
                                let reached = term.map(|_| {
                                    self.jackson(i64::from(incumbent) + self.n as i64 - 1)
                                });
                                if let Some(v) = term {
                                    db = db.max(self.bound_of(v));
                                }
                                if chain != Some(dc)
                                    || resource != Some(dr)
                                    || term != reached
                                    || bound != db
                                {
                                    Some(format!(
                                        "event {k}: recorded (chain, resource, term, bound) \
                                         = ({chain:?}, {resource:?}, {term:?}, {bound}), \
                                         re-derived ({dc}, {dr}, {reached:?}, {db})"
                                    ))
                                } else {
                                    None
                                }
                            }
                        }
                    };
                    self.pop();
                    if let Some(msg) = arithmetic {
                        return reject(report, DiagCode::BoundArithmeticMismatch, msg);
                    }
                    if bound < incumbent {
                        return reject(
                            report,
                            DiagCode::UnjustifiedBoundPrune,
                            format!(
                                "event {k}: bound {bound} does not dominate the \
                                 incumbent μ {incumbent} — a cheaper completion may \
                                 have been pruned"
                            ),
                        );
                    }
                    disposed.push(Disposed {
                        tuple: candidate,
                        placed: true,
                    });
                }
                ProofEvent::DominancePrune { candidate, back } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    if !self.legal(c) {
                        return reject(
                            report,
                            DiagCode::IllegalPlacement,
                            format!(
                                "event {k} dominance-prunes tuple {candidate}, which is not \
                                 even legal here"
                            ),
                        );
                    }
                    let cites = entered.checked_sub(back);
                    let closed = cites
                        .and_then(|id| witnesses.slot(id))
                        .and_then(|slot| witnesses.cited[slot].1);
                    let Some(witness) = closed else {
                        let why = match cites {
                            Some(id) if self.is_open(id, root_open) => {
                                format!("node {id}, which is still open")
                            }
                            Some(id) => format!("node {id}, which has not closed"),
                            None => format!("a node {back} entries back of {entered}"),
                        };
                        return reject(
                            report,
                            DiagCode::UnjustifiedDominancePrune,
                            format!("event {k} cites {why} as its witness"),
                        );
                    };
                    self.push(c);
                    let own = witnesses.keep(self);
                    self.pop();
                    if witnesses.set(witness) != witnesses.set(own) {
                        return reject(
                            report,
                            DiagCode::UnjustifiedDominancePrune,
                            format!(
                                "event {k}: the witness placed a different set of \
                                 instructions than the candidate prefix"
                            ),
                        );
                    }
                    let (witness, state) = (witnesses.state(witness), witnesses.state(own));
                    let later = witness.len() != state.len()
                        || witness.iter().zip(state).any(|(w, c)| w > c);
                    if later {
                        return reject(
                            report,
                            DiagCode::UnjustifiedDominancePrune,
                            format!(
                                "event {k}: the witness's state {witness:?} is later than the \
                                 candidate's {state:?} in some slot"
                            ),
                        );
                    }
                    witnesses.forget(own);
                    disposed.push(Disposed {
                        tuple: candidate,
                        placed: true,
                    });
                }
                ProofEvent::Leave => {
                    self.check_coverage(&disposed[top.start..], k, report)?;
                    self.close(top, &mut witnesses);
                    disposed.truncate(top.start);
                    if self.prefix.is_empty() {
                        // Root closed: the whole space is covered. Any
                        // further event is caught at the top of the loop.
                        root_open = false;
                    } else {
                        self.pop();
                    }
                }
                ProofEvent::Complete { mu } => {
                    self.check_leaf(k, report)?;
                    let derived = self.mu();
                    if derived != mu {
                        return reject(
                            report,
                            DiagCode::IncumbentRegression,
                            format!("event {k}: complete schedule μ {mu}, re-derived {derived}"),
                        );
                    }
                    if mu < incumbent {
                        return reject(
                            report,
                            DiagCode::IncumbentRegression,
                            format!(
                                "event {k}: a complete schedule with μ {mu} beats the \
                                 incumbent {incumbent} but was not recorded as an \
                                 improvement"
                            ),
                        );
                    }
                    self.close(top, &mut witnesses);
                    disposed.truncate(top.start);
                    self.pop();
                }
                ProofEvent::Improve { mu } => {
                    self.check_leaf(k, report)?;
                    let derived = self.mu();
                    if derived != mu {
                        return reject(
                            report,
                            DiagCode::IncumbentRegression,
                            format!("event {k}: improvement μ {mu}, re-derived {derived}"),
                        );
                    }
                    if mu >= incumbent {
                        return reject(
                            report,
                            DiagCode::IncumbentRegression,
                            format!(
                                "event {k}: claimed improvement to {mu} does not beat \
                                 the incumbent {incumbent}"
                            ),
                        );
                    }
                    incumbent = mu;
                    best_is_trailer = self.prefix == cert.trailer.order;
                    self.close(top, &mut witnesses);
                    disposed.truncate(top.start);
                    self.pop();
                }
                ProofEvent::ProvedByBound { lb } => {
                    let Some(global_lb) = global_lb.filter(|_| k + 1 == cert.events.len()) else {
                        return reject(
                            report,
                            DiagCode::CertificateMalformed,
                            format!("event {k}: ProvedByBound must end the transcript"),
                        );
                    };
                    if lb != global_lb {
                        return reject(
                            report,
                            DiagCode::LowerBoundMismatch,
                            format!(
                                "event {k}: claimed global lower bound {lb}, re-derived \
                                 {global_lb}"
                            ),
                        );
                    }
                    if incumbent > lb {
                        return reject(
                            report,
                            DiagCode::LowerBoundMismatch,
                            format!(
                                "event {k}: incumbent μ {incumbent} has not reached the \
                                 bound {lb}"
                            ),
                        );
                    }
                    proved = true;
                }
            }
        }

        if !cert.trailer.complete {
            return reject(
                report,
                DiagCode::ProofCoverageGap,
                "the search was curtailed (trailer says incomplete): a truncated \
                 transcript cannot certify optimality"
                    .to_string(),
            );
        }
        if !proved && root_open {
            return reject(
                report,
                DiagCode::ProofCoverageGap,
                format!(
                    "transcript ends with {} search node(s) still open",
                    self.prefix.len() + 1
                ),
            );
        }

        // Trailer: the claim must be exactly what the replay established.
        if !best_is_trailer {
            return reject(
                report,
                DiagCode::IncumbentRegression,
                "trailer order is not the incumbent the transcript established".to_string(),
            );
        }
        if cert.trailer.nops != incumbent {
            return reject(
                report,
                DiagCode::IncumbentRegression,
                format!(
                    "trailer claims μ {}, the replayed incumbent is {incumbent}",
                    cert.trailer.nops
                ),
            );
        }
        // Re-derive the claimed order's μ one final time, end to end.
        self.unwind();
        let final_mu = self.replay_order(&cert.trailer.order, "trailer order", report)?;
        if final_mu != cert.trailer.nops {
            return reject(
                report,
                DiagCode::IncumbentRegression,
                format!(
                    "trailer order needs {final_mu} NOPs, trailer claims {}",
                    cert.trailer.nops
                ),
            );
        }
        Ok(cert.trailer.nops)
    }

    /// The innermost open node: the one the last tuple of the prefix
    /// opened, else the root while it is open.
    fn innermost(&self, root_open: bool) -> Option<Frame> {
        match self.prefix.last() {
            Some(&t) => Some(self.tuples[t as usize].node),
            None => root_open.then_some(ROOT),
        }
    }

    /// Whether node `id` is open.
    fn is_open(&self, id: u64, root_open: bool) -> bool {
        (root_open && id == 0)
            || self
                .prefix
                .iter()
                .any(|&t| self.tuples[t as usize].node.id == id)
    }

    /// `frame`'s node closed at the current prefix: keep its set and state
    /// if a dominance prune cites it.
    fn close(&self, frame: Frame, witnesses: &mut Witnesses) {
        if frame.id == 0 {
            return;
        }
        if let Some(slot) = witnesses.slot(frame.id) {
            witnesses.cited[slot].1 = Some(witnesses.keep(self));
        }
    }

    /// Validate an event's candidate id: in range and not yet scheduled.
    fn candidate_index(
        &self,
        candidate: u32,
        event: usize,
        report: &mut Report,
    ) -> Result<usize, ()> {
        let c = candidate as usize;
        if c >= self.n {
            report.push(Diagnostic::new(
                DiagCode::CertificateMalformed,
                format!("event {event} names tuple {candidate}, which is not in the block"),
            ));
            return Err(());
        }
        if self.placed(c) {
            report.push(Diagnostic::new(
                DiagCode::CertificateMalformed,
                format!("event {event} dispositions tuple {candidate}, which is already scheduled"),
            ));
            return Err(());
        }
        Ok(c)
    }

    /// A closing node's dispositions must cover exactly its unscheduled
    /// instructions — no gaps, no duplicates.
    fn check_coverage(
        &mut self,
        disposed: &[Disposed],
        event: usize,
        report: &mut Report,
    ) -> Result<(), ()> {
        let unscheduled = self.n - self.prefix.len();
        let epoch = self.next_epoch();
        let mut distinct = 0usize;
        for d in disposed {
            let i = d.tuple as usize;
            if i < self.n && !self.placed(i) && self.tuples[i].stamp != epoch {
                self.tuples[i].stamp = epoch;
                distinct += 1;
            }
        }
        if distinct != unscheduled || disposed.len() != unscheduled {
            report.push(Diagnostic::new(
                DiagCode::ProofCoverageGap,
                format!(
                    "event {event} closes a node that dispositioned {distinct} of its \
                     {unscheduled} unscheduled instructions"
                ),
            ));
            return Err(());
        }
        Ok(())
    }

    /// `Complete`/`Improve` may only appear once every instruction is
    /// placed, and never at the root.
    fn check_leaf(&self, event: usize, report: &mut Report) -> Result<(), ()> {
        if self.prefix.len() != self.n {
            report.push(Diagnostic::new(
                DiagCode::CertificateMalformed,
                format!(
                    "event {event} reports a complete schedule with only {} of {} \
                     instructions placed",
                    self.prefix.len(),
                    self.n
                ),
            ));
            return Err(());
        }
        Ok(())
    }

    fn check_permutation(
        &mut self,
        order: &[u32],
        what: &str,
        report: &mut Report,
    ) -> Result<(), ()> {
        let epoch = self.next_epoch();
        let ok = order.len() == self.n
            && order.iter().all(|&t| {
                let i = t as usize;
                i < self.n && std::mem::replace(&mut self.tuples[i].stamp, epoch) != epoch
            });
        if !ok {
            report.push(Diagnostic::new(
                DiagCode::CertificateMalformed,
                format!(
                    "{what} is not a permutation of the block's {} tuples",
                    self.n
                ),
            ));
            return Err(());
        }
        Ok(())
    }

    /// Replay a full order from the empty prefix, returning its μ; the
    /// prefix is unwound again afterwards. Rejects illegal placements.
    fn replay_order(&mut self, order: &[u32], what: &str, report: &mut Report) -> Result<u32, ()> {
        debug_assert!(self.prefix.is_empty());
        let mut result = Ok(());
        for &t in order {
            if !self.legal(t as usize) {
                report.push(Diagnostic::new(
                    DiagCode::IllegalPlacement,
                    format!("{what} schedules tuple {t} before its predecessors"),
                ));
                result = Err(());
                break;
            }
            self.push(t as usize);
        }
        let mu = self.mu();
        self.unwind();
        result.map(|()| mu)
    }
}

/// Jackson's rule on one machine: `jobs` as `(head, tail)` in head
/// order, `pieces` unit pieces each, one piece per cycle, the released
/// piece of largest tail first; a piece run at cycle `t` reaches
/// `t + tail − (pieces − 1)`. Returns the first running maximum at or
/// above `target`, else the largest value reached (`i64::MIN` for no
/// job). A job of largest tail keeps the machine until it finishes or the
/// next release, so its pieces up to then run at once, each reaching one
/// more than the last; which of two equal-tail pieces runs first changes
/// no value.
fn run_jobs(jobs: &[(i64, i64)], queue: &mut BinaryHeap<u128>, pieces: i64, target: i64) -> i64 {
    queue.clear();
    let mut value = i64::MIN;
    let mut next = 0;
    let mut cycle = i64::MIN;
    loop {
        if queue.is_empty() {
            match jobs.get(next) {
                Some(&(head, _)) => cycle = cycle.max(head),
                None => return value,
            }
        }
        while let Some(&(head, tail)) = jobs.get(next) {
            if head > cycle {
                break;
            }
            queue.push(job_key(tail, pieces));
            next += 1;
        }
        let key = queue.pop().expect("a job is released");
        let (tail, left) = ((key >> 64) as i64, key as u64 as i64);
        let run = match jobs.get(next) {
            Some(&(release, _)) => left.min(release - cycle),
            None => left,
        };
        // The pieces reach `first` up to `last`, one more each.
        let first = cycle + tail - (pieces - 1);
        let last = first + run - 1;
        if last >= target {
            return value.max(first.max(target));
        }
        value = value.max(last);
        if left > run {
            queue.push(job_key(tail, left - run));
        }
        cycle += run;
    }
}

/// A released job's key in [`run_jobs`]'s queue: its tail, which is never
/// negative, above its pieces left, so the largest key is a job of
/// largest tail.
fn job_key(tail: i64, left: i64) -> u128 {
    u128::from(tail as u64) << 64 | u128::from(left as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_core::bnb::{prove, SearchConfig};
    use pipesched_core::SchedContext;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn demo_block() -> BasicBlock {
        let mut b = BlockBuilder::new("demo");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let s = b.add(m, x);
        b.store("r", s);
        b.finish().unwrap()
    }

    #[test]
    fn accepts_a_real_certificate() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (out, cert) = prove(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        let check = check_certificate(&block, &machine, &cert);
        assert!(check.is_certified(), "{}", check.report);
        assert_eq!(
            check.verdict,
            ProofVerdict::OptimalCertified { nops: out.nops }
        );
    }

    #[test]
    fn rejects_wrong_block() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (_, cert) = prove(&ctx, &SearchConfig::default());

        let mut other = BlockBuilder::new("other");
        other.load("q");
        let other = other.finish().unwrap();
        let check = check_certificate(&other, &machine, &cert);
        assert!(!check.is_certified());
        assert!(check.report.has_code(DiagCode::CertificateMalformed));
    }

    /// [`run_jobs`] one piece per cycle, as the certificate format
    /// defines the value.
    fn piece_by_piece(jobs: &[(i64, i64)], pieces: i64, target: i64) -> i64 {
        let mut queue = BinaryHeap::new();
        let (mut value, mut next, mut cycle) = (i64::MIN, 0, i64::MIN);
        loop {
            if queue.is_empty() {
                match jobs.get(next) {
                    Some(&(head, _)) => cycle = cycle.max(head),
                    None => return value,
                }
            }
            while let Some(&(head, tail)) = jobs.get(next) {
                if head > cycle {
                    break;
                }
                queue.push((tail, pieces));
                next += 1;
            }
            let (tail, left) = queue.pop().expect("a job is released");
            value = value.max(cycle + tail - (pieces - 1));
            if value >= target {
                return value;
            }
            if left > 1 {
                queue.push((tail, left - 1));
            }
            cycle += 1;
        }
    }

    #[test]
    fn whole_runs_reach_what_single_pieces_reach() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound) as i64
        };
        let mut queue = BinaryHeap::new();
        for _ in 0..5_000 {
            let mut jobs: Vec<(i64, i64)> = (0..draw(12)).map(|_| (draw(10), draw(16))).collect();
            jobs.sort_unstable_by_key(|&(head, _)| head);
            let pieces = 1 + draw(4);
            let full = piece_by_piece(&jobs, pieces, i64::MAX);
            for target in [i64::MAX, full, full + 1, draw(30), draw(30) - 5] {
                assert_eq!(
                    run_jobs(&jobs, &mut queue, pieces, target),
                    piece_by_piece(&jobs, pieces, target),
                    "{jobs:?}, {pieces} pieces, target {target}"
                );
            }
        }
    }

    #[test]
    fn empty_block_certificate() {
        let block = BlockBuilder::new("empty").finish().unwrap();
        let machine = presets::paper_simulation();
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (_, cert) = prove(&ctx, &SearchConfig::default());
        let check = check_certificate(&block, &machine, &cert);
        assert!(check.is_certified(), "{}", check.report);
    }
}
