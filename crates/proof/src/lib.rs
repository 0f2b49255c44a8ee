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

use std::collections::{BinaryHeap, HashMap, HashSet};

use pipesched_analyze::certify::{extract_deps, Dep};
use pipesched_analyze::diag::{DiagCode, Diagnostic, Report};
use pipesched_core::bnb::EquivalenceMode;
use pipesched_core::bounds::BoundKind;
use pipesched_core::proof::{Certificate, ProofEvent};
use pipesched_ir::{BasicBlock, TupleId};
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

/// One open search-tree node during replay.
#[derive(Default)]
struct Frame {
    /// The node's number: its `Enter`'s ordinal in the stream, the root 0.
    id: u64,
    /// Candidates this node has dispositioned (any event kind).
    disposed: Vec<u32>,
    /// Candidates actually placed at this node (`Enter`, `BoundPrune` or
    /// `DominancePrune`) — the only valid equivalence witnesses.
    placed_here: Vec<u32>,
}

/// The open nodes of the replay, with closed nodes' frames kept for
/// reuse so a long transcript allocates no frame per `Enter`.
struct Frames {
    open: Vec<Frame>,
    spare: Vec<Frame>,
}

impl Frames {
    fn open(&mut self, id: u64) {
        let mut frame = self.spare.pop().unwrap_or_default();
        frame.id = id;
        frame.disposed.clear();
        frame.placed_here.clear();
        self.open.push(frame);
    }

    fn close(&mut self, frame: Frame) {
        self.spare.push(frame);
    }
}

/// The replayed placed set and state of a closed node a dominance prune
/// cites.
struct Witness {
    set: Vec<u64>,
    state: Vec<i64>,
}

/// Replay state: static block/machine data plus an undoable prefix timing
/// built on the analyze crate's recurrence.
struct Checker<'a> {
    n: usize,
    block: &'a BasicBlock,
    /// Default unit per tuple (fixed-σ replay; selection is unsupported).
    sigma: Vec<Option<PipelineId>>,
    /// Immediate predecessors, independently re-extracted.
    deps: Vec<Vec<Dep>>,
    /// Transposed successor edges `(to, flow)`, sorted.
    succs: Vec<Vec<(u32, bool)>>,
    /// Sorted successor tuple ids (interchangeability condition).
    succ_ids: Vec<Vec<u32>>,
    /// Static chain tails, mirroring the bound's definition.
    tail: Vec<i64>,
    /// Cheapest flow latency per tuple: the distance tails and the heads
    /// of unplaced producers use.
    latency: Vec<i64>,
    /// Per-pipe enqueue times.
    enqueue: Vec<i64>,
    // --- dynamic prefix state ---
    issue: Vec<Option<i64>>,
    prefix: Vec<u32>,
    t_prev: i64,
    free: Vec<i64>,
    /// Per push: previous `t_prev` and, when σ ≠ ∅, the pipe's previous
    /// `free` value.
    undo: Vec<(i64, Option<(usize, i64)>)>,
    /// Unscheduled tuples per pipe, kept by `push`/`pop`.
    left_on_pipe: Vec<i64>,
    // --- buffers reused across events ---
    /// Coverage stamps: `stamp[i] == epoch` ⇔ `i` was counted by the
    /// current coverage check.
    stamp: Vec<u32>,
    epoch: u32,
    /// Heads of the unscheduled tuples.
    head: Vec<i64>,
    /// One machine's jobs as `(head, tail)`.
    jobs: Vec<(i64, i64)>,
    /// Released jobs as `(tail, pieces left)`.
    queue: BinaryHeap<(i64, i64)>,
}

impl<'a> Checker<'a> {
    fn new(block: &'a BasicBlock, machine: &'a Machine) -> Self {
        let n = block.len();
        let sigma: Vec<Option<PipelineId>> = block
            .tuples()
            .iter()
            .map(|t| machine.default_pipeline_for(t.op))
            .collect();
        let deps = extract_deps(block, machine, &sigma);
        let mut succs: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        for (i, list) in deps.iter().enumerate() {
            for d in list {
                succs[d.from.index()].push((i as u32, d.flow));
            }
        }
        for s in &mut succs {
            s.sort_unstable();
        }
        let succ_ids: Vec<Vec<u32>> = succs
            .iter()
            .map(|s| {
                let mut ids: Vec<u32> = s.iter().map(|&(to, _)| to).collect();
                ids.dedup();
                ids
            })
            .collect();
        // tail[i]: minimum issue-to-issue cycles from i to the last
        // instruction of any dependence chain below it. Flow edges cost the
        // producer's cheapest allowed latency, other edges one tick — the
        // same definition the search's bound uses, re-derived here from the
        // checker's own dependences.
        let latency: Vec<i64> = block
            .tuples()
            .iter()
            .map(|t| {
                machine
                    .pipelines_for(t.op)
                    .iter()
                    .map(|&p| i64::from(machine.pipeline(p).latency))
                    .min()
                    .unwrap_or(1)
            })
            .collect();
        let mut tail = vec![0i64; n];
        for i in (0..n).rev() {
            for &(to, flow) in &succs[i] {
                let delay = if flow { latency[i] } else { 1 };
                tail[i] = tail[i].max(delay + tail[to as usize]);
            }
        }
        let enqueue: Vec<i64> = (0..machine.pipeline_count())
            .map(|p| i64::from(machine.pipeline(PipelineId(p as u32)).enqueue))
            .collect();
        let mut left_on_pipe = vec![0i64; enqueue.len()];
        for p in sigma.iter().flatten() {
            left_on_pipe[p.index()] += 1;
        }
        Checker {
            n,
            block,
            sigma,
            deps,
            succs,
            succ_ids,
            tail,
            latency,
            enqueue,
            issue: vec![None; n],
            prefix: Vec::new(),
            t_prev: -1,
            free: vec![0; machine.pipeline_count()],
            undo: Vec::new(),
            left_on_pipe,
            stamp: vec![0; n],
            epoch: 0,
            head: vec![0; n],
            jobs: Vec::new(),
            queue: BinaryHeap::new(),
        }
    }

    // --- prefix timing (analyze recurrence, with O(1) undo) ---

    fn earliest(&self, t: usize) -> i64 {
        let mut cycle = self.t_prev + 1;
        for d in &self.deps[t] {
            let pt = self.issue[d.from.index()].expect("predecessor must be placed");
            cycle = cycle.max(pt + d.delay as i64);
        }
        if let Some(p) = self.sigma[t] {
            cycle = cycle.max(self.free[p.index()]);
        }
        cycle
    }

    fn legal(&self, t: usize) -> bool {
        self.deps[t]
            .iter()
            .all(|d| self.issue[d.from.index()].is_some())
    }

    fn push(&mut self, t: usize) {
        let cycle = self.earliest(t);
        self.issue[t] = Some(cycle);
        self.prefix.push(t as u32);
        let pipe_undo = self.sigma[t].map(|p| {
            let prev = self.free[p.index()];
            self.free[p.index()] = cycle + self.enqueue[p.index()];
            self.left_on_pipe[p.index()] -= 1;
            (p.index(), prev)
        });
        self.undo.push((self.t_prev, pipe_undo));
        self.t_prev = cycle;
    }

    fn pop(&mut self) {
        let t = self.prefix.pop().expect("pop on empty prefix") as usize;
        self.issue[t] = None;
        let (prev_t_prev, pipe_undo) = self.undo.pop().expect("undo stack in sync");
        self.t_prev = prev_t_prev;
        if let Some((p, prev)) = pipe_undo {
            self.free[p] = prev;
            self.left_on_pipe[p] += 1;
        }
    }

    /// μ of the current prefix: NOPs between its issues.
    fn mu(&self) -> u32 {
        (self.t_prev + 1 - self.prefix.len() as i64) as u32
    }

    /// The current prefix's placed set as a bitset.
    fn placed_set(&self) -> Vec<u64> {
        let mut set = vec![0u64; self.n.div_ceil(64)];
        for &t in &self.prefix {
            set[t as usize / 64] |= 1 << (t % 64);
        }
        set
    }

    /// The current prefix's dominance state, re-derived from the replay:
    /// `t`, then `max(free, t + 1)` of each pipe an unplaced tuple uses,
    /// then, in index order, `max(issue + delay, t + 1)` of each placed
    /// tuple over its unplaced consumers. Prefixes of one set list the
    /// same slots.
    fn dominance_state(&self) -> Vec<i64> {
        let t = self.t_prev;
        let mut state = vec![t];
        for (p, &left) in self.left_on_pipe.iter().enumerate() {
            if left > 0 {
                state.push(self.free[p].max(t + 1));
            }
        }
        for u in 0..self.n {
            let Some(at) = self.issue[u] else { continue };
            let ready = self.succs[u]
                .iter()
                .filter(|&&(v, _)| self.issue[v as usize].is_none())
                .flat_map(|&(v, _)| self.deps[v as usize].iter())
                .filter(|d| d.from.index() == u)
                .map(|d| at + d.delay as i64)
                .max();
            if let Some(ready) = ready {
                state.push(ready.max(t + 1));
            }
        }
        state
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
            if self.issue[t].is_some() || !self.legal(t) {
                continue;
            }
            chain = chain.max(self.earliest(t) + self.tail[t]);
        }
        let mut resource = base;
        for (p, &k) in self.left_on_pipe.iter().enumerate() {
            if k > 0 {
                resource = resource.max(self.t_prev + 1 + self.enqueue[p] * (k - 1));
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
            if self.issue[t].is_some() {
                continue;
            }
            let mut head = self.t_prev + 1;
            if let Some(p) = self.sigma[t] {
                head = head.max(self.free[p.index()]);
            }
            for d in &self.deps[t] {
                let from = d.from.index();
                head = head.max(match self.issue[from] {
                    Some(at) => at + d.delay as i64,
                    None => self.head[from] + if d.flow { self.latency[from] } else { 1 },
                });
            }
            self.head[t] = head;
        }
        let mut value = self.machine(None, 1, target);
        for p in 0..self.enqueue.len() {
            if value >= target {
                break;
            }
            if self.enqueue[p] > 1 {
                value = value.max(self.machine(Some(p), self.enqueue[p], target));
            }
        }
        value
    }

    /// One machine of [`Checker::jackson`]: the unscheduled tuples on
    /// `pipe` (every one for the issue slot), `pieces` unit pieces each,
    /// run one piece per cycle.
    fn machine(&mut self, pipe: Option<usize>, pieces: i64, target: i64) -> i64 {
        self.jobs.clear();
        for t in 0..self.n {
            let on = pipe.is_none() || self.sigma[t].map(PipelineId::index) == pipe;
            if on && self.issue[t].is_none() {
                self.jobs.push((self.head[t], self.tail[t]));
            }
        }
        self.jobs.sort_unstable();
        self.queue.clear();
        let mut value = i64::MIN;
        let mut next = 0;
        let mut cycle = i64::MIN;
        loop {
            if self.queue.is_empty() {
                match self.jobs.get(next) {
                    Some(&(head, _)) => cycle = cycle.max(head),
                    None => return value,
                }
            }
            while let Some(&(head, tail)) = self.jobs.get(next) {
                if head > cycle {
                    break;
                }
                self.queue.push((tail, pieces));
                next += 1;
            }
            let (tail, left) = self.queue.pop().expect("a job is released");
            value = value.max(cycle + tail - (pieces - 1));
            if value >= target {
                return value;
            }
            if left > 1 {
                self.queue.push((tail, left - 1));
            }
            cycle += 1;
        }
    }

    /// A tuple is *free* when it uses no pipeline and has no dependences.
    fn is_free(&self, t: usize) -> bool {
        self.sigma[t].is_none() && self.deps[t].is_empty()
    }

    /// Sorted `(from, flow)` predecessor key (structural classes).
    fn pred_key(&self, t: usize) -> Vec<(u32, bool)> {
        let mut key: Vec<(u32, bool)> = self.deps[t].iter().map(|d| (d.from.0, d.flow)).collect();
        key.sort_unstable();
        key
    }

    /// The interchangeability condition for an equivalence prune of
    /// `candidate` against `witness`, under the header's filter mode.
    /// Certificates recorded with [`EquivalenceMode::UnrestrictedPaper`]
    /// are deliberately held to the *restricted* (sound) condition.
    fn interchangeable(&self, mode: EquivalenceMode, candidate: usize, witness: usize) -> bool {
        match mode {
            EquivalenceMode::Off => false,
            EquivalenceMode::Paper | EquivalenceMode::UnrestrictedPaper => {
                self.is_free(candidate)
                    && self.is_free(witness)
                    && self.succ_ids[candidate] == self.succ_ids[witness]
            }
            EquivalenceMode::Structural => {
                self.block.tuple(TupleId(candidate as u32)).op
                    == self.block.tuple(TupleId(witness as u32)).op
                    && self.pred_key(candidate) == self.pred_key(witness)
                    && self.succs[candidate] == self.succs[witness]
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
        let mut best_order: Vec<u32> = cert.header.initial_order.clone();

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

        // The nodes dominance prunes cite, found by counting `Enter`s
        // ahead of the replay: only their states are kept when they close.
        let mut cited = HashSet::new();
        let mut entered = 0u64;
        for ev in &cert.events {
            match *ev {
                ProofEvent::Enter { .. } => entered += 1,
                ProofEvent::DominancePrune { back, .. } => {
                    cited.extend(entered.checked_sub(back));
                }
                _ => {}
            }
        }
        let mut closed: HashMap<u64, Witness> = HashMap::new();
        let mut entered = 0u64;

        let mut frames = Frames {
            open: Vec::new(),
            spare: Vec::new(),
        };
        frames.open(0);
        let mut proved = false;

        for (k, ev) in cert.events.iter().enumerate() {
            if frames.open.is_empty() {
                return reject(
                    report,
                    DiagCode::CertificateMalformed,
                    format!("event {k} follows the root node's Leave"),
                );
            }
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
                    let frame = frames.open.last_mut().expect("non-empty");
                    frame.disposed.push(candidate);
                    frame.placed_here.push(candidate);
                    self.push(c);
                    entered += 1;
                    frames.open(entered);
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
                    frames
                        .open
                        .last_mut()
                        .expect("non-empty")
                        .disposed
                        .push(candidate);
                }
                ProofEvent::EquivalencePrune { candidate, witness } => {
                    let c = self.candidate_index(candidate, k, report)?;
                    let frame_placed = &frames.open.last().expect("non-empty").placed_here;
                    if !frame_placed.contains(&witness) {
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
                    frames
                        .open
                        .last_mut()
                        .expect("non-empty")
                        .disposed
                        .push(candidate);
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
                    let frame = frames.open.last_mut().expect("non-empty");
                    frame.disposed.push(candidate);
                    frame.placed_here.push(candidate);
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
                    let Some(witness) = cites.and_then(|id| closed.get(&id)) else {
                        let why = match cites {
                            Some(id) if frames.open.iter().any(|f| f.id == id) => {
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
                    let set = self.placed_set();
                    let state = self.dominance_state();
                    self.pop();
                    if witness.set != set {
                        return reject(
                            report,
                            DiagCode::UnjustifiedDominancePrune,
                            format!(
                                "event {k}: the witness placed a different set of \
                                 instructions than the candidate prefix"
                            ),
                        );
                    }
                    let later = witness.state.len() != state.len()
                        || witness.state.iter().zip(&state).any(|(w, c)| w > c);
                    if later {
                        return reject(
                            report,
                            DiagCode::UnjustifiedDominancePrune,
                            format!(
                                "event {k}: the witness's state {:?} is later than the \
                                 candidate's {state:?} in some slot",
                                witness.state
                            ),
                        );
                    }
                    let frame = frames.open.last_mut().expect("non-empty");
                    frame.disposed.push(candidate);
                    frame.placed_here.push(candidate);
                }
                ProofEvent::Leave => {
                    let frame = frames.open.pop().expect("non-empty");
                    self.check_coverage(&frame, k, report)?;
                    self.close(&frame, &cited, &mut closed);
                    frames.close(frame);
                    if frames.open.is_empty() {
                        // Root closed: the whole space is covered. Any
                        // further event is caught at the top of the loop.
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
                    if let Some(frame) = frames.open.pop() {
                        self.close(&frame, &cited, &mut closed);
                        frames.close(frame);
                    }
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
                    best_order.clear();
                    best_order.extend_from_slice(&self.prefix);
                    if let Some(frame) = frames.open.pop() {
                        self.close(&frame, &cited, &mut closed);
                        frames.close(frame);
                    }
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
        if !proved && !frames.open.is_empty() {
            return reject(
                report,
                DiagCode::ProofCoverageGap,
                format!(
                    "transcript ends with {} search node(s) still open",
                    frames.open.len()
                ),
            );
        }

        // Trailer: the claim must be exactly what the replay established.
        if cert.trailer.order != best_order {
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
        while !self.prefix.is_empty() {
            self.pop();
        }
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

    /// `frame`'s node closed at the current prefix: keep its set and state
    /// if a dominance prune cites it.
    fn close(&self, frame: &Frame, cited: &HashSet<u64>, closed: &mut HashMap<u64, Witness>) {
        if frame.id > 0 && cited.contains(&frame.id) {
            let witness = Witness {
                set: self.placed_set(),
                state: self.dominance_state(),
            };
            closed.insert(frame.id, witness);
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
        if self.issue[c].is_some() {
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
        frame: &Frame,
        event: usize,
        report: &mut Report,
    ) -> Result<(), ()> {
        let unscheduled = self.n - self.prefix.len();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let mut distinct = 0usize;
        for &d in &frame.disposed {
            let i = d as usize;
            if i < self.n && self.issue[i].is_none() && self.stamp[i] != self.epoch {
                self.stamp[i] = self.epoch;
                distinct += 1;
            }
        }
        if distinct != unscheduled || frame.disposed.len() != unscheduled {
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

    fn check_permutation(&self, order: &[u32], what: &str, report: &mut Report) -> Result<(), ()> {
        let mut seen = vec![false; self.n];
        let ok = order.len() == self.n
            && order.iter().all(|&t| {
                let i = t as usize;
                i < self.n && !std::mem::replace(&mut seen[i], true)
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
        while !self.prefix.is_empty() {
            self.pop();
        }
        result.map(|()| mu)
    }
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
