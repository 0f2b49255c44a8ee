//! The pruned schedule search procedure (§4.2.3).
//!
//! Every search enters through [`run`], which seeds the incumbent, settles
//! what the seed alone settles, runs the serial kernel below or the pool
//! of [`crate::parallel`], and assembles the certificate. [`search`] and
//! [`prove`] are its one-line shorthands.
//!
//! The search is a depth-first walk over prefixes of legal schedules. Depth
//! `i` decides which instruction occupies position `i`; candidates are
//! drawn from the unscheduled suffix of the current ordering Π (initially
//! the list schedule), with the instruction already at position `i` tried
//! first — so the first full descent reproduces the initial incumbent and
//! the α-β bound is tight from the start.
//!
//! Pruning devices, mapped to the paper's step numbers:
//!
//! * **[5a] quick legality** — `earliest(ξ) ≤ i` (definition 6) rejects a
//!   candidate without touching the readiness counters. The other half of
//!   the paper's check, `latest(κ) ≥ Π⁻¹(ξ)`, constrains the instruction
//!   displaced *out* of position `i`; our enumeration treats the suffix as
//!   unordered scratch (every later depth rescans all of Ψ), so that half
//!   is vacuous here and is not applied.
//! * **[5b] real legality** — all of ξ's immediate predecessors are already
//!   scheduled (O(1) via a pending-predecessor counter).
//! * **[5c] equivalence** — skip swapping two *interchangeable free*
//!   instructions: both `σ = ∅` and `ρ = ∅` **and identical successor
//!   sets**. The paper's printed rule omits the successor condition, and
//!   our brute-force property suite found a counterexample for the
//!   unrestricted rule: two constants feeding *different* consumers are not
//!   order-equivalent, because placing one first makes different
//!   instructions ready at the intermediate depths (e.g. `Const→Mul` vs
//!   `Const→Add` chains on a high-enqueue machine lose one NOP of the
//!   optimum). With the successor restriction the swap is a pure
//!   relabeling — identical timing and identical readiness — so pruning it
//!   is safe, and the restricted rule still fires on the common case of
//!   duplicate literals. [`EquivalenceMode::Structural`] extends the idea
//!   to classes of instructions with identical operation, predecessor set
//!   and successor set.
//! * **[6] α-β bound** — extend a partial schedule only while its NOP count
//!   (optionally strengthened by [`BoundKind::CriticalPath`]) is strictly
//!   below the incumbent's. The strengthened bound adds its
//!   heads-and-tails term only where a prune pays for it: once the search
//!   has run [`SearchConfig::switch_on`] Ω (as the pool counts it, see
//!   [`crate::parallel`]), on placements that leave at least
//!   [`crate::bounds::JACKSON_GATE`] instructions unscheduled and that the
//!   cheap terms leave open (see [`crate::bounds`]).
//! * **dominance** (extension) — past the same switch-on, the
//!   strengthened bound's searches keep a table of closed prefixes: a
//!   placement the bound leaves open is pruned when an explored prefix of
//!   the same instruction set reached a state no later in any slot (see
//!   [`crate::dominance`]).
//! * **[4] curtail point λ** — hard cap on Ω calls; hitting it returns the
//!   best schedule found with `optimal = false`.
//!
//! Each placement costs O(out-degree + |ready|), not a rescan of the block.
//! The timing engine pushes ξ in O(in-degree) and pops it in O(1).
//! `bounds::Frontier` holds the unscheduled side of the prefix: the
//! pending-predecessor counts [5b] reads, the ready set as a bitset, each
//! ready instruction's dependence-ready cycle (cached when its last
//! predecessor is placed), and the per-pipe counts of unplaced ops. One
//! `commit`/`uncommit` pair updates all of it, for every placement the
//! bound prices (under α-β, every placement descended into) and for the
//! prefix a pool task starts from. The bound prices each ready ξ as
//! `max(pipe_free(σ(ξ)), cached dep)`. That is the same integer the engine
//! would compute from scratch, because ξ's predecessors stay placed for as
//! long as ξ is ready. The bound is a max over the ready set, so the order
//! of the set does not matter either. Bounds, prunes, Ω and node counts,
//! schedules and certificate digests are therefore bit-identical to a
//! from-scratch scan (`tests/kernel_pin.rs`).
//!
//! **Windows** (see [`crate::windowed`]). With `order[..start]` committed,
//! the kernel can search positions `start..end` alone: a schedule is then
//! complete at its horizon `end`, the bound is that of the down-set
//! `order[..end]` (see [`crate::bounds`]), and the window stops at its own
//! root bound. One `Search` runs a block's windows in turn.
//!
//! With [`SearchConfig::pipeline_selection`] enabled the search also chooses
//! *which* unit executes each instruction when the machine maps an
//! operation to several pipelines (the feature §4.1 footnote 3 excludes
//! from the paper's algorithm), with symmetry breaking over units in
//! identical states: same latency, same enqueue time and same last enqueue,
//! counting the state a preceding block left in the unit.

use pipesched_ir::{analysis::verify_schedule, TupleId};
use pipesched_machine::PipelineId;

pub use crate::bounds::BoundKind;
use crate::bounds::{Frontier, LowerBound};
use crate::context::SchedContext;
use crate::dominance::Dominance;
use crate::parallel::ParallelConfig;
use crate::profile::{DepthStats, SearchProfile};
use crate::proof::{
    trailer_for, Certificate, CertificateHeader, ProofEvent, ProofLogger, ProofOutput,
};
use crate::seed::{seed_with, SearchSeed};
use crate::timing::{BoundaryState, TimingEngine};

/// Which heuristic seeds the search's initial incumbent (step [1]).
/// §3.2 notes that "any other scheduling technique proposed in the
/// literature ... could be applied to find this initial schedule"; the
/// quality of the incumbent controls how early the α-β bound bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialHeuristic {
    /// The paper's [ZaD90] max-producer-consumer-distance list schedule
    /// (machine-independent).
    #[default]
    MaxDistance,
    /// Source/program order — what naive code generation emits.
    SourceOrder,
    /// The Gross-style machine-aware greedy schedule.
    Greedy,
}

/// How aggressively provably-equivalent schedules are filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivalenceMode {
    /// No equivalence filtering (for ablation).
    Off,
    /// The paper's rule [5c]: both instructions pipeline-free and
    /// dependence-free.
    #[default]
    Paper,
    /// The paper's rule [5c] exactly as printed — **without** the
    /// identical-successor-set restriction the module docs explain. This
    /// rule is *unsound* (it can prune the only optimal schedules); the
    /// variant exists so the proof checker's rejection of over-pruning
    /// certificates can be demonstrated and tested, and for ablation.
    /// Never use it to produce schedules you intend to trust.
    UnrestrictedPaper,
    /// Structural interchangeability classes (strict superset of `Paper`).
    Structural,
}

/// Tunable parameters of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Curtail point λ: maximum Ω calls before truncation (§2.3).
    pub lambda: u64,
    /// Pruning bound (paper α-β or strengthened critical path).
    pub bound: BoundKind,
    /// Equivalent-schedule filtering mode.
    pub equivalence: EquivalenceMode,
    /// Choose among multiple pipelines per op (extension; §4.1 footnote 3).
    pub pipeline_selection: bool,
    /// Apply the quick [5a] pre-check (for ablation; never affects results).
    pub quick_check: bool,
    /// Heuristic for the initial incumbent (step [1]).
    pub initial: InitialHeuristic,
    /// Stop with an optimality *proof* as soon as the incumbent's NOP count
    /// reaches the admissible critical-path/resource lower bound of the
    /// whole block (an implementation strengthening beyond the paper: it
    /// never changes which schedule is found, only how quickly the search
    /// can prove it optimal instead of exhausting the space).
    pub terminate_on_lower_bound: bool,
    /// Wall-clock deadline: the search stops (anytime, returning the
    /// incumbent with `optimal = false`) once `Instant::now()` passes it.
    /// Checked every [`DEADLINE_CHECK_INTERVAL`] Ω calls so the hot path
    /// never reads the clock. `None` disables the deadline (the default).
    pub deadline: Option<std::time::Instant>,
    /// Ω a search runs before the critical-path bound's heads-and-tails
    /// term prices its interior placements and before it builds its
    /// dominance table ([`crate::dominance`]), as the pool counts Ω (see
    /// [`crate::parallel`]). Most blocks settle in a few hundred Ω, where
    /// neither pays for itself: on the 16,000-block corpus, evaluating the
    /// term from the first Ω cut Ω only 9.92M → 9.24M but raised the
    /// serial p50 from 25–32 µs to 36–46 µs (three alternating passes,
    /// shared 2-vCPU x86-64 host). The default, 1,000, equals
    /// [`crate::parallel::HELPER_THRESHOLD`], so a pool's helpers, which
    /// start only past it, price and keep tables from their first Ω.
    /// Tests set 0 to run both from the first Ω.
    pub switch_on: u64,
}

/// Ω calls between wall-clock reads when a deadline is set. A power of two
/// so the throttle is a mask; small enough that the overshoot past the
/// deadline stays in the tens of microseconds on any realistic block.
/// Measured on 21 generated blocks of 181–199 instructions at a 2-ms
/// deadline (5 runs each, 2-vCPU x86-64 host): at 512 Ω the median
/// overshoot was 121–152 µs, with or without the heads-and-tails term;
/// at 64 Ω it is 35–44 µs (p90 85–90 µs), for one clock read per about
/// 10 µs of search.
pub const DEADLINE_CHECK_INTERVAL: u64 = 64;

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            // §5.3 used curtail points "large relative to the number of
            // items searched for an optimal search of an average block";
            // the truncated runs averaged 54,150 Ω calls.
            lambda: 50_000,
            bound: BoundKind::CriticalPath,
            equivalence: EquivalenceMode::Paper,
            pipeline_selection: false,
            quick_check: true,
            initial: InitialHeuristic::MaxDistance,
            terminate_on_lower_bound: true,
            deadline: None,
            switch_on: 1_000,
        }
    }
}

impl SearchConfig {
    /// Config with a specific curtail point.
    pub fn with_lambda(lambda: u64) -> Self {
        SearchConfig {
            lambda,
            ..Self::default()
        }
    }

    /// Builder-style deadline override (see [`SearchConfig::deadline`]).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The paper's algorithm exactly as §4.2.3 describes it: plain α-β
    /// bound, rule-[5c] equivalence, no lower-bound termination. Used by
    /// the ablation experiments; the library default strengthens the bound
    /// (provably without changing which schedule is found).
    pub fn paper_exact() -> Self {
        SearchConfig {
            bound: BoundKind::AlphaBeta,
            terminate_on_lower_bound: false,
            ..Self::default()
        }
    }
}

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes visited: one per committed prefix whose
    /// extensions were enumerated (the root counts; complete schedules
    /// count). For a completed, non-stopped, non-selection search this
    /// satisfies
    /// `nodes_visited == 1 + omega_calls - pruned_bound - pruned_dominance`.
    pub nodes_visited: u64,
    /// Ω calls: incremental NOP-insertion evaluations (one per placement).
    pub omega_calls: u64,
    /// Complete schedules reached.
    pub complete_schedules: u64,
    /// Times the incumbent improved.
    pub improvements: u64,
    /// Candidates rejected by the quick [5a] check.
    pub pruned_quick: u64,
    /// Candidates rejected by the readiness test [5b].
    pub pruned_legality: u64,
    /// Candidates rejected by the equivalence filter [5c].
    pub pruned_equivalence: u64,
    /// Subtrees abandoned by the α-β / lower-bound test [6].
    pub pruned_bound: u64,
    /// Pipeline-unit choices skipped by symmetry breaking.
    pub pruned_symmetry: u64,
    /// Placements the bound left open that a closed prefix of the same
    /// instruction set dominated (see [`crate::dominance`]).
    pub pruned_dominance: u64,
    /// Subtrees offloaded to a work-stealing pool at a split point
    /// (always 0 in serial searches).
    pub splits: u64,
    /// Offloaded subtrees executed by a worker other than the one that
    /// split them off (always 0 in serial searches).
    pub steals: u64,
    /// True when λ or the wall-clock deadline was exhausted before the
    /// search completed.
    pub truncated: bool,
    /// True when the truncation was caused by the wall-clock deadline
    /// (implies `truncated`).
    pub deadline_hit: bool,
    /// True when the search stopped early because the incumbent reached the
    /// admissible global lower bound (still a proof of optimality).
    pub proved_by_bound: bool,
}

impl SearchStats {
    /// Candidates rejected by any pruning rule — the single "pruned"
    /// number wide events and dashboards report.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_quick
            + self.pruned_legality
            + self.pruned_equivalence
            + self.pruned_bound
            + self.pruned_symmetry
            + self.pruned_dominance
    }

    /// Add `other`'s counters to these and OR in its flags: the workers
    /// of one pool, the two phases of a pooled proof, the blocks of a
    /// sequence.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.omega_calls += other.omega_calls;
        self.complete_schedules += other.complete_schedules;
        self.improvements += other.improvements;
        self.pruned_quick += other.pruned_quick;
        self.pruned_legality += other.pruned_legality;
        self.pruned_equivalence += other.pruned_equivalence;
        self.pruned_bound += other.pruned_bound;
        self.pruned_symmetry += other.pruned_symmetry;
        self.pruned_dominance += other.pruned_dominance;
        self.splits += other.splits;
        self.steals += other.steals;
        self.truncated |= other.truncated;
        self.deadline_hit |= other.deadline_hit;
        self.proved_by_bound |= other.proved_by_bound;
    }
}

/// Result of a search: the best schedule found and how it was found.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best instruction order found.
    pub order: Vec<TupleId>,
    /// Pipeline unit assigned to each tuple (indexed by tuple id).
    pub assignment: Vec<Option<PipelineId>>,
    /// η per *position* of `order`: NOPs inserted before each instruction.
    pub etas: Vec<u32>,
    /// μ of the best schedule.
    pub nops: u32,
    /// The initial (list) schedule the search started from.
    pub initial_order: Vec<TupleId>,
    /// μ of the initial schedule.
    pub initial_nops: u32,
    /// True when the search ran to completion, proving optimality.
    pub optimal: bool,
    /// Search counters.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// Total execution cycles of the padded schedule
    /// (instructions + NOPs; the last instruction's issue cycle + 1).
    pub fn total_cycles(&self) -> u64 {
        self.order.len() as u64 + u64::from(self.nops)
    }

    /// NOPs eliminated relative to the initial list schedule.
    pub fn nops_removed(&self) -> u32 {
        self.initial_nops.saturating_sub(self.nops)
    }
}

/// How [`run`] executes one search, beyond what its [`SearchConfig`]
/// decides. `Run::default()` is the plain serial search from a cold
/// block boundary.
#[derive(Default)]
pub struct Run<'r> {
    /// `None` runs the serial kernel; `Some` runs the work-stealing pool
    /// of [`crate::parallel`]. A `pipeline_selection` search always runs
    /// serially: the pool's task snapshots do not carry the per-unit
    /// symmetry state.
    pub parallel: Option<ParallelConfig>,
    /// The pipeline state a preceding block left behind (footnote 1), so
    /// cross-block conflicts are priced into every η. `None` is a cold
    /// boundary.
    pub boundary: Option<&'r BoundaryState>,
    /// Record a machine-checkable optimality certificate (see
    /// [`crate::proof`]): streamed event by event from the serial kernel,
    /// or merged from the pool's per-subtree parts.
    pub proof: Option<ProofLogger>,
    /// Fill a per-depth breakdown of the run: nodes, Ω calls, prune counts
    /// by rule and inclusive wall time per depth (see [`crate::profile`]).
    /// Pure observation: the result is the same as without it.
    pub profile: Option<&'r mut SearchProfile>,
}

/// A [`Run`] that [`run`] refuses, because what it asks for has no
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A certificate of a `pipeline_selection` search: the checker
    /// replays fixed-unit timing only.
    ProofWithSelection,
    /// A certificate from a carried boundary: a certificate is a claim
    /// about the block in isolation.
    ProofWithBoundary,
    /// A per-depth profile of a pooled search: only the serial kernel
    /// keeps one.
    ProfileWithPool,
    /// The boundary describes a different number of pipelines than the
    /// machine has.
    BoundaryMismatch {
        /// Pipelines of the machine.
        machine: usize,
        /// Pipelines the boundary describes.
        boundary: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ProofWithSelection => f.write_str(
                "a certificate cannot record the pipeline-selection extension \
                 (the checker replays fixed-unit timing)",
            ),
            RunError::ProofWithBoundary => {
                f.write_str("a certificate covers the block alone, so it needs a cold boundary")
            }
            RunError::ProfileWithPool => {
                f.write_str("a per-depth profile needs the serial kernel, not the pool")
            }
            RunError::BoundaryMismatch { machine, boundary } => write!(
                f,
                "the boundary describes {boundary} pipelines, the machine has {machine}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The search's one front door: seed the incumbent (step [1]), settle
/// what the seed alone settles, run the serial kernel or the pool, and
/// assemble the certificate.
///
/// The seed settles three cases without any search: an empty block, a
/// seed already at the admissible whole-block lower bound (optimal,
/// proved by the bound) and a deadline already past (the seed answers,
/// flagged non-optimal). Everything else runs the kernel with the hook
/// policy the run needs, picked once here, so a plain search compiles to
/// the un-hooked kernel.
///
/// Returns the outcome and, when [`Run::proof`] is set, what the logger
/// produced. A run whose parts have no meaning together returns its
/// [`RunError`] and searches nothing.
pub fn run(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    run: Run<'_>,
) -> Result<(SearchOutcome, Option<ProofOutput>), RunError> {
    let Run {
        parallel,
        boundary,
        mut proof,
        profile,
    } = run;
    let pipes = ctx.machine.pipeline_count();
    if let Some(b) = boundary.filter(|b| b.pipe_age.len() != pipes) {
        return Err(RunError::BoundaryMismatch {
            machine: pipes,
            boundary: b.pipe_age.len(),
        });
    }
    if proof.is_some() && cfg.pipeline_selection {
        return Err(RunError::ProofWithSelection);
    }
    if proof.is_some() && boundary.is_some_and(|b| b.pipe_age.iter().any(Option::is_some)) {
        return Err(RunError::ProofWithBoundary);
    }
    if profile.is_some() && parallel.is_some() {
        return Err(RunError::ProfileWithPool);
    }

    // One engine and one frontier serve the seed's evaluation, its root
    // bound, the search and the final replay.
    let mut s = Search::new(ctx, cfg, boundary, NullPolicy);
    // Step [1]: initial incumbent from the configured heuristic, plus the
    // admissible whole-block lower bound (see `crate::seed`).
    let seed = s.seed(cfg.initial, boundary);
    if let Some(logger) = &mut proof {
        logger.begin(CertificateHeader {
            n: ctx.len() as u32,
            bound: cfg.bound,
            equivalence: cfg.equivalence,
            initial_order: seed.order.iter().map(|t| t.0).collect(),
            initial_nops: seed.nops,
        });
    }
    let settled = if ctx.is_empty() {
        Some(SearchStats::default())
    } else if cfg.terminate_on_lower_bound && seed.proved_by_bound() {
        if let Some(logger) = &mut proof {
            logger.log(ProofEvent::ProvedByBound { lb: seed.global_lb });
        }
        Some(SearchStats {
            proved_by_bound: true,
            ..SearchStats::default()
        })
    } else if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        Some(SearchStats {
            truncated: true,
            deadline_hit: true,
            ..SearchStats::default()
        })
    } else {
        None
    };

    let outcome = match (settled, parallel) {
        (Some(stats), _) => SearchOutcome {
            order: seed.order.clone(),
            assignment: ctx.sigma.clone(),
            etas: seed.etas,
            nops: seed.nops,
            initial_order: seed.order,
            initial_nops: seed.nops,
            optimal: !stats.truncated,
            stats,
        },
        (None, Some(par)) if !cfg.pipeline_selection => {
            crate::parallel::pool(s, &par, boundary, seed, proof.as_mut())
        }
        (None, _) => match (proof.as_mut(), profile) {
            (None, None) => kernel(s, seed),
            (Some(logger), None) => kernel(s.with_policy(ProofPolicy(logger)), seed),
            (None, Some(profile)) => kernel(s.with_policy(ProfilePolicy(profile)), seed),
            (Some(logger), Some(profile)) => {
                kernel(s.with_policy(ProofProfilePolicy(logger, profile)), seed)
            }
        },
    };
    let proof = proof.map(|logger| logger.finish(trailer_for(&outcome)));
    Ok((outcome, proof))
}

/// Run the pruned branch-and-bound search on `ctx`: [`run`] with the
/// serial kernel from a cold boundary.
pub fn search(ctx: &SchedContext<'_>, cfg: &SearchConfig) -> SearchOutcome {
    run(ctx, cfg, Run::default())
        .expect("a plain search has nothing to reject")
        .0
}

/// [`search`] while recording a machine-checkable optimality certificate
/// in memory: returns the certificate directly.
///
/// # Panics
///
/// Panics if `cfg.pipeline_selection` is set ([`RunError::ProofWithSelection`]).
pub fn prove(ctx: &SchedContext<'_>, cfg: &SearchConfig) -> (SearchOutcome, Certificate) {
    prove_with(ctx, cfg, None)
}

/// [`run`] with an in-memory proof logger, unwrapped to the certificate:
/// the body of [`prove`] and [`crate::parallel_prove`].
pub(crate) fn prove_with(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    parallel: Option<ParallelConfig>,
) -> (SearchOutcome, Certificate) {
    let proved = Run {
        parallel,
        proof: Some(ProofLogger::in_memory()),
        ..Run::default()
    };
    let (outcome, proof) = run(ctx, cfg, proved).unwrap_or_else(|e| panic!("{e}"));
    let cert = proof
        .and_then(|p| p.certificate)
        .expect("an in-memory proof logger always yields a certificate");
    (outcome, cert)
}

/// Compile-time hook bundle the kernel is generic over.
///
/// One branch-and-bound implementation serves every [`run`]: the plain
/// search, the certificate-logged and the profiled ones, and the
/// work-stealing workers in [`crate::parallel`]. Each supplies a policy;
/// hooks a policy leaves at their defaults monomorphize to nothing, so
/// [`NullPolicy`] compiles to the plain search.
///
/// The hooks fall into three groups:
///
/// * **observation** — [`log`](Self::log) records the proof transcript
///   (gated on [`PROOF`](Self::PROOF)), [`prof`](Self::prof) bumps
///   per-depth counters (gated on [`PROFILE`](Self::PROFILE)).
/// * **shared budgets & bounds** — [`charge_omega`](Self::charge_omega)
///   draws on a pool-wide λ, [`poll_stop`](Self::poll_stop) observes a
///   pool-wide stop flag, [`shared_best`](Self::shared_best) tightens the
///   local incumbent from the shared atomic, [`improved`](Self::improved)
///   publishes a new incumbent, and [`stopping`](Self::stopping) propagates
///   a local termination cause outward.
/// * **work distribution** — [`spawn`](Self::spawn) may take ownership of a
///   just-bounded subtree and defer it to a work-stealing deque.
pub(crate) trait SearchPolicy {
    /// True when the policy records a proof transcript; the kernel then
    /// captures the bound's chain/resource terms for every placement.
    const PROOF: bool = false;
    /// True when the policy collects per-depth profiles; the kernel then
    /// times each `dfs` call inclusively.
    const PROFILE: bool = false;

    /// One proof event, in replay order.
    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        let _ = ev;
    }

    /// Bump a per-depth profile counter.
    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        let _ = (depth, bump);
    }

    /// Charge one Ω call against a shared budget; return true when the
    /// pool-wide budget is exhausted (the search truncates).
    #[inline]
    fn charge_omega(&mut self) -> bool {
        false
    }

    /// Poll a shared stop flag (another worker finished or truncated).
    #[inline]
    fn poll_stop(&mut self) -> bool {
        false
    }

    /// The Ω the search has run, as far as this worker knows, given the
    /// kernel run's own count `local`: what [`SearchConfig::switch_on`] is
    /// measured against. The serial kernel's own count is the search's.
    #[inline]
    fn search_omega(&self, local: u64) -> u64 {
        local
    }

    /// The tightest incumbent known anywhere, given the local one. The
    /// serial identity keeps α-β behaviour untouched; parallel workers
    /// read the shared atomic so bounds prune across subtrees.
    #[inline]
    fn shared_best(&mut self, local: u32) -> u32 {
        local
    }

    /// A new incumbent `order` with `mu` NOPs was found locally.
    #[inline]
    fn improved(&mut self, mu: u32, order: &[TupleId]) {
        let _ = (mu, order);
    }

    /// The search is stopping; `stats` carries the cause
    /// (`truncated` / `deadline_hit` / `proved_by_bound`).
    #[inline]
    fn stopping(&mut self, stats: &SearchStats) {
        let _ = stats;
    }

    /// Offer the subtree rooted at `order[..depth]` (whose placement bound
    /// is `bound`) for deferred execution. Returning true transfers
    /// ownership: the kernel neither descends nor prunes it.
    #[inline]
    fn spawn(&mut self, order: &[TupleId], depth: usize, bound: u32) -> bool {
        let _ = (order, depth, bound);
        false
    }
}

/// The no-op policy: the plain serial search.
pub(crate) struct NullPolicy;

impl SearchPolicy for NullPolicy {}

/// Certificate-logging policy wrapping a [`ProofLogger`].
struct ProofPolicy<'p>(&'p mut ProofLogger);

impl SearchPolicy for ProofPolicy<'_> {
    const PROOF: bool = true;

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        self.0.log(ev);
    }
}

/// Per-depth profiling policy wrapping a [`SearchProfile`].
struct ProfilePolicy<'p>(&'p mut SearchProfile);

impl SearchPolicy for ProfilePolicy<'_> {
    const PROFILE: bool = true;

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        bump(self.0.at(depth));
    }
}

/// [`ProofPolicy`] and [`ProfilePolicy`] together.
struct ProofProfilePolicy<'p>(&'p mut ProofLogger, &'p mut SearchProfile);

impl SearchPolicy for ProofProfilePolicy<'_> {
    const PROOF: bool = true;
    const PROFILE: bool = true;

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        self.0.log(ev);
    }

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        bump(self.1.at(depth));
    }
}

/// The serial kernel over the whole tree, starting from the seed's
/// incumbent, which `s` holds.
fn kernel<P: SearchPolicy>(mut s: Search<'_, '_, P>, seed: SearchSeed) -> SearchOutcome {
    // When an incumbent matches the lower bound, optimality is proven
    // without exhausting the space.
    s.global_lb = s.cfg.terminate_on_lower_bound.then_some(seed.global_lb);
    s.dfs(0);

    let (etas, nops) = s.engine.evaluate(&s.best_order, &s.best_assign);
    debug_assert_eq!(nops, s.best_nops);
    debug_assert!(verify_schedule(s.ctx.block, s.ctx.dag, &s.best_order).is_ok());
    SearchOutcome {
        order: s.best_order,
        assignment: s.best_assign,
        etas,
        nops,
        initial_order: seed.order,
        initial_nops: seed.nops,
        optimal: !s.stats.truncated,
        stats: s.stats,
    }
}

/// One search's state: the timing engine and the frontier of its partial
/// schedule, the order it permutes, its incumbent and its dominance
/// table, with the hook policy it runs under.
///
/// A search builds these once, for the block, and everything it does
/// runs on them: the seed's evaluation and root bound, the DFS and the
/// final replay. A pool worker keeps one `Search` across its tasks, its
/// proof parts and its pricing, and moves it onto each task's prefix
/// ([`Search::rebase`]); [`Search::with_policy`] carries it from one
/// policy to the next.
pub(crate) struct Search<'c, 'a, P: SearchPolicy> {
    /// The compile-time hook bundle (proof, profile, shared-state hooks).
    pub(crate) policy: P,
    pub(crate) ctx: &'c SchedContext<'a>,
    pub(crate) cfg: SearchConfig,
    engine: TimingEngine<'c, 'a>,
    /// Current ordering Π; positions < depth are the committed prefix Φ.
    /// The engine and the frontier hold its first `engine.placed()`
    /// positions, committed.
    order: Vec<TupleId>,
    /// Readiness, cached dependence cycles and per-pipe counts of the
    /// unscheduled instructions, updated once per placement.
    frontier: Frontier,
    /// Structural equivalence class per tuple (only when Structural mode).
    equiv_class: Vec<u32>,
    lower_bound: Option<&'c LowerBound>,
    global_lb: Option<u32>,
    best_nops: u32,
    best_order: Vec<TupleId>,
    best_assign: Vec<Option<PipelineId>>,
    stats: SearchStats,
    stop: bool,
    /// Whether this search keeps a dominance table: the critical-path
    /// bound's, outside windows.
    dominance: bool,
    /// The table of closed prefixes, built at the switch-on.
    table: Dominance,
}

impl<'c, 'a, P: SearchPolicy> Search<'c, 'a, P> {
    /// A search of the whole block from `boundary` (`None`: cold), with
    /// nothing placed and no incumbent yet.
    pub(crate) fn new(
        ctx: &'c SchedContext<'a>,
        cfg: &SearchConfig,
        boundary: Option<&BoundaryState>,
        policy: P,
    ) -> Self {
        let frontier = Frontier::new(ctx, cfg.pipeline_selection);
        Self::with_frontier(ctx, cfg, boundary, frontier, policy)
    }

    fn with_frontier(
        ctx: &'c SchedContext<'a>,
        cfg: &SearchConfig,
        boundary: Option<&BoundaryState>,
        frontier: Frontier,
        policy: P,
    ) -> Self {
        let equiv_class = if cfg.equivalence == EquivalenceMode::Structural {
            structural_classes(ctx)
        } else {
            Vec::new()
        };
        let lower_bound = match cfg.bound {
            BoundKind::AlphaBeta => None,
            BoundKind::CriticalPath => Some(ctx.lower_bound()),
        };
        let engine = match boundary {
            Some(b) => TimingEngine::with_boundary(ctx, b),
            None => TimingEngine::new(ctx),
        };
        let order: Vec<TupleId> = ctx.block.ids().collect();
        Search {
            policy,
            ctx,
            cfg: *cfg,
            engine,
            best_order: order.clone(),
            order,
            frontier,
            equiv_class,
            lower_bound,
            global_lb: None,
            best_nops: u32::MAX,
            best_assign: ctx.sigma.clone(),
            stats: SearchStats::default(),
            stop: false,
            dominance: lower_bound.is_some(),
            table: Dominance::default(),
        }
    }

    /// The same search under another policy.
    pub(crate) fn with_policy<Q: SearchPolicy>(self, policy: Q) -> Search<'c, 'a, Q> {
        Search {
            policy,
            ctx: self.ctx,
            cfg: self.cfg,
            engine: self.engine,
            order: self.order,
            frontier: self.frontier,
            equiv_class: self.equiv_class,
            lower_bound: self.lower_bound,
            global_lb: self.global_lb,
            best_nops: self.best_nops,
            best_order: self.best_order,
            best_assign: self.best_assign,
            stats: self.stats,
            stop: self.stop,
            dominance: self.dominance,
            table: self.table,
        }
    }

    /// Step [1] on this search's engine and frontier, both empty: the
    /// seed (see [`crate::seed`]), which becomes the order and the
    /// incumbent.
    fn seed(&mut self, initial: InitialHeuristic, boundary: Option<&BoundaryState>) -> SearchSeed {
        let cold = boundary.is_none_or(|b| b.pipe_age.iter().all(Option::is_none));
        let seed = seed_with(self.ctx, initial, cold, &mut self.engine, &self.frontier);
        self.order.copy_from_slice(&seed.order);
        self.best_order.copy_from_slice(&seed.order);
        self.best_nops = seed.nops;
        seed
    }

    /// Make `prefix` the committed prefix: undo the placements past the
    /// part it shares with the current one, then commit the rest. The
    /// order past `prefix` is left as it was.
    fn rebase(&mut self, prefix: &[TupleId]) {
        let placed = self.engine.placed();
        let keep = self.order[..placed]
            .iter()
            .zip(prefix)
            .take_while(|(a, b)| a == b)
            .count();
        for d in (keep..placed).rev() {
            self.frontier.uncommit(self.ctx, self.order[d]);
            self.engine.pop();
        }
        self.order[keep..prefix.len()].copy_from_slice(&prefix[keep..]);
        self.commit(keep..prefix.len());
    }

    /// η of `order` with every tuple on its default unit, and its μ: a
    /// pool's final replay.
    pub(crate) fn evaluate(&mut self, order: &[TupleId]) -> (Vec<u32>, u32) {
        self.rebase(&[]);
        self.engine.evaluate(order, &self.ctx.sigma)
    }

    /// Run the kernel on one subtree: the prefix `order[..depth]` is
    /// committed (no Ω charges — the splitting worker already paid for
    /// them), then the DFS explores everything below it.
    ///
    /// This is the work-stealing pool's unit of execution. The local
    /// incumbent is seeded from `best_nops` (typically a snapshot of the
    /// shared atomic), so only the statistics are meaningful on return —
    /// improvements are published through [`SearchPolicy::improved`], not
    /// through the returned schedule. The search's dominance table is read
    /// and extended (see [`crate::dominance`]).
    ///
    /// `split` is `Some(cheap)` when the last placement of the prefix was
    /// split off as a task priced by the chain and resource terms alone
    /// (to `cheap`): its heads-and-tails term and its dominance check
    /// happen here, at the Ω count the serial kernel would make them at
    /// (see [`crate::parallel`]), and a subtree either prunes is not
    /// entered.
    ///
    /// Returns the subtree's counters and whether the prefix's node
    /// closed: pruned here, or searched with no stop and no subtree split
    /// off, in which case the table holds it.
    pub(crate) fn subtree(
        &mut self,
        order: &[TupleId],
        depth: usize,
        best_nops: u32,
        global_lb: Option<u32>,
        split: Option<u32>,
    ) -> (SearchStats, bool) {
        debug_assert!(depth <= order.len());
        self.stats = SearchStats::default();
        self.stop = false;
        self.best_nops = best_nops;
        self.global_lb = global_lb;
        if self
            .cfg
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            self.deadline_stop();
            return (self.stats, false);
        }
        // Timing and frontier state exactly as `place_and_recurse` would
        // have left them.
        self.rebase(&order[..depth]);
        self.order[depth..].copy_from_slice(&order[depth..]);
        self.table.sync(&self.order[..depth]);
        let closed = if split.is_some() && self.dominance && self.dominated(depth, None) {
            true
        } else if split.is_some_and(|cheap| self.priced(cheap).1 >= self.best_nops) {
            self.stats.pruned_bound += 1;
            true
        } else {
            self.dfs(depth);
            let closed = !self.stop && self.stats.splits == 0;
            if closed && self.interior(depth) && self.track() {
                self.table.store(self.ctx, &self.engine, 1);
            }
            closed
        };
        (self.stats, closed)
    }

    /// True once the dominance table is built.
    pub(crate) fn table_built(&self) -> bool {
        self.table.built()
    }

    /// Store `prefix`, whose subtree has closed, in the dominance table,
    /// building the table from it if need be. Only a whole-block search
    /// with pipeline selection off stores this way (a pool worker).
    pub(crate) fn store_closed(&mut self, prefix: &[TupleId]) {
        if self.table.built() {
            self.table.sync(prefix);
        } else {
            self.table.build(self.ctx, false, prefix);
        }
        self.rebase(prefix);
        self.table.store(self.ctx, &self.engine, 0);
    }

    /// Start over with an empty dominance table (a proof part's start).
    pub(crate) fn clear_table(&mut self) {
        self.table = Dominance::default();
    }

    /// Root-level placement of candidate `xi`, priced against the replay
    /// incumbent `best` exactly as [`Search::place_and_recurse`] would:
    /// the `BoundPrune` it earns, or `None` when its subtree must be
    /// searched. `jackson` says whether the search has passed
    /// [`SearchConfig::switch_on`]. Nothing stays placed.
    pub(crate) fn root_prune(
        &mut self,
        xi: TupleId,
        best: u32,
        jackson: bool,
    ) -> Option<ProofEvent> {
        let ctx = self.ctx;
        self.rebase(&[]);
        self.engine.push(xi, ctx.sigma(xi));
        let mu = self.engine.total_nops();
        let (bound, chain, resource, term) = match self.lower_bound {
            None => (mu, None, None, None),
            Some(lb) => {
                self.frontier.commit(ctx, &self.engine, xi);
                let (chain, resource, cheap) = lb.bound(ctx, &self.engine, &self.frontier);
                let (term, bound) = if jackson {
                    lb.with_term(ctx, &self.engine, &self.frontier, cheap, best)
                } else {
                    (None, cheap)
                };
                self.frontier.uncommit(ctx, xi);
                (bound, Some(chain), Some(resource), term)
            }
        };
        self.engine.pop();
        (bound >= best).then_some(ProofEvent::BoundPrune {
            candidate: xi.0,
            mu,
            bound,
            chain,
            resource,
            term,
        })
    }

    /// Stop, truncated by the deadline.
    fn deadline_stop(&mut self) {
        self.stats.truncated = true;
        self.stats.deadline_hit = true;
        self.stop = true;
        self.policy.stopping(&self.stats);
    }

    /// Place `order[positions]` on their default units, as committed
    /// placements that charge no Ω.
    fn commit(&mut self, positions: std::ops::Range<usize>) {
        for d in positions {
            let xi = self.order[d];
            self.engine.push(xi, self.ctx.sigma(xi));
            self.frontier.commit(self.ctx, &self.engine, xi);
        }
    }

    /// Append `ev` to the proof transcript when logging is on.
    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        if P::PROOF {
            self.policy.log(ev);
        }
    }

    /// Bump a per-depth profile counter when profiling is on.
    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        if P::PROFILE {
            self.policy.prof(depth, bump);
        }
    }

    /// Profiling wrapper around [`Search::dfs_inner`]: times the call
    /// inclusively per depth. Without a profile it is a plain tail call,
    /// so the un-profiled search never reads the clock here.
    fn dfs(&mut self, depth: usize) {
        if !P::PROFILE {
            return self.dfs_inner(depth);
        }
        let start = std::time::Instant::now();
        self.dfs_inner(depth);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.prof(depth, |d| d.time_ns += elapsed);
    }

    fn dfs_inner(&mut self, depth: usize) {
        // The horizon: a schedule is complete once the down-set the
        // frontier covers is placed (the block, except in a window).
        let n = self.frontier.covered();
        self.stats.nodes_visited += 1;
        self.prof(depth, |d| d.nodes += 1);
        if depth == n {
            // Step [3]: complete schedule.
            self.stats.complete_schedules += 1;
            let mu = self.engine.total_nops();
            // Under a shared incumbent another worker may have improved on
            // ours since the last refresh; never publish a worse schedule.
            self.best_nops = self.policy.shared_best(self.best_nops);
            if mu < self.best_nops {
                self.stats.improvements += 1;
                self.best_nops = mu;
                self.best_order.copy_from_slice(&self.order);
                for (i, a) in self.best_assign.iter_mut().enumerate() {
                    *a = self.engine.assigned_pipeline(TupleId(i as u32));
                }
                self.log(ProofEvent::Improve { mu });
                self.policy.improved(mu, &self.best_order);
                if let Some(lb) = self.global_lb {
                    if self.best_nops <= lb {
                        // Provably optimal: no schedule can beat the bound.
                        self.stats.proved_by_bound = true;
                        self.stop = true;
                        self.log(ProofEvent::ProvedByBound { lb });
                        self.policy.stopping(&self.stats);
                    }
                }
            } else {
                self.log(ProofEvent::Complete { mu });
            }
            return;
        }

        let kappa = self.order[depth];
        // Structural classes already tried at this depth, with the first
        // member placed for each — the equivalence witness the certificate
        // records.
        let mut tried_classes: Vec<(u32, TupleId)> = Vec::new();

        for j in depth..n {
            if self.stop || self.policy.poll_stop() {
                self.stop = true;
                return;
            }
            let xi = self.order[j];

            // [5a] quick approximate legality check.
            if self.cfg.quick_check && self.ctx.analysis.earliest(xi) as usize > depth {
                self.stats.pruned_quick += 1;
                self.prof(depth, |d| d.pruned_quick += 1);
                self.log(ProofEvent::LegalityPrune { candidate: xi.0 });
                continue;
            }
            // [5b] real legality: every predecessor already scheduled.
            if !self.frontier.is_ready(xi) {
                self.stats.pruned_legality += 1;
                self.prof(depth, |d| d.pruned_legality += 1);
                self.log(ProofEvent::LegalityPrune { candidate: xi.0 });
                continue;
            }
            // [5c] equivalence filtering.
            match self.cfg.equivalence {
                EquivalenceMode::Off => {}
                EquivalenceMode::Paper => {
                    if j != depth && self.ctx.interchangeable_free(kappa, xi) {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        // κ is free, hence legal here, hence was placed at
                        // j == depth: a valid witness.
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: kappa.0,
                        });
                        continue;
                    }
                }
                EquivalenceMode::UnrestrictedPaper => {
                    // The paper's printed rule: both free, no successor
                    // condition. Unsound — kept for ablation and for
                    // exercising the checker's rejection path.
                    if j != depth
                        && self.ctx.is_free_instruction(kappa)
                        && self.ctx.is_free_instruction(xi)
                    {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: kappa.0,
                        });
                        continue;
                    }
                }
                EquivalenceMode::Structural => {
                    let class = self.equiv_class[xi.index()];
                    if let Some(&(_, witness)) = tried_classes.iter().find(|(c, _)| *c == class) {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: witness.0,
                        });
                        continue;
                    }
                    tried_classes.push((class, xi));
                }
            }

            self.order.swap(depth, j);
            self.try_candidate(depth, xi);
            self.order.swap(depth, j);
            if self.stop {
                return;
            }
        }
        // Every unscheduled instruction was dispositioned: close the node.
        self.log(ProofEvent::Leave);
    }

    /// Place `xi` at `depth` on each viable pipeline unit and recurse.
    fn try_candidate(&mut self, depth: usize, xi: TupleId) {
        if !self.cfg.pipeline_selection || self.ctx.allowed[xi.index()].len() <= 1 {
            let pipe = self.ctx.sigma(xi);
            self.place_and_recurse(depth, xi, pipe);
            return;
        }
        // Selection extension: try each distinct unit state. Two units with
        // identical timing parameters and identical last-issue state are
        // interchangeable; trying one preserves optimality.
        let ctx = self.ctx;
        let mut seen: Vec<(u32, u32, Option<i64>)> = Vec::new();
        for &p in &ctx.allowed[xi.index()] {
            let key = (ctx.latency(p), ctx.enqueue(p), self.engine.last_issue(p));
            if seen.contains(&key) {
                self.stats.pruned_symmetry += 1;
                continue;
            }
            seen.push(key);
            self.place_and_recurse(depth, xi, Some(p));
            if self.stop {
                return;
            }
        }
    }

    /// True once the search has run [`SearchConfig::switch_on`] Ω.
    #[inline]
    fn switched_on(&self) -> bool {
        self.policy.search_omega(self.stats.omega_calls) >= self.cfg.switch_on
    }

    /// True when a prefix of `len` instructions may enter the dominance
    /// table: neither the root nor a complete schedule.
    #[inline]
    fn interior(&self, len: usize) -> bool {
        len >= 1 && len < self.frontier.covered()
    }

    /// True when the dominance table is built, building it from the
    /// current prefix (`order[..placed]`) if the search has just crossed
    /// the switch-on.
    #[inline]
    fn track(&mut self) -> bool {
        if !self.table.built() && self.dominance && self.switched_on() {
            let prefix = &self.order[..self.engine.placed()];
            self.table
                .build(self.ctx, self.cfg.pipeline_selection, prefix);
        }
        self.table.built()
    }

    /// The dominance check of the prefix `order[..len]`, just placed and
    /// left open by the bound, whose last instruction `xi` the table does
    /// not hold yet when given: true when a closed prefix dominates it,
    /// which is then counted (and logged) as pruned. On false the table's
    /// current prefix is `order[..len]`.
    #[inline(never)]
    fn dominated(&mut self, len: usize, xi: Option<TupleId>) -> bool {
        let built = self.table.built();
        if let Some(xi) = xi.filter(|_| built) {
            self.table.flip(xi);
        }
        if !self.interior(len) || !self.track() {
            return false;
        }
        let Some(witness) = self.table.dominated(self.ctx, &self.engine) else {
            return false;
        };
        self.stats.pruned_dominance += 1;
        self.prof(len - 1, |d| d.pruned_dominance += 1);
        let candidate = self.order[len - 1].0;
        // Nodes entered after the witness: a reference that survives the
        // concatenation of a pooled proof's parts.
        let back = self.stats.nodes_visited.saturating_sub(witness);
        self.log(ProofEvent::DominancePrune { candidate, back });
        if xi.is_some() {
            self.table.flip(TupleId(candidate));
        }
        true
    }

    /// The bound of the placement just made, from its cheap terms' bound
    /// `cheap`: the heads-and-tails term joins once the search has run
    /// [`SearchConfig::switch_on`] Ω (see [`crate::bounds`]). Returns the
    /// value the term reached, when it was evaluated, and the bound.
    #[inline]
    fn priced(&self, cheap: u32) -> (Option<i64>, u32) {
        let on = self.switched_on();
        match self.lower_bound {
            Some(lb) if on => lb.with_term(
                self.ctx,
                &self.engine,
                &self.frontier,
                cheap,
                self.best_nops,
            ),
            _ => (None, cheap),
        }
    }

    fn place_and_recurse(&mut self, depth: usize, xi: TupleId, pipe: Option<PipelineId>) {
        // Step [4]: curtail point. The shared budget (when the policy has
        // one) is charged unconditionally so the pool-wide Ω counter stays
        // exact even when a local limit also fires.
        self.stats.omega_calls += 1;
        self.prof(depth, |d| d.omega_calls += 1);
        if self.policy.charge_omega() || self.stats.omega_calls >= self.cfg.lambda {
            self.stats.truncated = true;
            self.stop = true;
            self.policy.stopping(&self.stats);
        }
        // Anytime deadline (throttled so the hot path never reads the clock).
        if let Some(deadline) = self.cfg.deadline {
            if self
                .stats
                .omega_calls
                .is_multiple_of(DEADLINE_CHECK_INTERVAL)
                && std::time::Instant::now() >= deadline
            {
                self.deadline_stop();
            }
        }

        self.engine.push(xi, pipe);
        // The critical-path bound reads the frontier after ξ. The α-β bound
        // is μ alone, so α-β commits only the placements it descends into:
        // most of its placements are pruned, and committing them is wasted.
        let eager = self.lower_bound.is_some();
        if eager {
            self.frontier.commit(self.ctx, &self.engine, xi);
        }

        // Under a shared incumbent, pick up improvements published by other
        // workers before pricing the placement (α-β propagates pool-wide).
        self.best_nops = self.policy.shared_best(self.best_nops);

        // The bound of the cheap terms, which the certificate records.
        let (chain, resource, cheap) = match self.lower_bound {
            Some(lb) => {
                let (chain, resource, bound) = lb.bound(self.ctx, &self.engine, &self.frontier);
                (Some(chain), Some(resource), bound)
            }
            None => (None, None, self.engine.total_nops()),
        };

        // Work distribution first: the policy may take ownership of this
        // subtree and defer it to a deque (its heads-and-tails term and the
        // bound-vs-incumbent decision then happen when the subtree is
        // popped, against the incumbent of that moment); otherwise step
        // [6], the α-β prune (strict <, matching the paper).
        if !self.stop {
            if self.policy.spawn(&self.order, depth + 1, cheap) {
                self.stats.splits += 1;
            } else {
                // Dominance before the heads-and-tails term: a lookup is
                // cheaper than the term, and a dominated placement needs
                // neither. Before the switch-on this is two comparisons.
                let checked = self.dominance && cheap < self.best_nops;
                let live = checked && (self.table.built() || self.switched_on());
                if !(live && self.dominated(depth + 1, Some(xi))) {
                    let (term, bound) = self.priced(cheap);
                    if bound < self.best_nops {
                        // The node's id in the table: the visit count `dfs`
                        // gives it, which a certificate cites.
                        let node = self.stats.nodes_visited + 1;
                        self.log(ProofEvent::Enter { candidate: xi.0 });
                        if !eager {
                            self.frontier.commit(self.ctx, &self.engine, xi);
                        }
                        self.dfs(depth + 1);
                        if !eager {
                            self.frontier.uncommit(self.ctx, xi);
                        }
                        // The table may have been built below this node.
                        let live = checked && (self.table.built() || self.switched_on());
                        if live && self.track() {
                            if !self.stop && self.interior(depth + 1) {
                                self.table.store(self.ctx, &self.engine, node);
                            }
                            self.table.flip(xi);
                        }
                    } else {
                        if live && self.table.built() {
                            self.table.flip(xi);
                        }
                        self.stats.pruned_bound += 1;
                        self.prof(depth, |d| d.pruned_bound += 1);
                        let mu = self.engine.total_nops();
                        self.log(ProofEvent::BoundPrune {
                            candidate: xi.0,
                            mu,
                            bound,
                            chain,
                            resource,
                            term,
                        });
                    }
                }
            }
        }

        if eager {
            self.frontier.uncommit(self.ctx, xi);
        }
        self.engine.pop();
    }
}

/// Search each of `windows`, consecutive ranges of positions of the list
/// schedule `base` from 0 to `n`, with the serial kernel and commit its
/// best arrangement before the next (see [`crate::windowed`]): one
/// `Search`, whose `lower_bound` must follow only chains inside a window
/// ([`LowerBound::windowed`]). A window proved by its own bound proves
/// nothing about the block, so `proved_by_bound` is never set.
///
/// Returns the stitched schedule with its η and μ, or `base` with its own
/// when the stitched schedule needs more NOPs; `base`'s μ; and the
/// counters of every window.
pub(crate) fn search_windows(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    lower_bound: &LowerBound,
    base: Vec<TupleId>,
    windows: impl IntoIterator<Item = std::ops::Range<usize>>,
) -> (Vec<TupleId>, Vec<u32>, u32, u32, SearchStats) {
    let frontier = Frontier::uncovered(ctx, cfg.pipeline_selection);
    let mut s = Search::with_frontier(ctx, cfg, None, frontier, NullPolicy);
    let (base_etas, base_nops) = s.engine.evaluate(&base, &ctx.sigma);
    s.order.copy_from_slice(&base);
    s.lower_bound = Some(lower_bound);
    // A window's incumbent restarts from its list order, so an earlier
    // window's closed prefixes prove nothing there: windows keep no table.
    s.dominance = false;
    if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        s.deadline_stop();
    }
    for window in windows {
        s.window(window.start, window.end);
    }
    s.stats.proved_by_bound = false;
    // Every window is committed: the engine holds the stitched schedule.
    let nops = s.engine.total_nops();
    if nops > base_nops {
        return (base, base_etas, base_nops, base_nops, s.stats);
    }
    let mut prev = -1;
    let etas = s
        .order
        .iter()
        .map(|&t| {
            let at = s.engine.issue_time(t).expect("every window is committed");
            let eta = (at - prev - 1) as u32;
            prev = at;
            eta
        })
        .collect();
    (s.order, etas, nops, base_nops, s.stats)
}

impl<P: SearchPolicy> Search<'_, '_, P> {
    /// Search the window `order[start..end]`, with `order[..start]`
    /// committed by the earlier windows, and commit its best arrangement.
    /// The incumbent is the window in its current order, and the search
    /// ends early at the window's root bound. Once λ or the deadline has
    /// stopped the search (the kernel reads the clock every
    /// [`DEADLINE_CHECK_INTERVAL`] Ω, counted across windows), a window
    /// keeps its order.
    fn window(&mut self, start: usize, end: usize) {
        let ctx = self.ctx;
        let engine = &self.engine;
        let members = self.order[start..end].iter().copied();
        self.frontier.cover(ctx, members, |t| engine.dep_ready(t));
        if !self.stop {
            for &t in &self.order[start..end] {
                self.engine.push_default(t);
            }
            self.best_nops = self.engine.total_nops();
            for _ in start..end {
                self.engine.pop();
            }
            let lb = self.lower_bound.expect("a window search is bounded");
            let root = lb.full(ctx, &self.engine, &self.frontier, self.best_nops);
            if root < self.best_nops {
                self.best_order.copy_from_slice(&self.order);
                self.global_lb = Some(root);
                self.dfs(start);
                self.order.copy_from_slice(&self.best_order);
                // Reaching the root bound ends this window only.
                self.stop = self.stats.truncated;
            }
        }
        self.commit(start..end);
    }
}

/// Group tuples into structural interchangeability classes: identical
/// operation, identical predecessor edges and identical successor edges
/// make two instructions interchangeable in any schedule.
#[allow(clippy::type_complexity)]
pub(crate) fn structural_classes(ctx: &SchedContext<'_>) -> Vec<u32> {
    use std::collections::HashMap;
    let n = ctx.len();
    let mut table: HashMap<(pipesched_ir::Op, Vec<(u32, bool)>, Vec<(u32, bool)>), u32> =
        HashMap::new();
    let mut classes = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let t = TupleId(i as u32);
        let mut preds: Vec<(u32, bool)> = ctx.preds[i].iter().map(|p| (p.from, p.flow)).collect();
        preds.sort_unstable();
        let mut succs: Vec<(u32, bool)> = ctx
            .dag
            .succs(t)
            .iter()
            .map(|e| (e.to.0, e.kind == pipesched_ir::DepKind::Flow))
            .collect();
        succs.sort_unstable();
        let key = (ctx.block.tuple(t).op, preds, succs);
        let next = table.len() as u32;
        classes[i] = *table.entry(key).or_insert(next);
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn ctx_for<'a>(
        block: &'a pipesched_ir::BasicBlock,
        dag: &'a DepDag,
        machine: &'a pipesched_machine::Machine,
    ) -> SchedContext<'a> {
        SchedContext::new(block, dag, machine)
    }

    #[test]
    fn finds_zero_nop_schedule_when_one_exists() {
        // Two independent mul chains can fully hide each other's latency
        // given enough independent loads.
        let mut b = BlockBuilder::new("hide");
        let a = b.load("a");
        let c = b.load("c");
        let d = b.load("d");
        let e = b.load("e");
        let m1 = b.mul(a, c);
        let m2 = b.mul(d, e);
        let s = b.add(m1, m2);
        b.store("r", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert!(
            out.nops <= out.initial_nops,
            "search never worsens the incumbent"
        );
        verify_schedule(&block, &dag, &out.order).unwrap();
    }

    #[test]
    fn single_instruction_block() {
        let mut b = BlockBuilder::new("one");
        b.load("x");
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert_eq!(out.nops, 0);
        assert_eq!(out.order.len(), 1);
    }

    #[test]
    fn serial_chain_has_forced_nops() {
        // load x; mul x,x; store — nothing can hide the mul latency.
        let mut b = BlockBuilder::new("chain");
        let x = b.load("x");
        let m = b.mul(x, x);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        // x@0; mul waits loader latency 2 → @2 (1 NOP); store waits mul
        // latency 4 → @6 (3 NOPs). μ = 4.
        assert_eq!(out.nops, 4);
    }

    #[test]
    fn curtail_point_truncates() {
        let mut b = BlockBuilder::new("big");
        // Several multiplier-bound chains: the initial schedule needs NOPs,
        // so the α-β bound cannot close the search immediately and the
        // space is enormous.
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(10);
        let out = search(&ctx, &cfg);
        assert!(out.stats.truncated);
        assert!(!out.optimal);
        assert!(out.stats.omega_calls <= 10);
        // Still returns a legal schedule no worse than the list schedule.
        verify_schedule(&block, &dag, &out.order).unwrap();
        assert!(out.nops <= out.initial_nops);
    }

    #[test]
    fn expired_deadline_returns_incumbent_anytime() {
        let mut b = BlockBuilder::new("deadline");
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        // A deadline already in the past: the search must return the list
        // incumbent immediately, flagged non-optimal.
        let cfg = SearchConfig {
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        }
        .with_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        let out = search(&ctx, &cfg);
        assert!(!out.optimal);
        assert!(out.stats.truncated);
        assert!(out.stats.deadline_hit);
        assert_eq!(out.stats.omega_calls, 0);
        assert_eq!(out.nops, out.initial_nops);
        verify_schedule(&block, &dag, &out.order).unwrap();
    }

    #[test]
    fn future_deadline_does_not_disturb_search() {
        let mut b = BlockBuilder::new("far");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("r", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let base = search(&ctx, &SearchConfig::default());
        let cfg = SearchConfig::default().with_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        ));
        let out = search(&ctx, &cfg);
        assert!(out.optimal);
        assert!(!out.stats.deadline_hit);
        assert_eq!(out.nops, base.nops);
    }

    #[test]
    fn all_bounds_and_equivalences_agree_on_optimum() {
        let mut b = BlockBuilder::new("agree");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        let s = b.sub(m, a);
        b.store("r", s);
        let c = b.constant(3);
        b.store("k", c);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);

        let mut reference = None;
        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for equivalence in [
                EquivalenceMode::Off,
                EquivalenceMode::Paper,
                EquivalenceMode::Structural,
            ] {
                let cfg = SearchConfig {
                    bound,
                    equivalence,
                    lambda: u64::MAX,
                    ..SearchConfig::default()
                };
                let out = search(&ctx, &cfg);
                assert!(out.optimal, "{bound:?}/{equivalence:?} truncated");
                let r = *reference.get_or_insert(out.nops);
                assert_eq!(out.nops, r, "{bound:?}/{equivalence:?} differs");
            }
        }
    }

    #[test]
    fn equivalence_modes_reduce_work_monotonically() {
        let mut b = BlockBuilder::new("equiv");
        // Pairs of free Consts feeding the *same* consumer (identical
        // successor sets => interchangeable) inflate the unfiltered search;
        // the restricted rule [5c] collapses each pair.
        let x = b.load("x");
        let mut acc = x;
        for i in 0..3 {
            let c1 = b.constant(i);
            let c2 = b.constant(i + 10);
            let pair = b.add(c1, c2);
            acc = b.add(acc, pair);
        }
        b.store("r", acc);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);

        // Use the paper-exact bound so the search actually explores (the
        // default critical-path bound + LB termination can close this block
        // before rule [5c] ever fires).
        let run = |mode| {
            let cfg = SearchConfig {
                equivalence: mode,
                lambda: u64::MAX,
                ..SearchConfig::paper_exact()
            };
            search(&ctx, &cfg)
        };
        let off = run(EquivalenceMode::Off);
        let paper = run(EquivalenceMode::Paper);
        let structural = run(EquivalenceMode::Structural);
        assert_eq!(off.nops, paper.nops);
        assert_eq!(off.nops, structural.nops);
        // Both filters reduce work relative to no filtering. (They are not
        // comparable to each other: structural classes key on exact
        // pred/succ sets, the paper rule on σ/ρ emptiness.)
        assert!(paper.stats.omega_calls <= off.stats.omega_calls);
        assert!(structural.stats.omega_calls <= off.stats.omega_calls);
        assert!(
            paper.stats.pruned_equivalence > 0,
            "the consts should trigger rule [5c]"
        );
    }

    #[test]
    fn pipeline_selection_uses_second_unit() {
        // Two independent loads on the Table 2 machine (two loaders):
        // with selection they issue back-to-back on different units even if
        // a single loader would conflict.
        let mut b = BlockBuilder::new("sel");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("r", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::table2_example();
        let ctx = ctx_for(&block, &dag, &machine);

        let base = search(&ctx, &SearchConfig::default());
        let cfg = SearchConfig {
            pipeline_selection: true,
            ..SearchConfig::default()
        };
        let sel = search(&ctx, &cfg);
        assert!(sel.optimal && base.optimal);
        assert!(
            sel.nops <= base.nops,
            "selection can only help: {} vs {}",
            sel.nops,
            base.nops
        );
        // The two loads end up on distinct units.
        let p0 = sel.assignment[0];
        let p1 = sel.assignment[1];
        assert!(p0.is_some() && p1.is_some());
    }

    #[test]
    fn empty_block() {
        let block = BlockBuilder::new("empty").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert_eq!(out.nops, 0);
        assert!(out.order.is_empty());
    }

    #[test]
    fn profile_sums_match_search_stats() {
        // Contended multiplier chains force real exploration so every
        // counter is exercised.
        let mut b = BlockBuilder::new("profiled");
        for i in 0..4 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let cfg = SearchConfig {
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };

        let plain = search(&ctx, &cfg);
        let mut profile = SearchProfile::new();
        let profiled = Run {
            profile: Some(&mut profile),
            ..Run::default()
        };
        let (out, _) = run(&ctx, &cfg, profiled).unwrap();

        // Profiling must be pure observation.
        assert_eq!(out.nops, plain.nops);
        assert_eq!(out.order, plain.order);
        assert_eq!(out.stats, plain.stats);

        // Every per-depth column sums to its whole-run counter.
        let sum = |f: fn(&DepthStats) -> u64| profile.depths.iter().map(f).sum::<u64>();
        assert_eq!(profile.total_nodes(), out.stats.nodes_visited);
        assert_eq!(sum(|d| d.omega_calls), out.stats.omega_calls);
        assert_eq!(sum(|d| d.pruned_quick), out.stats.pruned_quick);
        assert_eq!(sum(|d| d.pruned_legality), out.stats.pruned_legality);
        assert_eq!(sum(|d| d.pruned_equivalence), out.stats.pruned_equivalence);
        assert_eq!(sum(|d| d.pruned_bound), out.stats.pruned_bound);
        assert!(out.stats.nodes_visited > 1, "search did not explore");

        // Inclusive time: depth d+1 nests inside depth d.
        for w in profile.depths.windows(2) {
            assert!(w[0].time_ns >= w[1].time_ns);
        }

        // JSON rendering covers every depth.
        if let pipesched_json::Json::Array(rows) = profile.to_json() {
            assert_eq!(rows.len(), profile.depths.len());
        } else {
            panic!("profile JSON is an array");
        }
    }

    /// The ready set with each member's dependence-ready cycle, recomputed
    /// from scratch off the engine's public state.
    fn reference_ready(
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
    ) -> Vec<(TupleId, i64)> {
        let placed = |t: TupleId| engine.issue_time(t).is_some();
        ctx.block
            .ids()
            .filter(|&t| !placed(t) && ctx.preds[t.index()].iter().all(|d| placed(TupleId(d.from))))
            .map(|t| {
                let dep = ctx.preds[t.index()].iter().map(|d| {
                    let from = TupleId(d.from);
                    let delay = match (d.flow, engine.assigned_pipeline(from)) {
                        (true, Some(p)) => i64::from(ctx.latency(p)),
                        _ => 1,
                    };
                    engine.issue_time(from).unwrap() + delay
                });
                (t, dep.max().unwrap_or(0))
            })
            .collect()
    }

    /// The critical-path bound as the kernel computed it before the ready
    /// set became incremental: a from-scratch ready scan, the one-piece
    /// earliest-issue formula, and per-pipe counts of unplaced fixed-unit
    /// ops.
    fn reference_bound(
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        lb: &LowerBound,
        selection: bool,
    ) -> (i64, i64, u32) {
        let n = ctx.len() as i64;
        let placed = engine.placed() as i64;
        let t_prev = i64::from(engine.total_nops()) + placed - 1;
        if placed == n {
            return (t_prev, t_prev, engine.total_nops());
        }
        let base = t_prev + n - placed;
        let earliest = |dep: i64, pipe: Option<PipelineId>| {
            let conflict =
                pipe.and_then(|p| Some(engine.last_issue(p)? + i64::from(ctx.enqueue(p))));
            (t_prev + 1).max(dep).max(conflict.unwrap_or(0))
        };
        let chain = reference_ready(ctx, engine)
            .into_iter()
            .map(|(t, dep)| {
                let units = &ctx.allowed[t.index()];
                let est = if selection && units.len() > 1 {
                    units.iter().map(|&p| earliest(dep, Some(p))).min().unwrap()
                } else {
                    earliest(dep, ctx.sigma(t))
                };
                est + lb.tail(t)
            })
            .fold(base, i64::max);
        let resource = (0..ctx.machine.pipeline_count())
            .map(|p| {
                let k = ctx
                    .block
                    .ids()
                    .filter(|&t| engine.issue_time(t).is_none())
                    .filter(|&t| !(selection && ctx.allowed[t.index()].len() > 1))
                    .filter(|&t| ctx.sigma(t).is_some_and(|q| q.index() == p))
                    .count() as i64;
                if k == 0 {
                    base
                } else {
                    t_prev + 1 + i64::from(ctx.pipe_enqueue[p]) * (k - 1)
                }
            })
            .fold(base, i64::max);
        (
            chain,
            resource,
            (chain.max(resource) - (n - 1)).max(0) as u32,
        )
    }

    #[test]
    fn frontier_matches_from_scratch_recomputation_on_random_walks() {
        use crate::bounds::Frontier;
        use pipesched_synth::{generate_block, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut blocks: Vec<_> = (0..10u64)
            .map(|seed| generate_block(&GeneratorConfig::new(3 + 2 * seed as usize, 4, 3, seed)))
            .collect();
        let wide = generate_block(&GeneratorConfig::new(60, 40, 6, 7));
        assert!(
            wide.len() > 64,
            "the wide block spans two bitset words: {}",
            wide.len()
        );
        blocks.push(wide);

        let mut rng = StdRng::seed_from_u64(0xf407_7e55);
        let mut left_ready_by_undo = 0;
        for block in &blocks {
            let dag = DepDag::build(block);
            for machine in presets::all_presets() {
                let ctx = SchedContext::new(block, &dag, &machine);
                let lb = LowerBound::new(&ctx);
                for selection in [false, true] {
                    let mut engine = TimingEngine::new(&ctx);
                    let mut frontier = Frontier::new(&ctx, selection);
                    let mut placed: Vec<TupleId> = Vec::new();
                    for step in 0..4 * block.len() {
                        let ready: Vec<TupleId> = frontier.ready().map(|(t, _)| t).collect();
                        // Undo a third of the time (always once complete),
                        // so walks climb back below tuples' last preds.
                        if !placed.is_empty() && (ready.is_empty() || rng.gen_range(0..3) == 0) {
                            let t = placed.pop().unwrap();
                            frontier.uncommit(&ctx, t);
                            engine.pop();
                            if frontier.ready().count() <= ready.len() {
                                left_ready_by_undo += 1;
                            }
                        } else {
                            let t = ready[rng.gen_range(0..ready.len())];
                            let units = &ctx.allowed[t.index()];
                            let pipe = if selection && units.len() > 1 {
                                Some(units[rng.gen_range(0..units.len())])
                            } else {
                                ctx.sigma(t)
                            };
                            engine.push(t, pipe);
                            frontier.commit(&ctx, &engine, t);
                            placed.push(t);
                        }
                        let tag = format!(
                            "{} on {}, selection {selection}, step {step}",
                            block.name, machine.name
                        );
                        let got: Vec<(TupleId, i64)> = frontier.ready().collect();
                        assert_eq!(got, reference_ready(&ctx, &engine), "{tag}: ready set");
                        assert_eq!(
                            lb.bound(&ctx, &engine, &frontier),
                            reference_bound(&ctx, &engine, &lb, selection),
                            "{tag}: bound"
                        );
                    }
                }
            }
        }
        assert!(
            left_ready_by_undo > 0,
            "no undo unplaced a ready tuple's last predecessor"
        );
    }

    #[test]
    fn selection_symmetry_sees_carried_pipe_state() {
        // Two identical adders, one still busy from the preceding block:
        // they are not interchangeable, and only the idle one issues the
        // add without a NOP.
        let mut b = BlockBuilder::new("carried");
        let c = b.constant(1);
        let a = b.add(c, c);
        b.store("r", a);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::table2_example();
        let ctx = ctx_for(&block, &dag, &machine);
        let first = ctx.allowed[a.index()][0];
        let mut boundary = BoundaryState::cold(machine.pipeline_count());
        boundary.pipe_age[first.index()] = Some(1);
        let cfg = SearchConfig {
            pipeline_selection: true,
            ..SearchConfig::default()
        };
        let carried = Run {
            boundary: Some(&boundary),
            ..Run::default()
        };
        let (out, _) = run(&ctx, &cfg, carried).unwrap();
        assert!(out.optimal);
        assert_ne!(out.assignment[a.index()], Some(first));
        assert_eq!(out.nops, 3, "only the store's wait on the add remains");
    }

    #[test]
    fn profile_of_trivial_searches_stays_consistent() {
        // The n == 0 and proved-by-bound early returns record nothing;
        // the sum identity must still hold (both sides zero).
        let block = BlockBuilder::new("empty").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let mut profile = SearchProfile::new();
        let profiled = Run {
            profile: Some(&mut profile),
            ..Run::default()
        };
        let (out, _) = run(&ctx, &SearchConfig::default(), profiled).unwrap();
        assert!(out.optimal);
        assert_eq!(profile.total_nodes(), out.stats.nodes_visited);
        assert_eq!(profile.total_nodes(), 0);
    }
}
