//! Work-stealing parallel branch-and-bound (extension; not in the paper).
//!
//! Built on the unified policy-generic kernel in [`crate::bnb`]: every
//! worker runs the *same* `dfs` as the serial search, with a
//! [`SearchPolicy`] that (a) draws the λ budget from a pool-wide atomic
//! in batches of [`LAMBDA_BATCH`] Ω, (b) reads and publishes the
//! incumbent through a shared `AtomicU32` so an α-β bound discovered by
//! any worker immediately prunes all others, and (c) intercepts shallow
//! placements (depth ≤ [`ParallelConfig::split_depth`]) as *subtree
//! tasks* pushed onto the worker's own Chase-Lev-style deque. An idle
//! worker pops its own deque LIFO (continuing depth-first where it left
//! off) or steals FIFO from a peer's top — the classic work-stealing
//! discipline, so thieves take the shallowest, largest subtrees.
//!
//! # Threads on demand
//!
//! The calling thread is worker 0, and [`ParallelConfig::threads`] counts
//! it. Most blocks are settled in a few hundred Ω, about what starting a
//! thread costs, so the pool starts its `threads − 1` helper threads
//! only when worker 0 reserves a λ batch at or past
//! [`HELPER_THRESHOLD`] Ω. A search that ends under the threshold spawns
//! no thread and behaves exactly like the one-worker pool. A pooled
//! proof's phase 2 starts helpers only if phase 1 did.
//!
//! The heads-and-tails term of the bound and the dominance table switch
//! on once the *search* has run [`SearchConfig::switch_on`] Ω, which no
//! one worker sees. Each worker
//! counts the Ω it runs across its tasks: worker 0 from the search's
//! start, and a helper from [`HELPER_THRESHOLD`], which the search has
//! passed by the time the helper starts. A placement split off as a task
//! is priced there by the chain and resource terms alone, and its Ω
//! leaves the count of the worker that split it; the worker that pops the
//! task counts that Ω then and prices the term. The serial kernel reaches
//! such a placement only after the subtrees queued ahead of it, so at one
//! worker the count at every term decision is the serial kernel's.
//!
//! # Dominance across tasks
//!
//! Each worker keeps one dominance table ([`crate::dominance`]) across its
//! tasks. A node whose children were split off is not closed when its
//! `dfs` returns: its task leaves a `Pending` countdown of its children,
//! which each child task carries. A child *finishes* when its node closes
//! (searched with no stop, or dropped at pop by the bound or by
//! dominance); the worker whose child finishes last stores the node, and
//! the countdown climbs to the node's own parent. A split placement's
//! dominance check happens when its task is popped, next to its
//! heads-and-tails term. At one worker the pops follow the serial DFS
//! order, so every store and check happens where, and with the Ω count
//! at which, the serial kernel makes it, and the one-worker pool stays
//! counter-exact with the serial kernel, `pruned_dominance` included.
//!
//! Two properties worth stating precisely:
//!
//! * **Deferred bound decision.** A spawned task records the placement's
//!   lower bound, but the bound-vs-incumbent comparison (and the
//!   heads-and-tails term) happens when the task is *popped*, against the
//!   incumbent of that moment. This is both tighter (the incumbent can
//!   only have improved since the spawn) and exactly serial-equivalent at
//!   one thread: with LIFO task order the pop sequence is the serial DFS
//!   order, so the comparison happens with precisely the incumbent (and Ω
//!   count) the serial search would have had. With
//!   `lambda = u64::MAX`, no deadline and `terminate_on_lower_bound`
//!   off, one-thread parallel search reproduces the serial node,
//!   Ω-call and prune counters bit for bit (pinned by tests).
//! * **Full [`SearchConfig`] support.** The kernel is shared, so every
//!   ablation knob — bound kind, equivalence rule, quick check, λ,
//!   deadline — flows through unchanged, and so does a carried block
//!   boundary. The one exception is `pipeline_selection`, whose per-unit
//!   symmetry state is not carried by task snapshots: [`crate::run`]
//!   runs those searches on the serial kernel.
//!
//! [`crate::run`] owns the seed and its triage; this module runs what the
//! triage leaves open. [`parallel_search`] and [`parallel_prove`] are
//! shorthands for `run` with `Run::parallel` set.
//!
//! # Parallel proofs
//!
//! A pooled `run` with a proof sink produces a machine-checkable
//! certificate (see [`crate::proof`]) in two phases. Phase 1 is the
//! plain work-stealing search above: it finds the optimal μ\* and a best
//! order. Phase 2 re-derives the *transcript* with perfect foresight: the
//! driver enumerates the root candidates exactly as the serial kernel
//! would (legality, equivalence, bound terms), emits the best root
//! subtree first — its worker is seeded with the *initial* incumbent, so
//! its first descent logs `Improve{μ*}` before any other event — and
//! runs every other entered root subtree with incumbent μ\*, one serial
//! kernel per subtree, in parallel across subtrees. Because the replay
//! incumbent is μ\* from the second part on, every recorded bound prune
//! is justified, and the independent checker
//! (`pipesched_proof::check_certificate`) accepts the concatenation
//! unchanged. The per-subtree transcripts are exposed on
//! [`ParallelProof`] (split back out of the merged certificate by
//! [`parallel_prove`]) so tests can verify that tampering with (e.g.
//! dropping) any part is caught by the checker's coverage rules.
//!
//! The λ budget is shared across both phases: certification is search
//! work, and a budget too small to certify truncates the certificate
//! (`complete = false`, rejected by the checker) exactly like a truncated
//! serial proof run. Phase 2 counts on from the Ω phase 1 actually ran;
//! batch reservations phase 1 left unused are not spent.
//!
//! # Concurrency checking
//!
//! All synchronization here goes through the `pipesched_check::sync`
//! facade (the atomics below, plus the `parking_lot`-shim mutex and the
//! crossbeam-shim deques, which route through the same facade). On a
//! normal build the facade is std; under `RUSTFLAGS="--cfg model"` every
//! operation becomes a scheduling point of the deterministic model
//! checker in `crates/check`, whose harnesses
//! (`crates/check/tests/model_*.rs`) explore the four protocols this
//! module relies on: deque push/pop/steal linearizability, incumbent
//! publication (`PoolPolicy::improved`), batched λ reservation and
//! stop monotonicity (`Budget::refill`, `note_stop`/`poll_stop`, a
//! helper started after the tree is exhausted), and two-phase
//! `parallel_prove` merge completeness. Every `Ordering` choice below
//! carries either an upgrade demanded by those harnesses or a
//! `relaxed-ok:` comment stating the invariant that keeps `Relaxed`
//! sound (enforced by the `lint-atomics` source lint in CI).

use std::ops::Range;
use std::sync::Arc;

use pipesched_check::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam::deque::{Steal, Stealer, Worker as Deque};
use parking_lot::Mutex;

use pipesched_ir::TupleId;

use crate::bnb::{
    run, structural_classes, EquivalenceMode, NullPolicy, Run, Search, SearchConfig, SearchOutcome,
    SearchPolicy, SearchStats,
};
use crate::context::SchedContext;
use crate::proof::{Certificate, CertificateHeader, CertificateTrailer, ProofEvent, ProofLogger};
use crate::seed::SearchSeed;
use crate::timing::BoundaryState;

/// Depth limit below which placements become stealable subtree tasks when
/// the caller does not choose one. Depth 3 keeps the task count polynomial
/// in the block size while exposing far more parallelism than the old
/// first-level-only split.
pub const DEFAULT_SPLIT_DEPTH: usize = 3;

/// Ω worker 0 runs alone before the pool starts its helper threads:
/// worker 0 starts them with the first λ batch it reserves at or past
/// this many Ω. Sized on a 2-vCPU x86-64 host, where starting and joining
/// one scoped helper thread cost 34–43 µs (quartiles) and one serial Ω
/// on the `prove_hard` blocks 133 ns, so a helper costs the time of
/// about 280 Ω. Of those 4,096 blocks (24–40 instructions, λ = 50,000)
/// the median needs 343 Ω; at 1,000 Ω, 86% end without a helper while
/// the 14% past it carry 90% of all Ω, and worker 0 has already done
/// more than three times the work a helper costs to start.
pub const HELPER_THRESHOLD: u64 = 1_000;

/// Ω a worker reserves from the pool-wide λ counter at a time, clamped to
/// what remains of λ, so the per-Ω path writes no memory another worker
/// reads. At 133 ns per Ω a batch is about 34 µs of search between two
/// read-modify-writes of the shared counter. The cost is precision:
/// reservations other workers still hold when one finds λ spent can
/// stop a pool at most `(threads − 1) × 256` Ω short of λ, 0.5% of the
/// default λ = 50,000 at two workers.
pub const LAMBDA_BATCH: u64 = 256;

/// How a parallel search is distributed across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Workers, counting the calling thread, which runs worker 0 (0 ⇒
    /// one per available CPU). The other `threads − 1` are helper threads
    /// the pool starts only once a search passes [`HELPER_THRESHOLD`] Ω.
    pub threads: usize,
    /// Placements at depth ≤ this become stealable subtree tasks; deeper
    /// subtrees run serially inside their worker. 0 disables splitting
    /// (the whole search runs as one task); a value ≥ the block length
    /// makes every single placement a task (the forced-steal stress mode).
    pub split_depth: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 0,
            split_depth: DEFAULT_SPLIT_DEPTH,
        }
    }
}

impl ParallelConfig {
    /// Default splitting with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// One unit of stealable work: the subtree rooted at `order[..depth]`.
struct Task {
    /// Permutation of the block; positions < `depth` are the committed
    /// prefix, the suffix is the unscheduled scratch set.
    order: Vec<TupleId>,
    /// First undecided position.
    depth: usize,
    /// Lower bound on any completion by the chain and resource terms,
    /// computed when the subtree was split off. Compared against the
    /// incumbent at *pop* time, where the heads-and-tails term joins it.
    bound: u32,
    /// The countdown of the node this task's placement extends, when that
    /// node's children were split off (see `Pending`).
    parent: Option<Arc<Pending>>,
}

/// A node whose children were split off as tasks: it closes when the
/// last of them finishes.
struct Pending {
    /// Children not finished yet.
    left: AtomicUsize,
    /// The node's own countdown, when its placement was itself split off.
    parent: Option<Arc<Pending>>,
    /// The node's prefix.
    prefix: Vec<TupleId>,
}

impl Pending {
    /// Record that one child finished; true for the finish that closes
    /// the node, which exactly one child makes.
    fn finish(&self) -> bool {
        // AcqRel: the count is the protocol, so exactly one finisher sees
        // 1; the Acquire half orders the closing finisher after every
        // other child's last act, and the Release half publishes each
        // child's. Explored by crates/check/tests/model_countdown.rs.
        self.left.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

/// State shared by every worker of a pool run.
struct Shared {
    /// The pool-wide incumbent μ; `fetch_min` keeps it tight.
    best_nops: AtomicU32,
    /// Pool-wide λ reservation counter: workers take [`LAMBDA_BATCH`] Ω
    /// at a time from here (see [`Budget`]). It may pass λ by the
    /// unclamped part of the batches that found λ spent.
    omega_used: AtomicU64,
    lambda: u64,
    /// `Some(lb)` when `terminate_on_lower_bound` is on.
    global_lb: Option<u32>,
    stop: AtomicBool,
    proved: AtomicBool,
    truncated: AtomicBool,
    deadline_hit: AtomicBool,
    /// Tasks queued or in flight; 0 ⇒ the search space is exhausted.
    pending: AtomicU64,
    /// The incumbent (order, μ) pair; the lock guards against torn updates.
    best: Mutex<(Vec<TupleId>, u32)>,
}

impl Shared {
    /// Fresh pool state whose λ budget has `spent` Ω already run.
    fn new(cfg: &SearchConfig, seed: &SearchSeed, spent: u64) -> Self {
        Shared {
            best_nops: AtomicU32::new(seed.nops),
            omega_used: AtomicU64::new(spent),
            lambda: cfg.lambda,
            global_lb: cfg.terminate_on_lower_bound.then_some(seed.global_lb),
            stop: AtomicBool::new(false),
            proved: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            best: Mutex::new((seed.order.clone(), seed.nops)),
        }
    }

    /// Reserve the next batch of λ: `(start, granted)`, where `start` is
    /// the Ω reserved pool-wide before this batch and `granted` is at
    /// most [`LAMBDA_BATCH`], clamped to what remains of λ (0 ⇒ λ is
    /// fully reserved).
    fn reserve(&self) -> (u64, u64) {
        // relaxed-ok: pure counter. Each batch is a disjoint range of the
        // budget because the add is atomic, and nothing else is published
        // with it; the clamp below keeps the granted ranges inside λ
        // (model_stop.rs, and its unclamped mutation pinned to A0705).
        let start = self.omega_used.fetch_add(LAMBDA_BATCH, Ordering::Relaxed);
        (start, LAMBDA_BATCH.min(self.lambda.saturating_sub(start)))
    }

    /// Stop the pool as λ-truncated.
    fn note_truncated(&self) {
        self.note_stop(&SearchStats {
            truncated: true,
            ..SearchStats::default()
        });
    }

    /// Propagate a worker's local stop cause to the pool.
    fn note_stop(&self, stats: &SearchStats) {
        // relaxed-ok: the cause flags are written before the Release store
        // of `stop` below, so any worker (or the coordinator) that observes
        // `stop` with Acquire also observes them; the final authoritative
        // reads additionally happen after scope join.
        if stats.proved_by_bound {
            self.proved.store(true, Ordering::Relaxed);
        }
        if stats.deadline_hit {
            self.deadline_hit.store(true, Ordering::Relaxed);
        }
        if stats.truncated {
            // relaxed-ok: cause flag, published by the Release below.
            self.truncated.store(true, Ordering::Relaxed);
        }
        // Release publishes the cause flags with the stop signal. The
        // model checker's stop-protocol harness (and its dropped-Release
        // mutation, pinned to A0701) demands exactly this pairing with the
        // Acquire in `poll_stop`/`worker_loop`.
        self.stop.store(true, Ordering::Release);
    }
}

/// One worker's share of the pool-wide λ: Ω reserved from
/// [`Shared::omega_used`] and not yet run. A worker runs an Ω only on a
/// reserved unit, so the Ω all workers run never exceed λ.
struct Budget<'s> {
    shared: &'s Shared,
    left: u64,
    /// The search's Ω as this worker counts them, across its tasks: what
    /// [`SearchConfig::switch_on`] is measured against. Worker 0 counts from
    /// the search's start (phase 2: from the Ω phase 1 ran); a helper
    /// starts at [`HELPER_THRESHOLD`], which the search has passed by the
    /// time the helper exists, and so prices from its first Ω. The Ω of a
    /// split placement counts when its task is popped, not when it runs
    /// (see the module docs).
    seen: u64,
    /// Worker 0's helper start, taken by the first batch it reserves at
    /// or past [`HELPER_THRESHOLD`].
    helpers: Option<&'s dyn Fn()>,
}

impl<'s> Budget<'s> {
    fn new(shared: &'s Shared, seen: u64) -> Self {
        Budget {
            shared,
            left: 0,
            seen,
            helpers: None,
        }
    }

    /// Charge one Ω; true ⇒ it was the last Ω λ leaves this worker.
    #[inline]
    fn charge(&mut self) -> bool {
        debug_assert!(self.left > 0, "an Ω runs only on a reserved unit");
        self.seen += 1;
        self.left = self.left.saturating_sub(1);
        self.left == 0 && !self.refill()
    }

    /// Make sure a unit is reserved before a subtree runs; false ⇒ λ is
    /// fully reserved.
    fn ready(&mut self) -> bool {
        self.left > 0 || self.refill()
    }

    /// Reserve the next batch; false ⇒ λ is fully reserved.
    fn refill(&mut self) -> bool {
        let (start, granted) = self.shared.reserve();
        self.left = granted;
        if granted > 0 && start >= HELPER_THRESHOLD {
            if let Some(start_helpers) = self.helpers.take() {
                start_helpers();
            }
        }
        granted > 0
    }
}

/// The phase-1 worker policy: shared budget/bounds plus subtree spawning.
struct PoolPolicy<'b, 's> {
    budget: &'b mut Budget<'s>,
    split_depth: usize,
    /// Tasks spawned while running the current node, in enumeration
    /// order; flushed (reversed) onto the worker's deque afterwards so
    /// LIFO pops preserve the serial DFS order.
    spawned: Vec<Task>,
}

impl<'b, 's> PoolPolicy<'b, 's> {
    fn new(budget: &'b mut Budget<'s>, split_depth: usize) -> Self {
        PoolPolicy {
            budget,
            split_depth,
            spawned: Vec::new(),
        }
    }
}

impl SearchPolicy for PoolPolicy<'_, '_> {
    #[inline]
    fn charge_omega(&mut self) -> bool {
        self.budget.charge()
    }

    #[inline]
    fn poll_stop(&mut self) -> bool {
        // Acquire pairs with the Release in `note_stop`: observing `stop`
        // also makes the cause flags (and anything the stopper published
        // before it) visible.
        self.budget.shared.stop.load(Ordering::Acquire)
    }

    #[inline]
    fn search_omega(&self, _local: u64) -> u64 {
        self.budget.seen
    }

    #[inline]
    fn shared_best(&mut self, local: u32) -> u32 {
        // relaxed-ok: the bound is only used to prune, and `fetch_min`
        // makes it monotone non-increasing — a stale read is merely a
        // looser bound, never an unsound one. Pinned by the incumbent
        // harness's monotonicity probe in crates/check.
        local.min(self.budget.shared.best_nops.load(Ordering::Relaxed))
    }

    fn improved(&mut self, mu: u32, order: &[TupleId]) {
        // SeqCst gives all workers a single total order of incumbent
        // publications, so exactly one improver wins `mu < prev` per
        // value; the recheck under the payload lock below closes the
        // window between publication and payload write (the unguarded
        // variant is the A0705 mutation in crates/check).
        let prev = self.budget.shared.best_nops.fetch_min(mu, Ordering::SeqCst);
        if mu < prev {
            let mut best = self.budget.shared.best.lock();
            if mu < best.1 {
                best.0.clear();
                best.0.extend_from_slice(order);
                best.1 = mu;
            }
        }
    }

    fn stopping(&mut self, stats: &SearchStats) {
        self.budget.shared.note_stop(stats);
    }

    fn spawn(&mut self, order: &[TupleId], depth: usize, bound: u32) -> bool {
        if depth <= self.split_depth {
            // Counted again by whichever worker pops the task.
            self.budget.seen -= 1;
            self.spawned.push(Task {
                order: order.to_vec(),
                depth,
                bound,
                parent: None,
            });
            true
        } else {
            false
        }
    }
}

/// The phase-2 worker policy: serial kernel semantics (no shared
/// incumbent) plus transcript capture and the shared λ/stop plumbing.
struct ProvePolicy<'b, 's> {
    budget: &'b mut Budget<'s>,
    events: Vec<ProofEvent>,
}

impl<'b, 's> ProvePolicy<'b, 's> {
    fn new(budget: &'b mut Budget<'s>) -> Self {
        ProvePolicy {
            budget,
            events: Vec::new(),
        }
    }
}

impl SearchPolicy for ProvePolicy<'_, '_> {
    const PROOF: bool = true;

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        self.events.push(ev);
    }

    #[inline]
    fn charge_omega(&mut self) -> bool {
        self.budget.charge()
    }

    #[inline]
    fn poll_stop(&mut self) -> bool {
        // Acquire pairs with the Release in `note_stop` (see
        // `PoolPolicy::poll_stop`).
        self.budget.shared.stop.load(Ordering::Acquire)
    }

    #[inline]
    fn search_omega(&self, _local: u64) -> u64 {
        self.budget.seen
    }

    fn stopping(&mut self, stats: &SearchStats) {
        self.budget.shared.note_stop(stats);
    }
}

/// Steal one task from any peer (FIFO from the top of their deque).
fn steal_task(stealers: &[Stealer<Task>], me: usize, stats: &mut SearchStats) -> Option<Task> {
    for (i, s) in stealers.iter().enumerate() {
        if i == me {
            continue;
        }
        loop {
            match s.steal() {
                Steal::Success(t) => {
                    stats.steals += 1;
                    return Some(t);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// The searches helper threads leave when they finish, for the helpers
/// of the next phase.
type Spare<'c, 'a> = Mutex<Vec<Search<'c, 'a, NullPolicy>>>;

/// A helper's search: one a helper of an earlier phase left in `spare`,
/// or a new one.
fn helper_search<'c, 'a>(
    spare: &Spare<'c, 'a>,
    ctx: &'c SchedContext<'a>,
    cfg: &SearchConfig,
    boundary: Option<&BoundaryState>,
) -> Search<'c, 'a, NullPolicy> {
    spare
        .lock()
        .pop()
        .unwrap_or_else(|| Search::new(ctx, cfg, boundary, NullPolicy))
}

/// One worker of phase 1: pop or steal tasks and search each on the
/// worker's one `Search`, until the tree is exhausted or the pool stops.
fn worker_loop(
    s: &mut Search<'_, '_, PoolPolicy<'_, '_>>,
    own: &Deque<Task>,
    stealers: &[Stealer<Task>],
    me: usize,
) -> SearchStats {
    let shared = s.policy.budget.shared;
    let mut stats = SearchStats::default();
    loop {
        // Acquire pairs with the Release in `note_stop`: a worker that
        // exits on the stop signal also sees the cause flags.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let task = match own.pop() {
            Some(t) => Some(t),
            None => steal_task(stealers, me, &mut stats),
        };
        let Some(task) = task else {
            // Acquire pairs with the AcqRel counter updates below: a
            // worker that reads 0 has seen every completed task's pushes,
            // so an empty steal sweep really means the tree is done. A
            // helper started after that point exits here at once.
            if shared.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        // The split placement's Ω counts toward the switch-on here, where
        // the serial kernel's count reaches it (see `PoolPolicy::spawn`).
        let split = task.depth > 0;
        s.policy.budget.seen += u64::from(split);
        // Deferred step [6]: the bound recorded at split time against the
        // incumbent of *this* moment (it can only have tightened since),
        // then, in `Search::subtree`, with the heads-and-tails term and
        // the dominance check.
        // relaxed-ok: monotone bound via fetch_min, used only to prune —
        // a stale read admits a subtree the serial search would cut, but
        // never cuts one it would keep.
        let best = shared.best_nops.load(Ordering::Relaxed);
        let closed = if task.bound < best {
            if !s.policy.budget.ready() {
                shared.note_truncated();
                break;
            }
            let (st, closed) = s.subtree(
                &task.order,
                task.depth,
                best,
                shared.global_lb,
                split.then_some(task.bound),
            );
            stats.merge(&st);
            // Publish before completing the task so `pending` never dips
            // to 0 while spawned work exists; reversed so LIFO pops keep
            // the serial DFS order. The task's node closes when the last
            // of them finishes.
            let spawned = &mut s.policy.spawned;
            if let Some(child) = spawned.first() {
                let node = Arc::new(Pending {
                    left: AtomicUsize::new(spawned.len()),
                    parent: task.parent.clone(),
                    prefix: child.order[..task.depth].to_vec(),
                });
                shared
                    .pending
                    .fetch_add(spawned.len() as u64, Ordering::AcqRel);
                for mut t in spawned.drain(..).rev() {
                    t.parent = Some(Arc::clone(&node));
                    own.push(t);
                }
            }
            closed
        } else {
            stats.pruned_bound += 1;
            true
        };
        if closed {
            let on = s.table_built() || s.policy.budget.seen >= s.cfg.switch_on;
            close_ancestors(s, task.parent.as_deref(), on);
        }
        // AcqRel: the Release half publishes this task's deque pushes to
        // whichever worker's Acquire read of `pending` observes the count;
        // the Acquire half keeps the counter a valid termination barrier
        // (a worker that reads 0 has seen every completed task's effects).
        // Explored by the merge harness in crates/check.
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    stats
}

/// A task's node closed: count it finished in its parent's countdown
/// `parent`, and store each ancestor that closes with it in the worker's
/// table (built from the ancestor's prefix if the search has passed the
/// switch-on, `on`).
fn close_ancestors<P: SearchPolicy>(s: &mut Search<'_, '_, P>, parent: Option<&Pending>, on: bool) {
    let mut node = parent;
    while let Some(p) = node.filter(|p| p.finish()) {
        let prefix = &p.prefix;
        if on && !prefix.is_empty() && prefix.len() < s.ctx.len() {
            s.store_closed(prefix);
        }
        node = p.parent.as_deref();
    }
}

/// Result of the phase-1 pool run.
struct PoolOutcome {
    best_order: Vec<TupleId>,
    best_nops: u32,
    stats: SearchStats,
    proved: bool,
    /// Worker 0 passed [`HELPER_THRESHOLD`] and started the helpers
    /// (none at one worker).
    helpers: bool,
}

/// Run the work-stealing pool over the whole tree (the root as one task).
/// The caller is worker 0, on its search `s`, which it returns; the
/// helpers start only when worker 0 passes [`HELPER_THRESHOLD`] Ω, and
/// leave their searches in `spare` when they finish. `cfg` is the
/// search's configuration; the workers' own, `s.cfg`, has an unbounded λ.
fn pool_phase<'c, 'a>(
    s: Search<'c, 'a, NullPolicy>,
    spare: &Spare<'c, 'a>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    boundary: Option<&BoundaryState>,
    seed: &SearchSeed,
) -> (PoolOutcome, Search<'c, 'a, NullPolicy>) {
    let (ctx, worker_cfg) = (s.ctx, s.cfg);
    let threads = par.resolved_threads().max(1);
    let shared = Shared::new(cfg, seed, 0);

    let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = deques.iter().map(|d| d.stealer()).collect();
    shared.pending.store(1, Ordering::Release);
    deques[0].push(Task {
        order: seed.order.clone(),
        depth: 0,
        bound: 0,
        parent: None,
    });

    let helper_stats = Mutex::new(SearchStats::default());
    let (mut stats, helpers, s) = crossbeam::scope(|scope| {
        let start_helpers = || {
            for (me, own) in deques.iter().enumerate().skip(1) {
                let (shared, stealers) = (&shared, &stealers);
                let (helper_stats, worker_cfg) = (&helper_stats, &worker_cfg);
                scope.spawn(move |_| {
                    let mut budget = Budget::new(shared, HELPER_THRESHOLD);
                    let policy = PoolPolicy::new(&mut budget, par.split_depth);
                    let search = helper_search(spare, ctx, worker_cfg, boundary);
                    let mut search = search.with_policy(policy);
                    let st = worker_loop(&mut search, own, stealers, me);
                    helper_stats.lock().merge(&st);
                    spare.lock().push(search.with_policy(NullPolicy));
                });
            }
        };
        let mut budget = Budget {
            helpers: Some(&start_helpers),
            ..Budget::new(&shared, 0)
        };
        let mut search = s.with_policy(PoolPolicy::new(&mut budget, par.split_depth));
        let st = worker_loop(&mut search, &deques[0], &stealers, 0);
        let s = search.with_policy(NullPolicy);
        (st, budget.helpers.is_none(), s)
    })
    .expect("parallel search worker panicked");

    stats.merge(&helper_stats.into_inner());
    // relaxed-ok (all three loads): the scope join above happens-before
    // these reads, so every worker's final stores are already visible.
    let proved = shared.proved.load(Ordering::Relaxed);
    stats.proved_by_bound = proved;
    stats.deadline_hit = !proved && shared.deadline_hit.load(Ordering::Relaxed);
    stats.truncated = !proved && shared.truncated.load(Ordering::Relaxed);
    let (best_order, best_nops) = shared.best.into_inner();
    let outcome = PoolOutcome {
        best_order,
        best_nops,
        stats,
        proved,
        helpers,
    };
    (outcome, s)
}

/// Search the tree with the work-stealing pool, from a seed that
/// [`crate::run`]'s triage left open, with `s`, the search that seeded
/// it, as worker 0's. With `proof`, a completed search is followed by the
/// transcript's re-derivation (phase 2; see the module docs), logged part
/// by part in merge order.
pub(crate) fn pool(
    mut s: Search<'_, '_, NullPolicy>,
    par: &ParallelConfig,
    boundary: Option<&BoundaryState>,
    seed: SearchSeed,
    proof: Option<&mut ProofLogger>,
) -> SearchOutcome {
    // The pool owns the λ budget; workers run the kernel with an infinite
    // local λ and charge their reserved batches through the policy.
    let cfg = s.cfg;
    s.cfg.lambda = u64::MAX;
    let spare = Mutex::new(Vec::new());
    let (pool, mut s) = pool_phase(s, &spare, &cfg, par, boundary, &seed);
    let mut stats = pool.stats;
    // A truncated phase 1 has no optimality claim to certify: the logger
    // gets no events, and the incomplete trailer makes the checker reject,
    // exactly like a truncated serial proof run.
    if let Some(logger) = proof.filter(|_| !pool.stats.truncated) {
        let (parts, phase2, caller) = certify_phase(s, &spare, &cfg, par, boundary, &seed, &pool);
        s = caller;
        logger.reserve(parts.iter().map(Vec::len).sum());
        for ev in parts.into_iter().flatten() {
            logger.log(ev);
        }
        // Phase 1 did not truncate, so the merged stop causes are phase
        // 2's; proved-by-bound stays phase 1's verdict.
        stats.merge(&phase2);
        stats.proved_by_bound = pool.proved;
    }
    let (etas, nops) = s.evaluate(&pool.best_order);
    debug_assert_eq!(nops, pool.best_nops);
    SearchOutcome {
        order: pool.best_order,
        assignment: s.ctx.sigma.clone(),
        etas,
        nops,
        initial_order: seed.order,
        initial_nops: seed.nops,
        // A truncated certification phase withdraws the optimality claim:
        // μ* is known optimal internally, but the caller asked for a
        // *checkable* run and the budget did not cover it.
        optimal: !stats.truncated,
        stats,
    }
}

/// Run the branch-and-bound search with a work-stealing worker pool:
/// [`crate::run`] with `parallel: Some(*par)`.
///
/// Honors the full [`SearchConfig`] — bound kind, equivalence rule, quick
/// check, λ budget (shared pool-wide) and deadline — and returns the same
/// optimal NOP count as the serial [`crate::bnb::search`]. The *schedule*
/// returned may be a different optimum when several exist, because
/// workers race to improve the incumbent. `cfg.pipeline_selection` runs
/// the serial kernel (the task snapshots do not carry the per-unit
/// symmetry state).
pub fn parallel_search(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
) -> SearchOutcome {
    let pooled = Run {
        parallel: Some(*par),
        ..Run::default()
    };
    run(ctx, cfg, pooled)
        .expect("a pooled search without proof or profile has nothing to reject")
        .0
}

/// The pieces of a parallel optimality proof, before merging.
///
/// `events` holds the transcript once; `parts` splits it at the root
/// dispositions into ranges, in the order the merged certificate
/// concatenates them: the best root
/// subtree first (so its `Improve{μ*}` precedes every other event), then
/// every other root candidate's disposition in serial enumeration order,
/// then the closing root `Leave` (absent when the stream ends in
/// `ProvedByBound`). Each entered subtree's part was produced by an
/// independent serial kernel run — dropping or reordering parts breaks
/// the checker's coverage replay, which is exactly what the tamper tests
/// assert.
#[derive(Debug, Clone)]
pub struct ParallelProof {
    /// Certificate header (identity + configuration of the run).
    pub header: CertificateHeader,
    /// The whole transcript, in the pool's merge order.
    pub events: Vec<ProofEvent>,
    /// Per-disposition ranges of `events` in merge order (see type docs).
    /// Dropping or reordering ranges tampers with what
    /// [`ParallelProof::merge`] assembles.
    pub parts: Vec<Range<usize>>,
    /// The final claim.
    pub trailer: CertificateTrailer,
}

impl ParallelProof {
    /// Split `cert`'s transcript at its root dispositions: a root-level
    /// prune or `Leave` is a part of its own, an `Enter` opens a part that
    /// runs until the search is back at the root. The events stay where
    /// they are; only the boundaries are computed.
    fn split(cert: Certificate) -> ParallelProof {
        let mut starts = Vec::new();
        let mut depth = 0usize;
        for (i, ev) in cert.events.iter().enumerate() {
            if depth == 0 {
                starts.push(i);
            }
            match ev {
                ProofEvent::Enter { .. } => depth += 1,
                ProofEvent::Leave | ProofEvent::Complete { .. } | ProofEvent::Improve { .. } => {
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        starts.push(cert.events.len());
        ParallelProof {
            parts: starts.windows(2).map(|w| w[0]..w[1]).collect(),
            events: cert.events,
            header: cert.header,
            trailer: cert.trailer,
        }
    }

    /// The events of part `i`.
    pub fn part(&self, i: usize) -> &[ProofEvent] {
        &self.events[self.parts[i].clone()]
    }

    /// Concatenate the parts into the single certificate the independent
    /// checker replays: the one copy of the events a pooled proof makes
    /// after logging them.
    pub fn merge(&self) -> Certificate {
        let mut events = Vec::with_capacity(self.parts.iter().map(ExactSizeIterator::len).sum());
        for range in &self.parts {
            events.extend_from_slice(&self.events[range.clone()]);
        }
        Certificate {
            header: self.header.clone(),
            events,
            trailer: self.trailer.clone(),
        }
    }
}

/// One root-candidate disposition of the phase-2 enumeration.
enum RootDisp {
    /// The candidate is pruned at the root; the event is final.
    Prune(ProofEvent),
    /// The candidate's subtree is entered and searched by a worker.
    Enter {
        candidate: TupleId,
        /// Full permutation with the candidate at position 0.
        order: Vec<TupleId>,
        /// Incumbent the subtree kernel is seeded with (and the replay
        /// incumbent the checker will hold when this part begins).
        seed_nops: u32,
        /// Lower-bound termination, passed only to the best subtree.
        global_lb: Option<u32>,
    },
}

/// Append to `disps`, which holds the best subtree's, the disposition of
/// every other root candidate in the serial enumeration order, priced on
/// `s` against μ*, the replay incumbent from the second part on.
fn other_dispositions<P: SearchPolicy>(
    s: &mut Search<'_, '_, P>,
    cfg: &SearchConfig,
    seed: &SearchSeed,
    pool: &PoolOutcome,
    disps: &mut Vec<RootDisp>,
) {
    let ctx = s.ctx;
    let mu_star = pool.best_nops;
    let initial_order = &seed.order;
    let kappa = initial_order[0];
    let c_star = pool.best_order[0];
    let j_star = initial_order
        .iter()
        .position(|&t| t == c_star)
        .expect("best root candidate is in the block");
    let equiv_class =
        (cfg.equivalence == EquivalenceMode::Structural).then(|| structural_classes(ctx));
    let jackson = pool.stats.omega_calls >= cfg.switch_on;
    disps.reserve(ctx.len() - 1);
    let mut tried_classes: Vec<(u32, TupleId)> = Vec::new();
    if let Some(classes) = &equiv_class {
        tried_classes.push((classes[c_star.index()], c_star));
    }
    for (j, &xi) in initial_order.iter().enumerate() {
        if j == j_star {
            continue;
        }
        // [5a]/[5b]: at the root both legality checks coincide (a
        // candidate is placeable iff it has no predecessors).
        if (cfg.quick_check && ctx.analysis.earliest(xi) > 0) || !ctx.preds[xi.index()].is_empty() {
            disps.push(RootDisp::Prune(ProofEvent::LegalityPrune {
                candidate: xi.0,
            }));
            continue;
        }
        // [5c]: mirror the serial kernel's equivalence filtering. The
        // hoisted best candidate is a valid witness for its own class —
        // its part precedes every prune in the merged stream.
        match cfg.equivalence {
            EquivalenceMode::Off => {}
            EquivalenceMode::Paper => {
                if j != 0 && ctx.interchangeable_free(kappa, xi) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: kappa.0,
                    }));
                    continue;
                }
            }
            EquivalenceMode::UnrestrictedPaper => {
                if j != 0 && ctx.is_free_instruction(kappa) && ctx.is_free_instruction(xi) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: kappa.0,
                    }));
                    continue;
                }
            }
            EquivalenceMode::Structural => {
                let classes = equiv_class.as_ref().expect("classes computed");
                let class = classes[xi.index()];
                if let Some(&(_, witness)) = tried_classes.iter().find(|(c, _)| *c == class) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: witness.0,
                    }));
                    continue;
                }
                tried_classes.push((class, xi));
            }
        }
        // Step [6] against the replay incumbent, which is μ* from the
        // second part on (the best subtree's Improve precedes these).
        let prune = s.root_prune(xi, mu_star, jackson);
        if let Some(ev) = prune {
            disps.push(RootDisp::Prune(ev));
        } else {
            let mut order = initial_order.clone();
            order.swap(0, j);
            disps.push(RootDisp::Enter {
                candidate: xi,
                order,
                seed_nops: mu_star,
                global_lb: None,
            });
        }
    }
}

/// Phase 2 of a pooled proof: re-derive the transcript of a completed
/// phase 1 with perfect foresight (see the module docs), on the caller's
/// search `s` and the helpers' in `spare`. Returns the parts in merge
/// order, the phase's counters, whose `truncated` and `deadline_hit` say
/// whether the certification itself ran out, and `s`. `cfg` is the
/// search's configuration, as for [`pool_phase`].
fn certify_phase<'c, 'a>(
    s: Search<'c, 'a, NullPolicy>,
    spare: &Spare<'c, 'a>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    boundary: Option<&BoundaryState>,
    seed: &SearchSeed,
    pool: &PoolOutcome,
) -> (
    Vec<Vec<ProofEvent>>,
    SearchStats,
    Search<'c, 'a, NullPolicy>,
) {
    let (ctx, worker_cfg) = (s.ctx, s.cfg);
    // Phase 2 is the same search's certification: it counts on from the
    // Ω phase 1 ran, for the switch-on as for λ.
    let spent = pool.stats.omega_calls;

    // Root dispositions in merge order: the best subtree first, then the
    // other candidates in the serial enumeration order.
    let mut disps = vec![RootDisp::Enter {
        candidate: pool.best_order[0],
        order: pool.best_order.clone(),
        seed_nops: seed.nops,
        global_lb: cfg.terminate_on_lower_bound.then_some(seed.global_lb),
    }];

    // Fresh shared state for phase 2 — same λ pool, counting on from the
    // Ω phase 1 ran (its unused batch reservations are not spent);
    // stop/proved flags reset so the subtree workers actually run.
    let shared2 = Shared::new(cfg, seed, spent);
    let mut stats = SearchStats::default();

    // The best subtree runs first, on the caller: if it proves optimality
    // by bound, the certificate ends inside it and nothing else is emitted.
    let mut budget = Budget::new(&shared2, spent);
    let mut caller = s.with_policy(ProvePolicy::new(&mut budget));
    let (events, st) = dispose(&mut caller, &disps[0]);
    stats.merge(&st);
    let proved_in_part0 = st.proved_by_bound;
    let mut parts = vec![events];

    // relaxed-ok: part 0 ran on this thread (program order); no other
    // thread is running yet.
    if !proved_in_part0 && !shared2.stop.load(Ordering::Relaxed) {
        // Only a part 0 that leaves the root open needs the other
        // candidates' dispositions.
        other_dispositions(&mut caller, cfg, seed, pool, &mut disps);
        parts.reserve(disps.len());
        // Every other disposition, claimed in order by the caller and, if
        // phase 1 started helpers, by up to `threads − 1` helper threads.
        let results: Vec<SubtreeSlot> = (0..disps.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(1);
        let helpers = if pool.helpers {
            par.resolved_threads().min(disps.len()).saturating_sub(1)
        } else {
            0
        };
        crossbeam::scope(|scope| {
            for _ in 0..helpers {
                let (shared2, disps, next, results) = (&shared2, &disps, &next, &results);
                let worker_cfg = &worker_cfg;
                scope.spawn(move |_| {
                    let mut budget = Budget::new(shared2, spent);
                    let search = helper_search(spare, ctx, worker_cfg, boundary);
                    let mut search = search.with_policy(ProvePolicy::new(&mut budget));
                    claim(&mut search, disps, next, results);
                    spare.lock().push(search.with_policy(NullPolicy));
                });
            }
            claim(&mut caller, &disps, &next, &results);
        })
        .expect("parallel prove worker panicked");
        for slot in results.into_iter().skip(1) {
            let (events, st) = slot.into_inner().expect("every disposition was processed");
            stats.merge(&st);
            parts.push(events);
        }
        parts.push(vec![ProofEvent::Leave]);
    }
    let s = caller.with_policy(NullPolicy);

    // relaxed-ok (here and deadline_hit below): read after scope join /
    // single-threaded part 0 — all worker stores are already visible.
    stats.truncated = !proved_in_part0 && shared2.truncated.load(Ordering::Relaxed);
    stats.deadline_hit = stats.truncated && shared2.deadline_hit.load(Ordering::Relaxed);
    (parts, stats, s)
}

/// One proof part's result slot: its events and counters.
type SubtreeSlot = Mutex<Option<(Vec<ProofEvent>, SearchStats)>>;

/// Dispose of root dispositions in claim order on one worker's search
/// until none is left, each into its slot.
fn claim(
    s: &mut Search<'_, '_, ProvePolicy<'_, '_>>,
    disps: &[RootDisp],
    next: &AtomicUsize,
    results: &[SubtreeSlot],
) {
    loop {
        // relaxed-ok: only the returned index is used — each claimed
        // slot is a Mutex, and the final reads happen after scope
        // join. Claim uniqueness needs atomicity, not ordering
        // (merge-completeness harness).
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= disps.len() {
            break;
        }
        *results[i].lock() = Some(dispose(s, &disps[i]));
    }
}

/// Run one disposition on a worker's search: a prune is its own part; an
/// entered subtree is an `Enter` followed by one serial kernel's
/// transcript below it.
fn dispose(
    s: &mut Search<'_, '_, ProvePolicy<'_, '_>>,
    disp: &RootDisp,
) -> (Vec<ProofEvent>, SearchStats) {
    match disp {
        RootDisp::Prune(ev) => (vec![*ev], SearchStats::default()),
        RootDisp::Enter {
            candidate,
            order,
            seed_nops,
            global_lb,
        } => {
            s.policy.events = vec![ProofEvent::Enter {
                candidate: candidate.0,
            }];
            if !s.policy.budget.ready() {
                s.policy.budget.shared.note_truncated();
                let st = SearchStats {
                    truncated: true,
                    ..SearchStats::default()
                };
                return (std::mem::take(&mut s.policy.events), st);
            }
            // The root placement is priced already, term and all. Each
            // part starts with an empty table, so every witness a part
            // cites precedes the citation within the part.
            s.clear_table();
            let (st, _) = s.subtree(order, 1, *seed_nops, *global_lb, None);
            (std::mem::take(&mut s.policy.events), st)
        }
    }
}

/// [`parallel_search`] while producing a machine-checkable optimality
/// certificate from per-subtree transcripts (see the module docs for the
/// two-phase construction): [`crate::run`] with `parallel: Some(*par)`
/// and an in-memory proof logger. The merged certificate is accepted by
/// `pipesched_proof::check_certificate` unchanged whenever the run
/// completes within λ/deadline.
///
/// # Panics
///
/// Panics if `cfg.pipeline_selection` is set (as for the serial
/// [`crate::bnb::prove`]).
pub fn parallel_prove(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
) -> (SearchOutcome, ParallelProof) {
    let (outcome, cert) = crate::bnb::prove_with(ctx, cfg, Some(*par));
    (outcome, ParallelProof::split(cert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, BoundKind, SearchConfig};
    use pipesched_ir::{analysis::verify_schedule, BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn sample_block(chains: usize) -> pipesched_ir::BasicBlock {
        let mut b = BlockBuilder::new("par");
        for i in 0..chains {
            let x = b.load(&format!("x{i}"));
            let y = b.load(&format!("y{i}"));
            let m = b.mul(x, y);
            b.store(&format!("r{i}"), m);
        }
        b.finish().unwrap()
    }

    #[test]
    fn parallel_matches_serial_optimum() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(u64::MAX);
        let serial = search(&ctx, &cfg);
        let par = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(4));
        assert!(serial.optimal && par.optimal);
        assert_eq!(par.nops, serial.nops);
        verify_schedule(&block, &dag, &par.order).unwrap();
    }

    /// Satellite regression: ablation knobs flow through the parallel
    /// search. A non-default configuration (the paper's α-β bound in
    /// place of the critical-path bound) must change the serial and
    /// one-thread-parallel node counts *identically* — before the kernel
    /// unification, `parallel_search` silently ran the default
    /// configuration.
    #[test]
    fn ablations_flow_through_the_pool() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        // One-thread parity needs the serial stop semantics untouched:
        // no λ, no deadline, no early lower-bound termination (a serial
        // mid-loop stop skips sibling Ω charges the pool pre-paid).
        let base = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let off = SearchConfig {
            bound: BoundKind::AlphaBeta,
            ..base
        };
        let mut counts = Vec::new();
        for cfg in [&base, &off] {
            let serial = search(&ctx, cfg);
            let par = parallel_search(
                &ctx,
                cfg,
                &ParallelConfig {
                    threads: 1,
                    split_depth: 2,
                },
            );
            assert_eq!(par.nops, serial.nops);
            // Bit-exact counter parity at one thread.
            assert_eq!(par.stats.nodes_visited, serial.stats.nodes_visited);
            assert_eq!(par.stats.omega_calls, serial.stats.omega_calls);
            assert_eq!(
                par.stats.complete_schedules,
                serial.stats.complete_schedules
            );
            assert_eq!(par.stats.improvements, serial.stats.improvements);
            assert_eq!(par.stats.pruned_quick, serial.stats.pruned_quick);
            assert_eq!(par.stats.pruned_legality, serial.stats.pruned_legality);
            assert_eq!(
                par.stats.pruned_equivalence,
                serial.stats.pruned_equivalence
            );
            assert_eq!(par.stats.pruned_bound, serial.stats.pruned_bound);
            counts.push(serial.stats.nodes_visited);
        }
        // And the ablation really changed the search: the weaker α-β
        // bound prunes later, so the tree itself differs.
        assert_ne!(
            counts[0], counts[1],
            "bound ablation should change the node count"
        );
    }

    #[test]
    fn tiny_blocks_short_circuit() {
        let mut b = BlockBuilder::new("tiny");
        b.load("x");
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let par = parallel_search(
            &ctx,
            &SearchConfig::with_lambda(100),
            &ParallelConfig::with_threads(8),
        );
        assert!(par.optimal);
        assert_eq!(par.order.len(), 1);
    }

    #[test]
    fn lambda_truncates_in_parallel() {
        let block = sample_block(4);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let par = parallel_search(
            &ctx,
            &SearchConfig::with_lambda(5),
            &ParallelConfig::with_threads(4),
        );
        assert!(par.stats.truncated);
        assert!(!par.optimal);
        verify_schedule(&block, &dag, &par.order).unwrap();
        assert!(par.nops <= par.initial_nops);
    }

    /// Forced-steal stress: with every placement its own task, workers
    /// other than the first can only obtain work by stealing.
    #[test]
    fn forced_steals_preserve_the_optimum() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let serial = search(&ctx, &cfg);
        let par = ParallelConfig {
            threads: 4,
            split_depth: ctx.len(),
        };
        let mut saw_steal = false;
        for _ in 0..20 {
            let out = parallel_search(&ctx, &cfg, &par);
            assert_eq!(out.nops, serial.nops);
            assert!(out.optimal);
            assert!(out.stats.splits > 0, "1-tuple splits must create tasks");
            verify_schedule(&block, &dag, &out.order).unwrap();
            if out.stats.steals > 0 {
                saw_steal = true;
                break;
            }
        }
        assert!(
            saw_steal,
            "with single-placement tasks and 4 workers, at least one run must steal"
        );
    }

    /// Deadline hit under contention: an already-expired deadline returns
    /// the legal incumbent with `optimal = false`.
    #[test]
    fn deadline_under_contention_returns_legal_incumbent() {
        let block = sample_block(4);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            deadline: Some(std::time::Instant::now()),
            ..SearchConfig::default()
        };
        let out = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(4));
        assert!(!out.optimal);
        assert!(out.stats.deadline_hit);
        verify_schedule(&block, &dag, &out.order).unwrap();
        assert!(out.nops <= out.initial_nops);
    }

    #[test]
    fn prove_parts_have_the_documented_shape() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::functional_units();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let (out, proof) = parallel_prove(&ctx, &cfg, &ParallelConfig::with_threads(2));
        assert!(out.optimal);
        let serial = search(&ctx, &cfg);
        assert_eq!(out.nops, serial.nops);
        // Part 0 is the best subtree: it starts with Enter{best root}.
        assert!(matches!(
            proof.part(0).first(),
            Some(ProofEvent::Enter { candidate }) if *candidate == out.order[0].0
        ));
        // If the pool improved on the seed, the best part contains the
        // Improve{μ*} that justifies every later bound prune.
        if out.nops < out.initial_nops {
            assert!(proof
                .part(0)
                .iter()
                .any(|e| matches!(e, ProofEvent::Improve { mu } if *mu == out.nops)));
        }
        // The last part closes the root node.
        assert_eq!(proof.part(proof.parts.len() - 1), [ProofEvent::Leave]);
        // The trailer claims exactly the returned schedule.
        assert_eq!(proof.trailer.nops, out.nops);
        assert!(proof.trailer.complete);
        // The parts tile the transcript, and merging copies it unchanged.
        let mut next = 0;
        for range in &proof.parts {
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next, proof.events.len());
        assert_eq!(proof.merge().events, proof.events);
    }
}
