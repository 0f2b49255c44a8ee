//! The answering engine: canonical-cache lookup, then tier escalation.
//!
//! A request is answered by the cheapest tier that can justify its result:
//!
//! 1. **cache** — canonical lookup (O(1)) plus an O(n + edges) validation:
//!    the stored canonical schedule is translated through the request
//!    block's canonical permutation, re-verified for legality, and
//!    re-timed; any disagreement (a refinement-hash collision) falls
//!    through to a live search and replaces the bogus entry.
//! 2. **list** — the machine-independent list schedule, answered as
//!    *optimal* when it meets the admissible whole-block lower bound
//!    (`global_lower_bound`), costing zero search nodes.
//! 3. **windowed** — for blocks longer than the window, a locally-optimal
//!    windowed pass on a quarter of the node budget (§5.3's future-work
//!    splitting heuristic) produces a strong incumbent fast.
//! 4. **bnb** — the paper's branch-and-bound spends the remaining budget
//!    under the request deadline; if it completes, the answer is provably
//!    optimal, otherwise the best incumbent across tiers is returned with
//!    `optimal = false`.
//!
//! All tiers share one [`SchedContext`] — the DAG, dependence analysis and
//! machine tables are built once per request, never per tier.

use std::time::Instant;

use pipesched_core::proof::{Certificate, ProofLogger};
use pipesched_core::{
    global_lower_bound, run, search, windowed_schedule_bounded, Backend, ParallelConfig, Run,
    SchedContext, SearchConfig, SearchProfile, SearchStats,
};
use pipesched_ir::{analysis::verify_schedule, BasicBlock, DepDag, TupleId};
use pipesched_json::{json_object, Json};
use pipesched_machine::{Machine, PipelineId};
use pipesched_trace::flight::{self, Outcome, Phase};
use pipesched_trace::{point2, span};

use crate::cache::{CacheEntry, ScheduleCache};
use crate::canon::{canonicalize, CanonForm};
use crate::metrics::Metrics;

/// Which tier produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Validated canonical-cache hit.
    Cache,
    /// List schedule proven optimal by the global lower bound.
    List,
    /// Windowed locally-optimal schedule.
    Windowed,
    /// The final exact tier (complete or budget-truncated). Historically
    /// named after the branch-and-bound; under [`EngineConfig::backend`]
    /// the SAT portfolio can answer here too — the [`Answer::backend`]
    /// field says which engine actually produced the schedule.
    Bnb,
}

impl Tier {
    /// Stable name used in responses and the persisted cache.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cache => "cache",
            Tier::List => "list",
            Tier::Windowed => "windowed",
            Tier::Bnb => "bnb",
        }
    }

    /// Parse a stable name back.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cache" => Some(Tier::Cache),
            "list" => Some(Tier::List),
            "windowed" => Some(Tier::Windowed),
            "bnb" => Some(Tier::Bnb),
            _ => None,
        }
    }

    /// Dense index for per-tier counters.
    pub fn index(self) -> usize {
        match self {
            Tier::Cache => 0,
            Tier::List => 1,
            Tier::Windowed => 2,
            Tier::Bnb => 3,
        }
    }
}

/// Per-request resource limits.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Search-node (Ω-call) budget across the escalation tiers.
    pub nodes: u64,
    /// Wall-clock deadline, if any.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        Budget {
            nodes: u64::MAX,
            deadline: None,
        }
    }
}

/// A served schedule plus its provenance.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Instruction order (tuple ids of the request block).
    pub order: Vec<TupleId>,
    /// Pipeline per tuple id.
    pub assignment: Vec<Option<PipelineId>>,
    /// η per position of `order`.
    pub etas: Vec<u32>,
    /// Total NOPs μ.
    pub nops: u32,
    /// True when the schedule is provably optimal.
    pub optimal: bool,
    /// True when the answer came from the cache.
    pub cache_hit: bool,
    /// Tier that produced the schedule.
    pub tier: Tier,
    /// Concrete solving backend behind the answer: `Bnb` for the search
    /// tiers (cache hits inherit the producing entry's backend), `Sat`
    /// when the SAT portfolio answered. Never `Race` — a race resolves to
    /// whichever side won.
    pub backend: Backend,
    /// Ω calls spent answering (0 for cache hits and proven list answers).
    pub omega_calls: u64,
    /// True when the wall-clock deadline cut the search short.
    pub deadline_hit: bool,
    /// FNV-1a digest of the optimality certificate backing this answer
    /// (only when the engine runs with [`EngineConfig::prove`] and the
    /// answer is provably optimal). Cache hits inherit the digest the
    /// entry was stored with.
    pub proof_digest: Option<u64>,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Default node budget for requests that specify none.
    pub default_nodes: u64,
    /// Window length for the windowed tier (blocks no longer than this
    /// skip straight to branch-and-bound).
    pub window: usize,
    /// Fraction denominator of the budget the windowed tier may spend
    /// (budget / `windowed_share`).
    pub windowed_share: u64,
    /// Record an optimality certificate for every provably optimal answer
    /// and attach its digest to the response and the cache entry. The
    /// branch-and-bound tier logs its own search; tiers proven by the
    /// global lower bound emit the shortcut by-bound certificate.
    pub prove: bool,
    /// Gate every request block through the front-end optimizer under
    /// translation validation: requests whose blocks the validator
    /// rejects (`A05xx`) are refused. The request block itself is still
    /// the one scheduled — responses index the tuples the client sent.
    /// Defaults on when `PIPESCHED_VERIFY_OPT` is set.
    pub verify_opt: bool,
    /// Which engine answers the final exact tier: the paper's
    /// branch-and-bound (default), the SAT portfolio's descending
    /// feasibility queries, or a race of the two under the shared
    /// deadline (the loser is cancelled once the winner proves
    /// optimality).
    pub backend: Backend,
    /// Workers for the branch-and-bound tier, counting the calling
    /// thread. `1` (the default) runs the serial kernel; any other value
    /// escalates to the work-stealing parallel search (`0` = one worker
    /// per CPU), which starts its helper threads only once a search
    /// passes `pipesched_core::parallel::HELPER_THRESHOLD` Ω. The
    /// parallel tier honours the full request configuration — deadline,
    /// λ budget, proving — and, when proving, serves the digest of the
    /// merged multi-worker certificate.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            default_nodes: 50_000,
            window: 12,
            windowed_share: 4,
            prove: false,
            verify_opt: pipesched_analyze::verify_opt_forced(),
            backend: Backend::Bnb,
            threads: 1,
        }
    }
}

/// The shared, thread-safe answering engine.
pub struct ServiceEngine {
    cache: ScheduleCache,
    metrics: Metrics,
    config: EngineConfig,
}

impl ServiceEngine {
    /// An engine with a cache of `cache_capacity` entries over
    /// `cache_shards` shards.
    pub fn new(config: EngineConfig, cache_capacity: usize, cache_shards: usize) -> Self {
        ServiceEngine {
            cache: ScheduleCache::new(cache_capacity, cache_shards),
            metrics: Metrics::new(),
            config,
        }
    }

    /// The engine's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The engine's cache.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// One-stop stats snapshot: engine metrics, cache occupancy (total,
    /// per shard) and configuration — the `/stats` payload and the local
    /// `pipesched stats` dump.
    pub fn stats_json(&self) -> Json {
        let shard_sizes: Vec<Json> = self
            .cache
            .shard_sizes()
            .into_iter()
            .map(|n| Json::Int(n as i64))
            .collect();
        json_object![
            ("metrics", self.metrics.to_json()),
            (
                "cache",
                json_object![
                    ("entries", self.cache.len() as i64),
                    ("hits", self.cache.hits() as i64),
                    ("misses", self.cache.misses() as i64),
                    ("evictions", self.cache.evictions() as i64),
                    ("shards", self.cache.shard_count() as i64),
                    ("shard_sizes", Json::Array(shard_sizes)),
                ]
            ),
            ("slo", crate::slo::to_json(&self.metrics)),
            (
                "trace",
                json_object![
                    ("stored", pipesched_trace::store::len() as i64),
                    ("capacity", pipesched_trace::store::capacity() as i64),
                    ("evicted", pipesched_trace::store::evicted_total() as i64),
                ]
            ),
            ("flight", flight::stats().to_json()),
            (
                "config",
                json_object![
                    ("default_nodes", self.config.default_nodes as i64),
                    ("window", self.config.window as i64),
                    ("windowed_share", self.config.windowed_share as i64),
                    ("prove", self.config.prove),
                    ("verify_opt", self.config.verify_opt),
                    ("backend", self.config.backend.name()),
                    ("threads", self.config.threads as i64),
                ]
            ),
        ]
    }

    /// The `/healthz` payload: readiness of the serving stack. Probes the
    /// cache shards (every shard lock must answer a size query) and runs a
    /// canned scheduling self-test through the real search kernel plus the
    /// independent legality verifier — if either wedges or answers
    /// wrongly, the replica reports unready. `workers` is the serving
    /// front end's worker-pool size (0 = no pool accepting connections).
    pub fn health_json(&self, workers: usize) -> (bool, Json) {
        let shard_sizes = self.cache.shard_sizes();
        let shards_ok = shard_sizes.len() == self.cache.shard_count();
        let selftest_ok = schedule_selftest();
        let ok = shards_ok && selftest_ok && workers > 0;
        (
            ok,
            json_object![
                ("status", if ok { "ok" } else { "unready" }),
                ("workers", workers as i64),
                ("cache_shards", shard_sizes.len() as i64),
                ("cache_shards_ok", shards_ok),
                ("schedule_selftest_ok", selftest_ok),
            ],
        )
    }

    /// The `/metrics` payload: engine metrics plus cache gauges in
    /// Prometheus text exposition.
    pub fn prometheus(&self) -> String {
        let mut w = pipesched_trace::prom::PromWriter::new();
        self.metrics.write_prometheus(&mut w);
        w.gauge(
            "pipesched_cache_entries",
            "Live schedule-cache entries.",
            self.cache.len() as f64,
        );
        w.counter(
            "pipesched_cache_evictions_total",
            "Schedule-cache LRU evictions.",
            self.cache.evictions(),
        );
        w.counter(
            "pipesched_trace_evicted_total",
            "Completed traces evicted off the trace store's ring.",
            pipesched_trace::store::evicted_total(),
        );
        let fs = flight::stats();
        w.counter(
            "pipesched_flight_events_total",
            "Wide events committed to the flight recorder.",
            fs.recorded,
        );
        w.counter(
            "pipesched_flight_evicted_total",
            "Wide events evicted off the flight recorder's ring.",
            fs.evicted,
        );
        w.counter(
            "pipesched_flight_dumps_total",
            "Anomaly dumps the flight recorder froze.",
            fs.dumps_taken,
        );
        crate::slo::write_prometheus(&self.metrics, &mut w);
        w.finish()
    }

    /// Answer one scheduling request. `budget.nodes == 0` is clamped to 1
    /// so the anytime contract (a legal schedule always comes back) holds.
    /// Each phase is one [`flight::phase`] guard, and the answer is
    /// reported once to this thread's wide event — both no-ops outside the
    /// serve loop, whose commit derives the request metrics from the event.
    pub fn answer(&self, block: &BasicBlock, machine: &Machine, budget: Budget) -> Answer {
        // One DAG + context for the whole request: every tier below reuses
        // it (and the canonicalizer shares its `allowed` table).
        let dag_phase = flight::phase(Phase::Dag, "dag_build");
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, machine);
        drop(dag_phase);
        let form = {
            let _p = flight::phase(Phase::Canon, "canonicalize");
            canonicalize(&ctx)
        };
        flight::update(|ev| {
            (ev.canon, ev.n, ev.machine_fp) = (form.key.hash, form.key.n, form.key.machine_fp)
        });
        let nodes = budget.nodes.max(1);

        let hit = {
            let _p = flight::phase(Phase::Cache, "cache_lookup");
            self.cache.get(&form.key, nodes)
        };
        let cached = hit.and_then(|entry| {
            let _p = flight::phase(Phase::Cache, "cache_translate");
            let answer = translate_hit(&ctx, &form, &entry);
            if answer.is_none() {
                // Refinement-hash collision: the entry belongs to a
                // structurally different block. Drop it and re-search.
                self.cache.remove(&form.key);
            }
            answer
        });
        let answer = cached.unwrap_or_else(|| {
            let _p = flight::phase(Phase::Search, "search");
            let answer = self.escalate(&ctx, budget.deadline, nodes);
            let _s = span("cache_store");
            self.store(&form, &answer, nodes);
            answer
        });
        self.certify_debug(block, machine, &answer);
        flight::update(|ev| {
            (ev.tier, ev.backend) = (answer.tier.name(), answer.backend.name());
            ev.threads = self.config.threads as u32;
            ev.cache = if answer.cache_hit { "hit" } else { "miss" };
            (ev.nops, ev.optimal) = (answer.nops, answer.optimal);
            ev.deadline_hit = answer.deadline_hit;
            ev.proof_digest = answer.proof_digest.unwrap_or(0);
            if answer.deadline_hit {
                ev.raise(Outcome::DeadlineMiss);
            }
        });
        answer
    }

    /// The one sink for a tier's search counters: the fleet aggregate
    /// (`single` marks runs eligible for the node identity), the pool's
    /// steal/split counters, and this request's wide event.
    fn record_search(&self, stats: &SearchStats, single: bool) {
        self.metrics.search.record(stats, single);
        if stats.steals > 0 || stats.splits > 0 {
            self.metrics.record_parallel(stats.steals, stats.splits);
        }
        flight::update(|ev| {
            ev.nodes += stats.nodes_visited;
            ev.omega += stats.omega_calls;
            ev.pruned += stats.pruned_total();
        });
    }

    /// The tier cascade on a cache miss.
    fn escalate(&self, ctx: &SchedContext<'_>, deadline: Option<Instant>, nodes: u64) -> Answer {
        // Tier "list": λ=1 lets the search return after the lower-bound
        // pre-check — if the list schedule meets the bound it is optimal
        // and free (zero Ω calls); otherwise we get the incumbent to beat.
        let list_cfg = SearchConfig {
            lambda: 1,
            deadline,
            ..SearchConfig::default()
        };
        let list = {
            let _s = span("tier_list");
            search(ctx, &list_cfg)
        };
        self.record_search(&list.stats, true);
        if list.optimal {
            let mut answer = answer_from_search(&list, Tier::List, 0);
            if self.config.prove {
                answer.proof_digest = Some(prove_digest(ctx, &answer.order, answer.nops));
            }
            return answer;
        }
        let mut omega_spent = list.stats.omega_calls;

        // Tier "windowed": only worthwhile when the block is longer than
        // the window; spends a bounded share of the budget.
        let windowed = if ctx.len() > self.config.window && nodes > 1 {
            let _s = span("tier_windowed");
            let w_nodes = (nodes / self.config.windowed_share).max(1);
            let w = windowed_schedule_bounded(ctx, self.config.window, w_nodes, deadline);
            // Windowed stats aggregate several per-window searches, so they
            // never join the identity-eligible set.
            self.record_search(&w.stats, false);
            omega_spent += w.stats.omega_calls;
            Some(w)
        } else {
            None
        };
        let global_lb = global_lower_bound(ctx);
        if let Some(w) = &windowed {
            if w.nops <= global_lb {
                // The windowed schedule meets the admissible bound: optimal.
                let (etas, nops) = pipesched_core::timing::evaluate_schedule(ctx, &w.order);
                debug_assert_eq!(nops, w.nops);
                let proof_digest = self.config.prove.then(|| prove_digest(ctx, &w.order, nops));
                return Answer {
                    order: w.order.clone(),
                    assignment: ctx.sigma.clone(),
                    etas,
                    nops,
                    optimal: true,
                    cache_hit: false,
                    tier: Tier::Windowed,
                    backend: Backend::Bnb,
                    omega_calls: omega_spent,
                    deadline_hit: false,
                    proof_digest,
                };
            }
        }

        // The final exact tier: the remaining budget under the request
        // deadline goes to the configured backend — the paper's
        // branch-and-bound, the SAT portfolio's descending feasibility
        // queries, or a race of the two.
        let lambda = nodes.saturating_sub(omega_spent).max(1);
        let answer = match self.config.backend {
            Backend::Bnb => self.bnb_tier(ctx, deadline, lambda, &mut omega_spent),
            Backend::Sat => {
                let _s = span("tier_sat");
                let solve_cfg = pipesched_solve::SolveConfig {
                    deadline,
                    ..Default::default()
                };
                let out = pipesched_solve::solve_schedule(ctx, &solve_cfg);
                self.metrics.record_sat_effort(
                    out.stats.conflicts,
                    out.stats.decisions,
                    out.stats.propagations,
                );
                self.answer_from_solve(ctx, out, omega_spent)
            }
            Backend::Race => {
                let _s = span("tier_race");
                let race_cfg = pipesched_solve::RaceConfig {
                    lambda,
                    deadline,
                    // Serving latency beats cross-certification here: the
                    // loser is cancelled the moment the winner proves
                    // optimality. The CLI's race mode keeps both for the
                    // full agreement check.
                    cancel_loser: true,
                    ..Default::default()
                };
                let out = pipesched_solve::race(ctx, &race_cfg);
                self.record_search(&out.bnb.stats, true);
                if out.disagreement {
                    flight::update(|ev| ev.raise(Outcome::Disagreement));
                }
                self.metrics.record_sat_effort(
                    out.sat.stats.conflicts,
                    out.sat.stats.decisions,
                    out.sat.stats.propagations,
                );
                omega_spent += out.bnb.stats.omega_calls;
                point2("race_bnb_micros", 0, out.bnb_micros as i64);
                point2("race_sat_micros", 0, out.sat_micros as i64);
                // A disagreement between two optimality proofs means one
                // of them is wrong; `race` already refuses to answer from
                // the SAT side in that case, and the certifier rejects the
                // served schedule in debug builds.
                debug_assert!(
                    !out.disagreement,
                    "SAT and branch-and-bound disagree on the optimal NOP count"
                );
                if out.winner == Backend::Sat {
                    self.answer_from_solve(ctx, out.sat, omega_spent)
                } else {
                    let mut a = answer_from_search(&out.bnb, Tier::Bnb, omega_spent);
                    if self.config.prove && a.optimal {
                        a.proof_digest = Some(prove_digest(ctx, &a.order, a.nops));
                    }
                    a
                }
            }
        };

        // The final tier starts from the list incumbent, so it can only
        // tie or beat the list tier; the windowed candidate may still be
        // better when the exact search was truncated early.
        if let Some(w) = windowed {
            if !answer.optimal && w.nops < answer.nops {
                let (etas, nops) = pipesched_core::timing::evaluate_schedule(ctx, &w.order);
                debug_assert_eq!(nops, w.nops);
                return Answer {
                    order: w.order,
                    assignment: ctx.sigma.clone(),
                    etas,
                    nops,
                    optimal: false,
                    cache_hit: false,
                    tier: Tier::Windowed,
                    backend: Backend::Bnb,
                    omega_calls: answer.omega_calls,
                    deadline_hit: answer.deadline_hit || w.stats.deadline_hit,
                    proof_digest: None,
                };
            }
        }
        answer
    }

    /// The branch-and-bound variant of the final tier: one [`run`] on the
    /// serial kernel (`threads == 1`) or the work-stealing pool, proving
    /// when configured, and profiled per depth when a trace records on the
    /// serial kernel. Pool stats are recorded without the single-search
    /// node identity (a pool's bound prunes include deferred task drops),
    /// and its steal/split counters feed the parallel counters. A proved
    /// answer carries the digest of its certificate, merged from the
    /// workers' transcripts under the pool.
    fn bnb_tier(
        &self,
        ctx: &SchedContext<'_>,
        deadline: Option<Instant>,
        lambda: u64,
        omega_spent: &mut u64,
    ) -> Answer {
        let bnb_cfg = SearchConfig {
            lambda,
            deadline,
            ..SearchConfig::default()
        };
        let parallel =
            (self.config.threads != 1).then(|| ParallelConfig::with_threads(self.config.threads));
        let _s = span(if parallel.is_some() {
            "tier_bnb_parallel"
        } else {
            "tier_bnb"
        });
        let mut profile =
            (parallel.is_none() && pipesched_trace::active()).then(SearchProfile::new);
        let searched = Run {
            parallel,
            // Only the digest is kept, so the transcript streams nowhere.
            proof: self
                .config
                .prove
                .then(|| ProofLogger::streaming(Box::new(std::io::sink()))),
            profile: profile.as_mut(),
            ..Run::default()
        };
        let (out, proof) = run(ctx, &bnb_cfg, searched).expect(
            "a cold, fixed-unit search profiled only on the serial kernel is never rejected",
        );
        // Attach the depth breakdown to the tier span as points.
        for (name, depth, value) in profile.iter().flat_map(SearchProfile::points) {
            point2(name, depth as i64, value as i64);
        }
        self.record_search(&out.stats, parallel.is_none());
        *omega_spent += out.stats.omega_calls;
        let mut answer = answer_from_search(&out, Tier::Bnb, *omega_spent);
        // A truncated transcript is not a proof; attach nothing.
        answer.proof_digest = proof.filter(|_| out.optimal).map(|p| p.digest());
        answer
    }

    /// Package a SAT-portfolio outcome as a served answer. The proof
    /// digest, when proving is on, comes from the by-bound shortcut or a
    /// fresh certificate-logged search — the SAT query trail itself is
    /// audited by `pipesched-solve`, not persisted as a certificate.
    fn answer_from_solve(
        &self,
        ctx: &SchedContext<'_>,
        out: pipesched_solve::SolveOutcome,
        omega_calls: u64,
    ) -> Answer {
        let proof_digest =
            (self.config.prove && out.optimal).then(|| prove_digest(ctx, &out.order, out.nops));
        Answer {
            order: out.order,
            assignment: out.assignment,
            etas: out.etas,
            nops: out.nops,
            optimal: out.optimal,
            cache_hit: false,
            tier: Tier::Bnb,
            backend: Backend::Sat,
            omega_calls,
            deadline_hit: out.stats.deadline_hit,
            proof_digest,
        }
    }

    /// Memoize an answer in canonical coordinates.
    fn store(&self, form: &CanonForm, answer: &Answer, nodes: u64) {
        let inv = form.inverse();
        let order_c: Vec<u32> = answer.order.iter().map(|t| inv[t.index()]).collect();
        let mut assignment_c = vec![u32::MAX; form.perm.len()];
        for (id, a) in answer.assignment.iter().enumerate() {
            assignment_c[inv[id] as usize] = a.map_or(u32::MAX, |p| p.index() as u32);
        }
        self.cache.insert(
            form.key,
            CacheEntry {
                order_c,
                assignment_c,
                etas: answer.etas.clone(),
                nops: answer.nops,
                optimal: answer.optimal,
                budget_nodes: if answer.optimal { u64::MAX } else { nodes },
                tier: answer.tier,
                backend: answer.backend,
                proof_digest: answer.proof_digest,
            },
        );
    }

    /// Debug-build certification of every served schedule against the
    /// independent re-derivation in `pipesched-analyze`.
    fn certify_debug(&self, block: &BasicBlock, machine: &Machine, answer: &Answer) {
        pipesched_analyze::debug_assert_claim_certified(
            block,
            machine,
            pipesched_analyze::Claim {
                order: &answer.order,
                assignment: Some(&answer.assignment),
                etas: Some(&answer.etas),
                nops: Some(answer.nops),
            },
        );
    }
}

/// The `/healthz` scheduling self-test: schedule a canned 6-tuple block
/// through the real search kernel and verify the result with the
/// independent legality checker. Runs outside the engine's metrics and
/// cache so probes never skew production telemetry.
fn schedule_selftest() -> bool {
    let mut b = pipesched_ir::BlockBuilder::new("healthz");
    let x = b.load("hx");
    let y = b.load("hy");
    let m = b.mul(x, y);
    let a = b.add(x, y);
    b.store("hm", m);
    b.store("ha", a);
    let Ok(block) = b.finish() else {
        return false;
    };
    let machine = pipesched_machine::presets::paper_simulation();
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    let out = search(&ctx, &SearchConfig::with_lambda(1_000));
    verify_schedule(&block, &dag, &out.order).is_ok() && out.etas.iter().sum::<u32>() == out.nops
}

fn answer_from_search(out: &pipesched_core::SearchOutcome, tier: Tier, omega_calls: u64) -> Answer {
    Answer {
        order: out.order.clone(),
        assignment: out.assignment.clone(),
        etas: out.etas.clone(),
        nops: out.nops,
        optimal: out.optimal,
        cache_hit: false,
        tier,
        backend: Backend::Bnb,
        omega_calls,
        deadline_hit: out.stats.deadline_hit,
        proof_digest: None,
    }
}

/// Certificate digest for an answer already proven optimal without a full
/// search transcript: when the schedule meets the admissible whole-block
/// lower bound, the shortcut by-bound certificate suffices; otherwise (a
/// tiny block whose λ=1 search completed exhaustively) a fresh fully-logged
/// search is cheap.
fn prove_digest(ctx: &SchedContext<'_>, order: &[TupleId], nops: u32) -> u64 {
    // Nested in the search phase, whose self time excludes it.
    let _p = flight::phase(Phase::Prove, "prove");
    let lb = global_lower_bound(ctx);
    if nops == lb {
        let order: Vec<u32> = order.iter().map(|t| t.0).collect();
        Certificate::by_bound(ctx.len() as u32, order, nops, lb).digest()
    } else {
        let cfg = SearchConfig {
            lambda: u64::MAX,
            ..SearchConfig::default()
        };
        let (_, cert) = pipesched_core::prove(ctx, &cfg);
        cert.digest()
    }
}

/// Replay a cached canonical schedule on a (possibly different) block with
/// the same canonical form. Returns `None` — treat as a miss — unless the
/// translated order is verifiably legal on *this* block's DAG and re-timing
/// it reproduces the stored η/μ exactly.
pub(crate) fn translate_hit(
    ctx: &SchedContext<'_>,
    form: &CanonForm,
    entry: &CacheEntry,
) -> Option<Answer> {
    let n = ctx.len();
    if entry.order_c.len() != n {
        return None;
    }
    let order: Vec<TupleId> = entry
        .order_c
        .iter()
        .map(|&c| form.perm.get(c as usize).copied())
        .collect::<Option<_>>()?;
    let mut assignment: Vec<Option<PipelineId>> = vec![None; n];
    let pipes = ctx.machine.pipeline_count();
    for (c, &a) in entry.assignment_c.iter().enumerate() {
        let id = form.perm.get(c)?.index();
        assignment[id] = if a == u32::MAX {
            None
        } else if (a as usize) < pipes {
            Some(PipelineId(a))
        } else {
            return None;
        };
    }
    verify_schedule(ctx.block, ctx.dag, &order).ok()?;
    // Re-time with the translated assignment; the replayed schedule must
    // reproduce the stored padding bit for bit, else the hit is bogus.
    let mut engine = pipesched_core::TimingEngine::new(ctx);
    let etas: Vec<u32> = order
        .iter()
        .map(|&t| engine.push(t, assignment[t.index()]))
        .collect();
    let nops = engine.total_nops();
    if nops != entry.nops || etas != entry.etas {
        return None;
    }
    Some(Answer {
        order,
        assignment,
        etas,
        nops,
        optimal: entry.optimal,
        cache_hit: true,
        tier: Tier::Cache,
        backend: entry.backend,
        omega_calls: 0,
        deadline_hit: false,
        proof_digest: entry.proof_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    fn engine() -> ServiceEngine {
        ServiceEngine::new(EngineConfig::default(), 64, 4)
    }

    fn block_with(names: [&str; 4]) -> BasicBlock {
        let mut b = BlockBuilder::new("e2e");
        let x = b.load(names[0]);
        let y = b.load(names[1]);
        let m = b.mul(x, y);
        let a = b.add(x, y);
        b.store(names[2], m);
        b.store(names[3], a);
        b.finish().unwrap()
    }

    #[test]
    fn second_request_hits_the_cache() {
        let eng = engine();
        let machine = presets::paper_simulation();
        let first = eng.answer(
            &block_with(["x", "y", "m", "a"]),
            &machine,
            Budget::unlimited(),
        );
        assert!(!first.cache_hit);
        // Renamed block: isomorphic, must hit.
        let second = eng.answer(
            &block_with(["p", "q", "r", "s"]),
            &machine,
            Budget::unlimited(),
        );
        assert!(second.cache_hit);
        assert_eq!(second.tier, Tier::Cache);
        assert_eq!(second.nops, first.nops);
        assert_eq!(second.optimal, first.optimal);
        assert_eq!(second.omega_calls, 0);
        assert_eq!(eng.cache().hits(), 1);
    }

    #[test]
    fn unlimited_budget_matches_serial_bnb() {
        let eng = engine();
        let machine = presets::paper_simulation();
        let block = block_with(["x", "y", "m", "a"]);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let reference = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        let served = eng.answer(&block, &machine, Budget::unlimited());
        assert!(served.optimal && reference.optimal);
        assert_eq!(served.nops, reference.nops);
        assert_eq!(served.order, reference.order, "bit-identical schedule");
        assert_eq!(served.etas, reference.etas);
    }

    #[test]
    fn tiny_budget_still_returns_a_legal_schedule() {
        let eng = engine();
        let machine = presets::paper_simulation();
        // Contended block that cannot be proven optimal in 2 nodes.
        let mut b = BlockBuilder::new("hard");
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let answer = eng.answer(
            &block,
            &machine,
            Budget {
                nodes: 2,
                deadline: None,
            },
        );
        assert!(!answer.optimal);
        let dag = DepDag::build(&block);
        verify_schedule(&block, &dag, &answer.order).unwrap();
        assert_eq!(answer.etas.iter().sum::<u32>(), answer.nops);
    }

    #[test]
    fn expired_deadline_still_returns_a_legal_schedule() {
        let eng = engine();
        let machine = presets::paper_simulation();
        let block = block_with(["x", "y", "m", "a"]);
        let answer = eng.answer(
            &block,
            &machine,
            Budget {
                nodes: u64::MAX,
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            },
        );
        let dag = DepDag::build(&block);
        verify_schedule(&block, &dag, &answer.order).unwrap();
        // Either the pre-check proved the list schedule optimal before the
        // clock was read, or the answer is flagged truncated.
        if !answer.optimal {
            assert!(answer.deadline_hit);
        }
    }

    #[test]
    fn bigger_budget_is_not_answered_by_a_truncated_entry() {
        let eng = engine();
        let machine = presets::paper_simulation();
        let mut b = BlockBuilder::new("re");
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let small = eng.answer(
            &block,
            &machine,
            Budget {
                nodes: 2,
                deadline: None,
            },
        );
        assert!(!small.optimal);
        let big = eng.answer(&block, &machine, Budget::unlimited());
        assert!(!big.cache_hit, "truncated entry must not answer");
        assert!(big.optimal);
        assert!(big.nops <= small.nops);
        // And now the optimal entry serves any budget.
        let again = eng.answer(
            &block,
            &machine,
            Budget {
                nodes: 2,
                deadline: None,
            },
        );
        assert!(again.cache_hit);
        assert!(again.optimal);
    }

    #[test]
    fn different_machines_do_not_share_entries() {
        let eng = engine();
        let block = block_with(["x", "y", "m", "a"]);
        let a = eng.answer(&block, &presets::paper_simulation(), Budget::unlimited());
        let b = eng.answer(&block, &presets::deep_pipeline(), Budget::unlimited());
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(eng.cache().len(), 2);
    }

    #[test]
    fn windowed_tier_answers_long_blocks_with_small_budget() {
        let cfg = EngineConfig {
            window: 4,
            ..Default::default()
        };
        let eng = ServiceEngine::new(cfg, 16, 2);
        let machine = presets::paper_simulation();
        let mut b = BlockBuilder::new("long");
        for i in 0..8 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let answer = eng.answer(
            &block,
            &machine,
            Budget {
                nodes: 400,
                deadline: None,
            },
        );
        let dag = DepDag::build(&block);
        verify_schedule(&block, &dag, &answer.order).unwrap();
        assert!(answer.omega_calls <= 400 + 1);
    }

    #[test]
    fn sat_backend_matches_the_default_engine() {
        let machine = presets::paper_simulation();
        let block = block_with(["x", "y", "m", "a"]);
        let reference = engine().answer(&block, &machine, Budget::unlimited());
        let sat_engine = ServiceEngine::new(
            EngineConfig {
                backend: Backend::Sat,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let served = sat_engine.answer(&block, &machine, Budget::unlimited());
        assert!(served.optimal && reference.optimal);
        assert_eq!(served.nops, reference.nops);
        // The list tier answers with the B&B backend even on a SAT engine;
        // only answers from the exact tier carry `Backend::Sat`. Either
        // way the backend is recorded in the metrics and the cache.
        if served.tier == Tier::Bnb {
            assert_eq!(served.backend, Backend::Sat);
        } else {
            assert_eq!(served.backend, Backend::Bnb);
        }
        let dag = DepDag::build(&block);
        verify_schedule(&block, &dag, &served.order).unwrap();
        // A renamed repeat hits the cache and inherits the entry backend.
        let repeat = sat_engine.answer(
            &block_with(["p", "q", "r", "s"]),
            &machine,
            Budget::unlimited(),
        );
        assert!(repeat.cache_hit);
        assert_eq!(repeat.backend, served.backend);
    }

    #[test]
    fn sat_backend_answers_contended_blocks_optimally() {
        // A block the list tier cannot prove by the bound, forcing the
        // exact tier to actually run the descending SAT queries.
        let machine = presets::deep_pipeline();
        let mut b = BlockBuilder::new("contended");
        for i in 0..4 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let reference = engine().answer(&block, &machine, Budget::unlimited());
        let sat_engine = ServiceEngine::new(
            EngineConfig {
                backend: Backend::Sat,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let served = sat_engine.answer(&block, &machine, Budget::unlimited());
        assert!(served.optimal && reference.optimal);
        assert_eq!(served.nops, reference.nops);
    }

    #[test]
    fn race_backend_agrees_and_records_a_winner() {
        let machine = presets::paper_simulation();
        let mut b = BlockBuilder::new("raced");
        for i in 0..3 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let reference = engine().answer(&block, &machine, Budget::unlimited());
        let race_engine = ServiceEngine::new(
            EngineConfig {
                backend: Backend::Race,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let served = race_engine.answer(&block, &machine, Budget::unlimited());
        assert!(served.optimal && reference.optimal);
        assert_eq!(served.nops, reference.nops);
        assert_ne!(served.backend, Backend::Race, "race resolves to a side");
        let dag = DepDag::build(&block);
        verify_schedule(&block, &dag, &served.order).unwrap();
    }
}
