//! `serve_miss`: NDJSON request lines through `parse_request` →
//! `ServiceEngine::answer` → `response_json`, from two closed-loop
//! clients, with the default engine configuration and the serve command's
//! default cache (1,024 entries over 8 shards). The clients cycle 8,192
//! distinct corpus blocks (no two isomorphic), eight times the cache
//! capacity, in an order drawn from the seed, renaming every request's
//! variables, so every request misses and pays the whole tier cascade plus
//! a cache insert and, once the cache is full, an eviction.
//!
//! A traced run decomposes each request right after its timed part, on the
//! same thread: it replays the engine's work from the engine's public parts
//! on the same block — DAG, context, canonical key, a lookup in a shadow
//! cache fed the same inserts, and on a miss the tier cascade and the
//! insert — and checks that the replay reproduces the answer's NOPs and
//! tier. The engine under test is only read through its answers and
//! counters.

use std::collections::HashSet;
use std::time::Instant;

use pipesched_core::SchedContext;
use pipesched_ir::{BasicBlock, DepDag};
use pipesched_json::json_object;
use pipesched_machine::{presets, Machine};
use pipesched_service::{
    canonicalize, parse_request, response_json, Answer, CacheEntry, EngineConfig, ScheduleCache,
    ServiceEngine, Tier,
};

use crate::check::{check_answer, Answered, Failure};
use crate::harness::{run_rounds, Outcome, UnitCost};
use crate::layers;
use crate::spans::Tracer;
use crate::stats::shuffled;

/// The machine preset every request names.
pub const PRESET: &str = "paper-simulation";

/// Cache entries and shards (the serve command's defaults).
pub const CACHE_CAPACITY: usize = 1024;
/// See [`CACHE_CAPACITY`].
pub const CACHE_SHARDS: usize = 8;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Distinct blocks served per pass.
pub const BLOCKS: usize = 8 * CACHE_CAPACITY;

/// Generated traffic: the blocks and the request stream over them.
#[derive(Debug)]
pub struct Traffic {
    /// The benchmark's own copy of each block, for checking.
    pub blocks: Vec<BasicBlock>,
    /// `(block, NDJSON line)` per request, cycled.
    pub stream: Vec<(usize, String)>,
}

/// The first `count` blocks of the paper's corpus that are pairwise not
/// isomorphic (by canonical key on the paper's machine), in corpus order,
/// each generation inside a `synth.generate` span.
pub fn distinct_blocks(count: usize, tr: &mut Tracer) -> Vec<BasicBlock> {
    let spec = pipesched_synth::CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut k = 0;
    while out.len() < count {
        let block = tr.span("synth.generate", |_| spec.block(k));
        k += 1;
        let dag = DepDag::build(&block);
        if seen.insert(canonicalize(&SchedContext::new(&block, &dag, &machine)).key) {
            out.push(block);
        }
    }
    out
}

fn request_line(id: usize, block: &BasicBlock) -> String {
    // Rename every variable so each request is textually new.
    let text = block.to_string().replace('#', &format!("#r{id}_"));
    json_object![
        ("id", id as i64),
        ("block", text.as_str()),
        ("machine", PRESET),
    ]
    .to_compact()
}

impl Traffic {
    /// Generate the traffic from `seed`.
    pub fn generate(seed: u64, tr: &mut Tracer) -> Traffic {
        let blocks = distinct_blocks(BLOCKS, tr);
        let stream = shuffled(blocks.len(), seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, request_line(i, &blocks[k])))
            .collect();
        Traffic { blocks, stream }
    }
}

/// The engine under test: the default configuration (50,000-node budget,
/// window 12, branch-and-bound on one thread, no proofs) and the serve
/// command's default cache.
pub fn engine() -> ServiceEngine {
    let config = EngineConfig {
        verify_opt: false,
        ..EngineConfig::default()
    };
    ServiceEngine::new(config, CACHE_CAPACITY, CACHE_SHARDS)
}

/// An empty cache shaped like the engine's, for the traced replay.
pub fn shadow_cache() -> ScheduleCache {
    ScheduleCache::new(CACHE_CAPACITY, CACHE_SHARDS)
}

struct Served {
    latency_ns: u64,
    answer: Answer,
}

/// One request through the service path. With a recording tracer, the
/// engine's work is then replayed against `shadow` on the same thread,
/// after the timed part, and a replay that disagrees is counted.
fn request(
    engine: &ServiceEngine,
    shadow: &ScheduleCache,
    line: &str,
    tr: &mut Tracer,
) -> Result<Served, Failure> {
    tr.span("unit", |tr| {
        let t = Instant::now();
        let req = tr
            .span("service.request.parse", |_| parse_request(line))
            .map_err(|_| Failure::Error)?;
        let budget = req.budget(engine.config().default_nodes, t);
        let answer = tr.span("service.engine.answer", |_| {
            engine.answer(&req.block, &req.machine, budget)
        });
        let micros = t.elapsed().as_micros() as u64;
        let line = tr.span("service.request.respond", |_| {
            response_json(req.id, &answer, micros, None).to_compact()
        });
        std::hint::black_box(line);
        let latency_ns = t.elapsed().as_nanos() as u64;
        if tr.is_on() {
            let config = engine.config();
            let same = replay(config, shadow, &req.block, &req.machine, &answer, tr);
            tr.count("bench.trace_mismatches", f64::from(u8::from(!same)));
        }
        Ok(Served { latency_ns, answer })
    })
}

/// Replay an answer's engine work from the engine's public parts, inside a
/// `unit.replay` span whose children are the sub-layer calls, and report
/// whether the replay reproduces the answer's NOPs and tier. Whether it
/// hit is the answer's verdict; the lookup is timed on `shadow`.
pub fn replay(
    config: &EngineConfig,
    shadow: &ScheduleCache,
    block: &BasicBlock,
    machine: &Machine,
    answer: &Answer,
    tr: &mut Tracer,
) -> bool {
    tr.count("cache.lookups", 1.0);
    tr.count("cache.hits", f64::from(u8::from(answer.cache_hit)));
    for (name, tier) in [
        ("tier.cache", Tier::Cache),
        ("tier.list", Tier::List),
        ("tier.windowed", Tier::Windowed),
        ("tier.bnb", Tier::Bnb),
    ] {
        tr.count(name, f64::from(u8::from(answer.tier == tier)));
    }
    let nodes = config.default_nodes.max(1);
    tr.span("unit.replay", |tr| {
        let dag = tr.span("ir.dag_build", |_| DepDag::build(block));
        let ctx = tr.span("core.context", |_| SchedContext::new(block, &dag, machine));
        let form = tr.span("service.canon", |_| canonicalize(&ctx));
        let cached = tr.span("service.cache.get", |_| shadow.get(&form.key, nodes));
        if answer.cache_hit {
            return answer.tier == Tier::Cache && cached.is_some_and(|e| e.nops == answer.nops);
        }
        let replayed = layers::cascade(&ctx, config, nodes, tr);
        // The entry the engine stores for a miss, in canonical numbering.
        let inv = form.inverse();
        let mut assignment_c = vec![u32::MAX; form.perm.len()];
        for (id, p) in answer.assignment.iter().enumerate() {
            assignment_c[inv[id] as usize] = p.map_or(u32::MAX, |p| p.index() as u32);
        }
        let entry = CacheEntry {
            order_c: answer.order.iter().map(|t| inv[t.index()]).collect(),
            assignment_c,
            etas: answer.etas.clone(),
            nops: answer.nops,
            optimal: answer.optimal,
            budget_nodes: if answer.optimal { u64::MAX } else { nodes },
            tier: answer.tier,
            backend: answer.backend,
            proof_digest: answer.proof_digest,
        };
        tr.span("service.cache.insert", |_| shadow.insert(form.key, entry));
        replayed.nops == answer.nops && replayed.tier == answer.tier
    })
}

/// Serve the traffic for `seconds`, and at least `min_units` requests, on
/// `engine` from [`CLIENTS`] clients, checking every answer between
/// rounds. With recording tracers, each request is also replayed against
/// `shadow` after its timed part and traced by [`layers::trace_unit`]
/// between rounds, and the engine's evictions are noted.
pub fn phase(
    traffic: &Traffic,
    engine: &ServiceEngine,
    shadow: &ScheduleCache,
    seconds: f64,
    min_units: usize,
    tracers: &mut [Tracer],
    checks: &mut Tracer,
) -> Outcome {
    let machine = presets::paper_simulation();
    let evictions = engine.cache().evictions();
    let n = traffic.stream.len();
    let unit = |i: usize, tr: &mut Tracer| request(engine, shadow, &traffic.stream[i % n].1, tr);
    let mut out = Outcome::new(tracers.len(), n, UnitCost::Fastest);
    let rounds = run_rounds(tracers, seconds, min_units, n, &unit, &mut |round| {
        for (i, r) in round {
            let s = match r.and_then(|s| s) {
                Ok(s) => s,
                Err(f) => {
                    out.record(Err(f));
                    continue;
                }
            };
            out.push_latency(s.latency_ns);
            out.quality_units += 1;
            out.quality_nops += u64::from(s.answer.nops);
            out.quality_optimal += u64::from(s.answer.optimal);
            let block = &traffic.blocks[traffic.stream[i % n].0];
            let answer = Answered {
                order: s.answer.order,
                assignment: s.answer.assignment,
                etas: s.answer.etas,
                nops: s.answer.nops,
                optimal: s.answer.optimal,
            };
            checks.set_unit(i as u64);
            layers::trace_unit(block, &machine, s.latency_ns, &answer, checks);
            out.record(check_answer(block, &machine, &answer, checks));
        }
    });
    out.rounds = rounds;
    checks.count(
        "cache.evictions",
        (engine.cache().evictions() - evictions) as f64,
    );
    out
}
