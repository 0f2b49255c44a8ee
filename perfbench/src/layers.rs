//! Calls into the program's layers, each inside a span and with the work
//! counts its public results expose.

use pipesched_core::{
    global_lower_bound, parallel_prove, parallel_search, prove, search, windowed_schedule_bounded,
    ParallelConfig, SchedContext, SearchConfig, SearchOutcome, SearchStats, TimingEngine,
};
use pipesched_ir::{BasicBlock, DepDag};
use pipesched_machine::Machine;
use pipesched_proof::check_certificate;
use pipesched_service::{EngineConfig, Tier};

use crate::check::{Answered, Failure};
use crate::harness::bucket;
use crate::spans::Tracer;

/// The paper's curtail point λ, used by every exact search the benchmark
/// starts itself.
pub const LAMBDA: u64 = 50_000;

/// Workers of the parallel prover (`nproc` of the reference host).
pub const PROVE_THREADS: usize = 2;

/// The serial branch-and-bound, counted.
pub fn bnb(ctx: &SchedContext<'_>, cfg: &SearchConfig, tr: &mut Tracer) -> SearchOutcome {
    let out = tr.span("core.bnb", |_| search(ctx, cfg));
    count_search(tr, &out.stats);
    out
}

fn count_search(tr: &mut Tracer, s: &SearchStats) {
    let names = [
        "bnb.calls",
        "bnb.omega",
        "bnb.nodes",
        "bnb.truncated",
        "bnb.pruned_bound",
        "bnb.pruned_legality",
        "bnb.pruned_equivalence",
        "bnb.pruned_quick",
        "bnb.pruned_symmetry",
    ];
    let values = [
        1,
        s.omega_calls,
        s.nodes_visited,
        u64::from(s.truncated),
        s.pruned_bound,
        s.pruned_legality,
        s.pruned_equivalence,
        s.pruned_quick,
        s.pruned_symmetry,
    ];
    for (n, v) in names.into_iter().zip(values) {
        tr.count(n, v as f64);
    }
}

/// Drive the timing engine over an answered order: push every placement,
/// then pop them all.
fn timing_drive(ctx: &SchedContext<'_>, answer: &Answered, tr: &mut Tracer) {
    tr.span("core.timing", |_| {
        let mut engine = TimingEngine::new(ctx);
        for &t in &answer.order {
            engine.push(t, answer.assignment[t.index()]);
        }
        std::hint::black_box(engine.total_nops());
        for _ in &answer.order {
            engine.pop();
        }
    });
    tr.count("timing.ops", 2.0 * answer.order.len() as f64);
}

/// The traced run's per-unit work, done between rounds: the unit's
/// latency as a sample of its block-size bucket, and a timing-engine drive
/// over its answered order. Nothing while `tr` is not recording.
pub fn trace_unit(
    block: &BasicBlock,
    machine: &Machine,
    latency_ns: u64,
    answer: &Answered,
    tr: &mut Tracer,
) {
    if !tr.is_on() {
        return;
    }
    tr.sample(bucket(block.len()), latency_ns as f64 / 1e3);
    let dag = DepDag::build(block);
    timing_drive(&SchedContext::new(block, &dag, machine), answer, tr);
}

/// What the engine's tier cascade gives on a cache miss, replayed from its
/// public parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replayed {
    /// NOPs of the answer.
    pub nops: u32,
    /// Tier that answers.
    pub tier: Tier,
}

/// Replay the miss path's tiers — list (`search` at λ = 1), windowed,
/// whole-block lower bound, branch-and-bound on the remaining budget —
/// with the engine's serial branch-and-bound configuration.
pub fn cascade(
    ctx: &SchedContext<'_>,
    config: &EngineConfig,
    nodes: u64,
    tr: &mut Tracer,
) -> Replayed {
    let list_cfg = SearchConfig {
        lambda: 1,
        ..SearchConfig::default()
    };
    let list = tr.span("core.list", |_| search(ctx, &list_cfg));
    tr.count("list.attempts", 1.0);
    if list.optimal {
        tr.count("list.closed", 1.0);
        return Replayed {
            nops: list.nops,
            tier: Tier::List,
        };
    }
    let mut spent = list.stats.omega_calls;
    let windowed = (ctx.len() > config.window && nodes > 1).then(|| {
        let budget = (nodes / config.windowed_share).max(1);
        let w = tr.span("core.windowed", |_| {
            windowed_schedule_bounded(ctx, config.window, budget, None)
        });
        tr.count("windowed.calls", 1.0);
        tr.count("windowed.omega", w.stats.omega_calls as f64);
        spent += w.stats.omega_calls;
        w
    });
    let lb = tr.span("core.bounds", |_| global_lower_bound(ctx));
    if let Some(w) = &windowed {
        if w.nops <= lb {
            tr.count("windowed.closed", 1.0);
            return Replayed {
                nops: w.nops,
                tier: Tier::Windowed,
            };
        }
    }
    let cfg = SearchConfig {
        lambda: nodes.saturating_sub(spent).max(1),
        ..SearchConfig::default()
    };
    let b = bnb(ctx, &cfg, tr);
    match windowed {
        Some(w) if !b.optimal && w.nops < b.nops => Replayed {
            nops: w.nops,
            tier: Tier::Windowed,
        },
        _ => Replayed {
            nops: b.nops,
            tier: Tier::Bnb,
        },
    }
}

/// Prove `ctx`'s block optimal with the work-stealing pool, merge the
/// per-worker transcripts, and check the certificate independently. A
/// λ-truncated search claims no optimality, so only a certificate of a
/// completed search must be accepted, and at the claimed NOP count.
pub fn prove_checked(
    block: &BasicBlock,
    machine: &Machine,
    ctx: &SchedContext<'_>,
    tr: &mut Tracer,
) -> (SearchOutcome, Result<(), Failure>) {
    let cfg = SearchConfig::with_lambda(LAMBDA);
    let par = ParallelConfig::with_threads(PROVE_THREADS);
    let (out, proof) = tr.span("core.parallel", |_| parallel_prove(ctx, &cfg, &par));
    let cert = tr.span("core.proof.merge", |_| proof.merge());
    let check = tr.span("proof.check", |_| check_certificate(block, machine, &cert));
    tr.count("parallel.calls", 1.0);
    tr.count("parallel.omega", out.stats.omega_calls as f64);
    tr.count("parallel.steals", out.stats.steals as f64);
    tr.count("parallel.splits", out.stats.splits as f64);
    tr.count("proof.events", cert.events.len() as f64);
    let verdict = match check.verdict {
        pipesched_proof::ProofVerdict::OptimalCertified { nops } if nops == out.nops => Ok(()),
        _ if !out.optimal => Ok(()),
        _ => Err(Failure::Proof),
    };
    tr.count("proof.rejected", f64::from(u8::from(verdict.is_err())));
    (out, verdict)
}

/// On one block, the pool against the serial kernel: the pool's Ω when
/// proving with `PROVE_THREADS` workers against serial proving, the pool at
/// one thread against the serial search, and serial proving against the
/// serial search (the cost of certificate logging).
pub fn compare_pool(ctx: &SchedContext<'_>, tr: &mut Tracer) {
    let cfg = SearchConfig::with_lambda(LAMBDA);
    let timed = |tr: &mut Tracer, name: &'static str, f: &dyn Fn() -> u64| {
        let t = std::time::Instant::now();
        let omega = tr.span(name, |_| f());
        (t.elapsed().as_nanos() as f64, omega as f64)
    };
    let (_, pool_omega) = timed(tr, "cmp.pool_prove", &|| {
        parallel_prove(ctx, &cfg, &ParallelConfig::with_threads(PROVE_THREADS))
            .0
            .stats
            .omega_calls
    });
    let (prove_ns, prove_omega) = timed(tr, "cmp.serial_prove", &|| {
        prove(ctx, &cfg).0.stats.omega_calls
    });
    let (search_ns, _) = timed(tr, "cmp.serial_search", &|| {
        search(ctx, &cfg).stats.omega_calls
    });
    let (pool1_ns, _) = timed(tr, "cmp.pool_1t", &|| {
        parallel_search(ctx, &cfg, &ParallelConfig::with_threads(1))
            .stats
            .omega_calls
    });
    for (name, v) in [
        ("cmp.pool_omega", pool_omega),
        ("cmp.prove_omega", prove_omega),
        ("cmp.prove_ns", prove_ns),
        ("cmp.search_ns", search_ns),
        ("cmp.pool1_ns", pool1_ns),
    ] {
        tr.count(name, v);
    }
}
