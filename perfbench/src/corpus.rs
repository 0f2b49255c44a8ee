//! `corpus`: the paper's Table 7 traffic. One client schedules the
//! 16,000-block corpus block after block through the serial library entry
//! point (`DepDag::build` → `SchedContext::new` → `search` at λ = 50,000),
//! in an order drawn from the seed, cycling until the time is up. NOPs,
//! optimality and the work counts are taken over the first pass, which is
//! the whole corpus, so they are exact.
//!
//! Every workload draws its blocks from this corpus at the paper's
//! generator seed; `--seed` orders them. Drawing the blocks themselves
//! from the seed made throughput and tail latency differ by 9–25% between
//! seeds, far more than run-to-run noise.

use std::time::Instant;

use pipesched_core::{SchedContext, SearchConfig};
use pipesched_ir::{BasicBlock, DepDag};
use pipesched_machine::{presets, Machine};
use pipesched_synth::CorpusSpec;

use crate::check::{check_answer, Answered};
use crate::harness::{run_rounds, Outcome, UnitCost};
use crate::layers::{self, LAMBDA};
use crate::spans::Tracer;

/// Blocks in the corpus, as in the paper.
pub const BLOCKS: usize = 16_000;

/// Generate the first `blocks` blocks of the paper's corpus, each inside a
/// `synth.generate` span.
pub fn generate(blocks: usize, tr: &mut Tracer) -> Vec<BasicBlock> {
    let spec = CorpusSpec::paper_default();
    (0..blocks)
        .map(|k| tr.span("synth.generate", |_| spec.block(k)))
        .collect()
}

/// One scheduled block of the first pass, for the determinism pins and the
/// cross-check against the paper sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    /// Instructions.
    pub size: usize,
    /// NOPs of the answer.
    pub final_nops: u32,
    /// Ω calls of the search.
    pub omega_calls: u64,
    /// Search-tree nodes.
    pub nodes: u64,
    /// Search completed (provably optimal).
    pub completed: bool,
}

struct Scheduled {
    latency_ns: u64,
    record: BlockRecord,
    answer: Answered,
}

/// Schedule `blocks` cyclically in `order` for `seconds`, and at least
/// until the first `min_units` are done, on the tracers' clients, checking
/// every answer between rounds, where a recording `checks` tracer also
/// gets [`layers::trace_unit`]. Returns the outcome and the first pass's
/// per-block records in corpus order.
pub fn phase(
    blocks: &[BasicBlock],
    order: &[usize],
    seconds: f64,
    min_units: usize,
    tracers: &mut [Tracer],
    checks: &mut Tracer,
) -> (Outcome, Vec<BlockRecord>) {
    let machine = presets::paper_simulation();
    let cfg = SearchConfig::with_lambda(LAMBDA);
    let n = blocks.len();
    let unit = |i: usize, tr: &mut Tracer| schedule(&blocks[order[i % n]], &machine, &cfg, tr);
    let mut out = Outcome::new(tracers.len(), n, UnitCost::Fastest);
    let mut first_pass = vec![None; n];
    let rounds = run_rounds(tracers, seconds, min_units, n, &unit, &mut |round| {
        for (i, r) in round {
            let s = match r {
                Ok(s) => s,
                Err(f) => {
                    out.record(Err(f));
                    continue;
                }
            };
            out.push_latency(s.latency_ns);
            let k = order[i % n];
            if i < n {
                first_pass[k] = Some(s.record);
                out.quality_units += 1;
                out.quality_nops += u64::from(s.record.final_nops);
                out.quality_optimal += u64::from(s.record.completed);
            }
            checks.set_unit(i as u64);
            layers::trace_unit(&blocks[k], &machine, s.latency_ns, &s.answer, checks);
            out.record(check_answer(&blocks[k], &machine, &s.answer, checks));
        }
    });
    out.rounds = rounds;
    (out, first_pass.into_iter().flatten().collect())
}

fn schedule(
    block: &BasicBlock,
    machine: &Machine,
    cfg: &SearchConfig,
    tr: &mut Tracer,
) -> Scheduled {
    tr.span("unit", |tr| {
        let t = Instant::now();
        let dag = tr.span("ir.dag_build", |_| DepDag::build(block));
        let ctx = tr.span("core.context", |_| SchedContext::new(block, &dag, machine));
        let out = layers::bnb(&ctx, cfg, tr);
        Scheduled {
            latency_ns: t.elapsed().as_nanos() as u64,
            record: BlockRecord {
                size: block.len(),
                final_nops: out.nops,
                omega_calls: out.stats.omega_calls,
                nodes: out.stats.nodes_visited,
                completed: out.optimal,
            },
            answer: Answered {
                order: out.order,
                assignment: out.assignment,
                etas: out.etas,
                nops: out.nops,
                optimal: out.optimal,
            },
        }
    })
}
