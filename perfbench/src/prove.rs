//! `prove_hard`: seeded corpus blocks of 24–40 instructions, each proved
//! optimal by the work-stealing pool (`parallel_prove`, 2 workers,
//! λ = 50,000) and the merged certificate checked by the independent proof
//! checker; a unit's latency covers both, as a user of
//! `pipesched prove --threads 2` waits for both. One client cycles the
//! blocks in an order drawn from the seed.

use std::time::Instant;

use pipesched_core::SchedContext;
use pipesched_ir::{BasicBlock, DepDag};
use pipesched_machine::{presets, Machine};

use crate::check::{check_answer, Answered, Failure};
use crate::harness::{run_rounds, Outcome, UnitCost};
use crate::layers;
use crate::spans::Tracer;

/// Blocks proved per pass.
pub const BLOCKS: usize = 4096;

/// Instruction range of a hard block.
pub const SIZES: std::ops::RangeInclusive<usize> = 24..=40;

/// The first [`BLOCKS`] blocks of the paper's corpus in [`SIZES`], each
/// generation inside a `synth.generate` span.
pub fn generate(tr: &mut Tracer) -> Vec<BasicBlock> {
    let spec = pipesched_synth::CorpusSpec::paper_default();
    let mut out = Vec::with_capacity(BLOCKS);
    let mut k = 0;
    while out.len() < BLOCKS {
        let block = tr.span("synth.generate", |_| spec.block(k));
        k += 1;
        if SIZES.contains(&block.len()) {
            out.push(block);
        }
    }
    out
}

struct Proved {
    latency_ns: u64,
    answer: Answered,
    verdict: Result<(), Failure>,
}

fn prove_one(block: &BasicBlock, machine: &Machine, tr: &mut Tracer) -> Proved {
    tr.span("unit", |tr| {
        let t = Instant::now();
        let dag = tr.span("ir.dag_build", |_| DepDag::build(block));
        let ctx = tr.span("core.context", |_| SchedContext::new(block, &dag, machine));
        let (out, verdict) = layers::prove_checked(block, machine, &ctx, tr);
        Proved {
            latency_ns: t.elapsed().as_nanos() as u64,
            answer: Answered {
                order: out.order,
                assignment: out.assignment,
                etas: out.etas,
                nops: out.nops,
                optimal: out.optimal,
            },
            verdict,
        }
    })
}

/// Blocks proved, unchecked, as the set-up's warm-up.
pub const WARM_UP: usize = 256;

/// Prove the first [`WARM_UP`] blocks, so the timed part starts warm.
pub fn warm_up(blocks: &[BasicBlock]) {
    let machine = presets::paper_simulation();
    for block in &blocks[..WARM_UP] {
        prove_one(block, &machine, &mut Tracer::off());
    }
}

/// Prove `blocks` cyclically in `order` for `seconds`, and at least
/// `min_units` blocks, checking every schedule between rounds, where a
/// recording `checks` tracer also gets [`layers::trace_unit`].
pub fn phase(
    blocks: &[BasicBlock],
    order: &[usize],
    seconds: f64,
    min_units: usize,
    tracers: &mut [Tracer],
    checks: &mut Tracer,
) -> Outcome {
    let machine = presets::paper_simulation();
    let n = blocks.len();
    let unit = |i: usize, tr: &mut Tracer| prove_one(&blocks[order[i % n]], &machine, tr);
    let mut out = Outcome::new(tracers.len(), n, UnitCost::Median);
    let rounds = run_rounds(tracers, seconds, min_units, n, &unit, &mut |round| {
        for (i, r) in round {
            let p = match r {
                Ok(p) => p,
                Err(f) => {
                    out.record(Err(f));
                    continue;
                }
            };
            out.push_latency(p.latency_ns);
            out.quality_units += 1;
            out.quality_nops += u64::from(p.answer.nops);
            out.quality_optimal += u64::from(p.answer.optimal);
            let block = &blocks[order[i % n]];
            checks.set_unit(i as u64);
            layers::trace_unit(block, &machine, p.latency_ns, &p.answer, checks);
            let checked = check_answer(block, &machine, &p.answer, checks);
            out.record(p.verdict.and(checked));
        }
    });
    out.rounds = rounds;
    out
}

/// Compare the pool with the serial kernel on `blocks`, in order, for
/// about `seconds` (at least one block).
pub fn compare(blocks: &[BasicBlock], seconds: f64, tr: &mut Tracer) {
    let machine = presets::paper_simulation();
    let t = Instant::now();
    for (k, block) in blocks.iter().enumerate() {
        if k > 0 && t.elapsed().as_secs_f64() >= seconds {
            break;
        }
        tr.set_unit(k as u64);
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        layers::compare_pool(&ctx, tr);
    }
}
