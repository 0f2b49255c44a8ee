//! Pins everything a search builds before its first Ω.
//!
//! One digest folds, over all 16,000 blocks of the paper's corpus on the
//! paper's machine and over the first 2,000 on every other preset:
//!
//! * the dependence DAG: every `preds(t)` and `succs(t)` list, in order,
//!   with edge kinds;
//! * the block analysis: `earliest`, `latest`, `height`, `depth` and every
//!   `depends_on` row;
//! * the scheduling context: `sigma`, `allowed`, the preprocessed
//!   predecessor lists and `free_class`;
//! * the list schedule, the seed's μ and `global_lower_bound`.
//!
//! A rewrite of how the DAG, the analysis, the context or the seed are
//! built must leave this digest unchanged: the value below was captured
//! before the set-up was made flat. Only the accessor calls here may
//! follow a renamed API.

use pipesched::core::{
    global_lower_bound, list_schedule, seed_incumbent, BoundaryState, InitialHeuristic,
    SchedContext,
};
use pipesched::ir::{BasicBlock, BlockAnalysis, DepDag, DepKind, TupleId};
use pipesched::machine::{presets, Machine};
use pipesched::synth::CorpusSpec;

/// Blocks of the corpus, all of which run on the paper's machine.
const CORPUS: usize = 16_000;

/// Blocks each other preset runs.
const PER_PRESET: usize = 2_000;

/// A 64-bit FNV-1a fold over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn kind(&mut self, k: DepKind) {
        self.word(match k {
            DepKind::Flow => 1,
            DepKind::Anti => 2,
            DepKind::Output => 3,
        });
    }
}

/// The machine-independent part: DAG and analysis.
fn fold_block(d: &mut Digest, block: &BasicBlock, dag: &DepDag, analysis: &BlockAnalysis) {
    let n = block.len();
    d.word(n as u64);
    for t in block.ids() {
        d.word(dag.preds(t).len() as u64);
        for e in dag.preds(t) {
            d.word(u64::from(e.from.0) << 32 | u64::from(e.to.0));
            d.kind(e.kind);
        }
        d.word(dag.succs(t).len() as u64);
        for e in dag.succs(t) {
            d.word(u64::from(e.from.0) << 32 | u64::from(e.to.0));
            d.kind(e.kind);
        }
    }
    for t in block.ids() {
        d.word(u64::from(analysis.earliest(t)));
        d.word(u64::from(analysis.latest(t)));
        d.word(u64::from(analysis.height(t)));
        d.word(u64::from(analysis.depth(t)));
        let mut row = 0u64;
        for b in 0..n {
            if b > 0 && b % 64 == 0 {
                d.word(row);
                row = 0;
            }
            row |= u64::from(analysis.depends_on(t, TupleId(b as u32))) << (b % 64);
        }
        d.word(row);
    }
}

/// The machine-bound part: context, list schedule, seed and bound.
fn fold_context(d: &mut Digest, ctx: &SchedContext<'_>, machine: &Machine) {
    let n = ctx.len();
    for i in 0..n {
        d.word(ctx.sigma[i].map_or(u64::MAX, |p| u64::from(p.0)));
        d.word(ctx.allowed[i].len() as u64);
        for p in ctx.allowed[i].iter() {
            d.word(u64::from(p.0));
        }
        d.word(ctx.preds[i].len() as u64);
        for p in ctx.preds[i].iter() {
            d.word(u64::from(p.from) << 1 | u64::from(p.flow));
        }
        d.word(ctx.free_class[i].map_or(u64::MAX, u64::from));
    }
    for t in list_schedule(ctx.dag, &ctx.analysis) {
        d.word(u64::from(t.0));
    }
    let cold = BoundaryState::cold(machine.pipeline_count());
    let seed = seed_incumbent(ctx, InitialHeuristic::MaxDistance, &cold, false);
    d.word(u64::from(seed.nops));
    d.word(u64::from(global_lower_bound(ctx)));
}

#[test]
fn set_up_is_pinned_on_the_corpus_and_every_preset() {
    let spec = CorpusSpec::paper_default();
    let paper = presets::paper_simulation();
    let others: Vec<Machine> = presets::all_presets()
        .into_iter()
        .filter(|m| m.name != paper.name)
        .collect();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for k in 0..CORPUS {
        let block = spec.block(k);
        let dag = DepDag::build(&block);
        fold_block(&mut d, &block, &dag, &BlockAnalysis::compute(&dag));
        fold_context(&mut d, &SchedContext::new(&block, &dag, &paper), &paper);
        if k < PER_PRESET {
            for machine in &others {
                fold_context(&mut d, &SchedContext::new(&block, &dag, machine), machine);
            }
        }
    }
    println!("setup digest {:#018x}", d.0);
    assert_eq!(d.0, 0x05c7_6f3f_cda9_04ea);
}
