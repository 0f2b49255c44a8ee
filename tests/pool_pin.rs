//! Pins the one-worker pooled proof under every pruning configuration.
//!
//! A pooled proof's phase 2 settles every root candidate other than the
//! best one itself, before the worker runs the entered ones. One digest
//! folds, for corpus blocks on four presets, the one-worker
//! `parallel_prove` certificate's digest and the outcome's μ, Ω, nodes,
//! prune counts and part count, under every `EquivalenceMode` with each
//! `BoundKind`, each with the default switch-on and with `switch_on: 0`,
//! and each with and without lower-bound termination.
//! `proof_pin` covers the default, `paper_exact()` and structural
//! configurations; this covers the root dispositions of the `Off` and
//! `UnrestrictedPaper` rules and of the heads-and-tails term from the
//! first Ω as well.
//!
//! A rewrite of how phase 2 disposes of the root must leave the digest
//! unchanged. To print the current values, run
//! `PIPESCHED_PIN_PRINT=1 cargo test --test pool_pin -- --nocapture`.

use pipesched::core::{
    parallel_prove, BoundKind, EquivalenceMode, ParallelConfig, Prune, SchedContext, SearchConfig,
};
use pipesched::ir::{BasicBlock, DepDag};
use pipesched::machine::presets;
use pipesched::synth::CorpusSpec;

/// Corpus blocks proved on each preset under each configuration.
const BLOCKS: usize = 8;

/// A 64-bit FNV-1a fold over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The first `BLOCKS` corpus blocks of 8–24 instructions.
fn blocks() -> Vec<BasicBlock> {
    let spec = CorpusSpec::paper_default();
    (0..)
        .map(|k| spec.block(k))
        .filter(|b| (8..=24).contains(&b.len()))
        .take(BLOCKS)
        .collect()
}

/// Every equivalence rule with each bound, at the default switch-on and
/// from the first Ω, with and without lower-bound termination (without
/// it, part 0 never ends the proof, so every proof disposes of the root).
fn configs() -> Vec<SearchConfig> {
    let mut configs = Vec::new();
    for equivalence in [
        EquivalenceMode::Off,
        EquivalenceMode::Paper,
        EquivalenceMode::UnrestrictedPaper,
        EquivalenceMode::Structural,
    ] {
        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for switch_on in [SearchConfig::default().switch_on, 0] {
                for terminate_on_lower_bound in [true, false] {
                    configs.push(SearchConfig {
                        equivalence,
                        bound,
                        switch_on,
                        terminate_on_lower_bound,
                        ..SearchConfig::default()
                    });
                }
            }
        }
    }
    configs
}

#[test]
fn one_worker_pooled_proofs_are_pinned() {
    let blocks = blocks();
    let machines = [
        presets::paper_simulation(),
        presets::table2_example(),
        presets::deep_pipeline(),
        presets::functional_units(),
    ];
    let one = ParallelConfig::with_threads(1);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let (mut proofs, mut root_passes) = (0u64, 0u64);
    for machine in &machines {
        for block in &blocks {
            let dag = DepDag::build(block);
            let ctx = SchedContext::new(block, &dag, machine);
            for cfg in configs() {
                let (out, proof) = parallel_prove(&ctx, &cfg, &one);
                d.word(proof.merge().digest());
                d.word(u64::from(out.nops));
                d.word(out.stats.omega_calls);
                d.word(out.stats.nodes_visited);
                for rule in Prune::ALL {
                    d.word(out.stats.pruned(rule));
                }
                d.word(proof.parts.len() as u64);
                proofs += 1;
                root_passes += u64::from(proof.parts.len() > 1);
            }
        }
    }
    if std::env::var_os("PIPESCHED_PIN_PRINT").is_some() {
        println!(
            "pool digest {:#018x} over {proofs} proofs, {root_passes} with root dispositions",
            d.0
        );
    }
    assert_eq!(d.0, 0x1525_7a86_971e_1746);
}
