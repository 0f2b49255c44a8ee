//! Pins the partition canonical keys induce on the paper's corpus.
//!
//! The serve_miss benchmark serves the first 8,192 corpus blocks whose
//! keys on the paper's machine are pairwise distinct. Which blocks those
//! are, and how far into the corpus the scan runs, depend only on which
//! blocks share a key, not on the key values, so these pins hold across
//! a change of the key's hash function exactly when the partition stays
//! the same (and with it the benchmark's traffic). The scan reads 9,000
//! blocks, a little past the 8,457 the benchmark needs.

use std::collections::HashSet;

use pipesched_core::SchedContext;
use pipesched_ir::DepDag;
use pipesched_machine::presets;
use pipesched_service::canonicalize;
use pipesched_synth::CorpusSpec;

/// Over the first `blocks` corpus blocks: how many blocks the scan takes
/// to reach `wanted` pairwise-distinct keys, an FNV-1a digest of the
/// indices of those `wanted` blocks, and the number of key classes.
fn scan(blocks: usize, wanted: usize) -> (usize, u64, usize) {
    let spec = CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let mut seen = HashSet::new();
    let (mut reached, mut digest) = (0, 0xcbf2_9ce4_8422_2325u64);
    for k in 0..blocks {
        let block = spec.block(k);
        let dag = DepDag::build(&block);
        let key = canonicalize(&SchedContext::new(&block, &dag, &machine)).key;
        if seen.insert(key) && seen.len() <= wanted {
            for b in (k as u64).to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            reached = k + 1;
        }
    }
    (reached, digest, seen.len())
}

#[test]
fn serve_miss_traffic_keeps_its_blocks() {
    assert_eq!(scan(9_000, 8_192), (8_457, 0x316b_74cc_f46b_9ceb, 8_720));
}
