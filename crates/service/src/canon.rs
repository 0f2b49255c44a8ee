//! Canonical-DAG cache keys.
//!
//! Two scheduling requests deserve the same cache entry when their blocks
//! are *schedule-isomorphic*: same dependence structure, same operation
//! kinds, same pipeline binding — regardless of variable names, immediate
//! values, or tuple numbering. The NOP-minimization problem (§4.2) sees
//! nothing else, so the cache key is built from exactly that data:
//!
//! 1. every node gets an initial label from its operation kind and the
//!    pipeline units the machine allows for it (the "latency class");
//! 2. labels are refined iteratively (Weisfeiler–Leman style): each round
//!    re-hashes a node's label with the multisets of the labels of its
//!    dependence predecessors and successors, tagged with the edge kind,
//!    until the label partition stabilizes;
//! 3. nodes are sorted into a canonical order by final label, and the key
//!    hashes the labels plus every edge rewritten into canonical indices,
//!    together with the machine fingerprint.
//!
//! Iterative refinement is not a complete isomorphism test, so a key match
//! is a *candidate* only: the cache validates every hit by translating the
//! stored schedule through the canonical permutation and re-verifying it on
//! the new block (see `engine::translate_hit`). A hash collision therefore
//! costs a wasted validation, never a wrong answer.
//!
//! All hashing goes a 64-bit word at a time through one fixed mixing step
//! (a 64×64 → 128-bit multiply folded back to 64 bits). Unlike `std`'s
//! `DefaultHasher`, its output is stable across Rust releases and
//! platforms, which the on-disk cache layer relies on; changing it changes
//! every key, so the cache file's `version` goes up with it.

use pipesched_core::SchedContext;
use pipesched_ir::{DepDag, DepEdge, DepKind, Op, TupleId};
use pipesched_machine::Machine;

/// A canonical cache key: the refined structure hash, the block length,
/// and the target-machine fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonKey {
    /// Refined structure hash of the canonicalized DAG.
    pub hash: u64,
    /// Number of instructions (cheap first-line discriminator).
    pub n: u32,
    /// Fingerprint of the machine description (timing + mapping, no names).
    pub machine_fp: u64,
}

/// A block's canonical form: the key plus the permutation linking canonical
/// indices back to the block's tuple ids. The permutation is what lets a
/// schedule cached for one block be replayed on an isomorphic one.
#[derive(Debug, Clone)]
pub struct CanonForm {
    /// The cache key.
    pub key: CanonKey,
    /// `perm[c]` is the tuple occupying canonical index `c`.
    pub perm: Vec<TupleId>,
}

impl CanonForm {
    /// Inverse permutation: tuple id → canonical index.
    pub fn inverse(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.perm.len()];
        for (c, t) in self.perm.iter().enumerate() {
            inv[t.index()] = c as u32;
        }
        inv
    }
}

/// The mixing step's multiplier (2^64 / φ, odd).
const MIX_K: u64 = 0x9E37_79B9_7F4A_7C15;
/// A hash's starting state (the first 64 fraction bits of π).
const MIX_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One mixing step: `state ^ word`, multiplied by [`MIX_K`] into 128 bits
/// and folded back to 64, so every input bit reaches every output bit.
fn mix(state: u64, word: u64) -> u64 {
    let m = u128::from(state ^ word) * u128::from(MIX_K);
    (m as u64) ^ ((m >> 64) as u64)
}

/// A build-stable hash accumulated one word at a time.
#[derive(Debug, Clone, Copy)]
struct Hash(u64);

impl Hash {
    fn new() -> Self {
        Hash(MIX_SEED)
    }

    fn word(&mut self, w: u64) {
        self.0 = mix(self.0, w);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// An operation as one word: its mnemonic's bytes (at most eight),
/// little-endian, so the value does not depend on `Op`'s declaration order.
fn op_word(op: Op) -> u64 {
    let mut word = [0u8; 8];
    let m = op.mnemonic().as_bytes();
    word[..m.len()].copy_from_slice(m);
    u64::from_le_bytes(word)
}

/// Fingerprint a machine description: pipeline timing rows in id order and
/// the op → pipeline-id mapping. Pipeline *identities* (not just latency
/// classes) are hashed because structural conflicts are per-unit; names are
/// excluded so cosmetic renames don't split the cache.
pub fn machine_fingerprint(machine: &Machine) -> u64 {
    let mut h = Hash::new();
    h.word(machine.pipeline_count() as u64);
    for p in machine.pipelines() {
        h.word(u64::from(p.latency));
        h.word(u64::from(p.enqueue));
    }
    for (&op, pipes) in machine.mapping() {
        h.word(op_word(op));
        h.word(pipes.len() as u64);
        for p in pipes {
            h.word(p.index() as u64);
        }
    }
    h.finish()
}

/// An edge kind as a word to mix into an endpoint's label.
fn edge_tag(kind: DepKind) -> u64 {
    match kind {
        DepKind::Flow => 0x1319_8A2E_0370_7344,
        DepKind::Anti => 0xA409_3822_299F_31D0,
        DepKind::Output => 0x082E_FA98_EC4E_6C89,
    }
}

/// A multiset of neighbours, each one's `value` mixed with its edge's
/// tag, hashed as the sum of its members: order-free, so it needs no sort.
fn multiset(
    edges: &[DepEdge],
    end: impl Fn(&DepEdge) -> TupleId,
    value: impl Fn(usize) -> u64,
) -> u64 {
    edges
        .iter()
        .map(|e| mix(edge_tag(e.kind), value(end(e).index())))
        .fold(0, u64::wrapping_add)
}

/// Refinement over one block's DAG, with the buffers its passes reuse.
struct Refiner<'a> {
    dag: &'a DepDag,
    /// The labels a pass computes.
    next: Vec<u64>,
    /// A sorted copy of the labels, for counting classes and finding ties.
    sorted: Vec<u64>,
}

impl<'a> Refiner<'a> {
    fn new(dag: &'a DepDag, n: usize) -> Self {
        Refiner {
            dag,
            next: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n),
        }
    }

    /// Sort a copy of `labels` into `self.sorted`.
    fn sort(&mut self, labels: &[u64]) -> &[u64] {
        self.sorted.clear();
        self.sorted.extend_from_slice(labels);
        self.sorted.sort_unstable();
        &self.sorted
    }

    /// The number of distinct labels.
    fn count_distinct(&mut self, labels: &[u64]) -> usize {
        let sorted = self.sort(labels);
        1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The smallest label value shared by at least two nodes, if any.
    fn smallest_tied_label(&mut self, labels: &[u64]) -> Option<u64> {
        let sorted = self.sort(labels);
        sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    /// One Weisfeiler–Leman pass per round until the partition stops
    /// splitting: each node's label is re-hashed with the multisets of its
    /// tagged predecessor and successor labels. Once every label is
    /// distinct no pass can split further, so refinement stops there.
    fn refine(&mut self, labels: &mut Vec<u64>) {
        let n = labels.len();
        let mut classes = self.count_distinct(labels);
        while classes < n {
            self.next.clear();
            for (i, &label) in labels.iter().enumerate() {
                let t = TupleId(i as u32);
                let mut h = Hash::new();
                h.word(label);
                h.word(multiset(self.dag.preds(t), |e| e.from, |j| labels[j]));
                h.word(multiset(self.dag.succs(t), |e| e.to, |j| labels[j]));
                self.next.push(h.finish());
            }
            std::mem::swap(labels, &mut self.next);
            let next_classes = self.count_distinct(labels);
            if next_classes == classes {
                break;
            }
            classes = next_classes;
        }
    }
}

/// Compute the canonical form of `ctx`'s block on `ctx`'s machine.
pub fn canonicalize(ctx: &SchedContext<'_>) -> CanonForm {
    let machine_fp = machine_fingerprint(ctx.machine);
    let n = ctx.len();
    if n == 0 {
        return CanonForm {
            key: CanonKey {
                hash: mix(MIX_SEED, machine_fp),
                n: 0,
                machine_fp,
            },
            perm: Vec::new(),
        };
    }

    // Initial labels: op kind + the exact pipeline units allowed for it.
    // (σ is derived from `allowed`, so hashing `allowed` covers both.)
    let mut labels: Vec<u64> = (0..n)
        .map(|i| {
            let mut h = Hash::new();
            h.word(op_word(ctx.block.tuple(TupleId(i as u32)).op));
            for p in &ctx.allowed[i] {
                h.word(p.index() as u64);
            }
            h.finish()
        })
        .collect();

    // Iterative refinement until the partition stops splitting (bounded by
    // n rounds; in practice O(diameter) ≈ O(log n) rounds suffice).
    let mut refiner = Refiner::new(ctx.dag, n);
    refiner.refine(&mut labels);

    // Refinement alone cannot separate automorphic substructures (five
    // parallel Const→Store chains leave one Const class and one Store
    // class, and sorting each class independently would scramble the
    // pairing). Individualize-and-refine: while some class has ties, give
    // one member a unique mark and re-refine, which propagates the split
    // to everything reachable. The *class* is chosen by minimal label
    // value — an isomorphism-invariant choice; the *member* by original
    // id, which is canonical exactly when the tied nodes are automorphic
    // (the common case; a miss here costs a cache miss, never a wrong
    // answer, thanks to validate-on-hit).
    for round in 0..n {
        let Some(tied_label) = refiner.smallest_tied_label(&labels) else {
            break;
        };
        let pick = labels.iter().position(|&l| l == tied_label).unwrap();
        labels[pick] = mix(mix(labels[pick], 0xD15C), round as u64);
        refiner.refine(&mut labels);
    }

    // Canonical order: by the (now individually distinct, or at worst
    // orbit-consistent) refined labels, ties by original tuple id.
    let mut perm: Vec<TupleId> = (0..n as u32).map(TupleId).collect();
    perm.sort_unstable_by_key(|t| (labels[t.index()], t.0));
    let mut inv = vec![0u32; n];
    for (c, t) in perm.iter().enumerate() {
        inv[t.index()] = c as u32;
    }

    // Final hash: labels in canonical order, every edge in canonical
    // coordinates (each node's predecessors, in canonical order, as a
    // multiset of tagged canonical indices) and the machine fingerprint.
    let mut h = Hash::new();
    h.word(n as u64);
    for &t in &perm {
        h.word(labels[t.index()]);
    }
    for &t in &perm {
        h.word(multiset(
            ctx.dag.preds(t),
            |e| e.from,
            |j| u64::from(inv[j]),
        ));
    }
    h.word(machine_fp);

    CanonForm {
        key: CanonKey {
            hash: h.finish(),
            n: n as u32,
            machine_fp,
        },
        perm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn form_of(block: &pipesched_ir::BasicBlock, machine: &Machine) -> CanonForm {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, machine);
        canonicalize(&ctx)
    }

    fn chain_block(names: [&str; 3]) -> pipesched_ir::BasicBlock {
        let mut b = BlockBuilder::new("c");
        let x = b.load(names[0]);
        let y = b.load(names[1]);
        let m = b.mul(x, y);
        b.store(names[2], m);
        b.finish().unwrap()
    }

    #[test]
    fn renamed_variables_share_a_key() {
        let machine = presets::paper_simulation();
        let a = form_of(&chain_block(["x", "y", "r"]), &machine);
        let b = form_of(&chain_block(["alpha", "beta", "out"]), &machine);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn different_structure_changes_the_key() {
        let machine = presets::paper_simulation();
        let a = form_of(&chain_block(["x", "y", "r"]), &machine);
        let mut bb = BlockBuilder::new("d");
        let x = bb.load("x");
        let y = bb.load("y");
        let m = bb.add(x, y); // add instead of mul
        bb.store("r", m);
        let b = form_of(&bb.finish().unwrap(), &machine);
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn machine_changes_the_key() {
        let block = chain_block(["x", "y", "r"]);
        let a = form_of(&block, &presets::paper_simulation());
        let b = form_of(&block, &presets::deep_pipeline());
        assert_ne!(a.key, b.key);
        assert_ne!(a.key.machine_fp, b.key.machine_fp);
    }

    #[test]
    fn fingerprint_ignores_names_but_not_timing() {
        let base = presets::paper_simulation();
        let mut renamed = base.clone();
        renamed.name = "different-name".into();
        assert_eq!(machine_fingerprint(&base), machine_fingerprint(&renamed));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let machine = presets::paper_simulation();
        let form = form_of(&chain_block(["x", "y", "r"]), &machine);
        let mut seen = vec![false; form.perm.len()];
        for t in &form.perm {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        let inv = form.inverse();
        for (c, t) in form.perm.iter().enumerate() {
            assert_eq!(inv[t.index()], c as u32);
        }
    }

    #[test]
    fn empty_block_canonicalizes() {
        let machine = presets::paper_simulation();
        let block = BlockBuilder::new("e").finish().unwrap();
        let form = form_of(&block, &machine);
        assert_eq!(form.key.n, 0);
        assert!(form.perm.is_empty());
    }
}
