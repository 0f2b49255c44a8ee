//! The dependence DAG embedded in a basic block.
//!
//! Paper definition 2: `ρ(ζ)` is the set of immediate predecessors of `ζ` in
//! the DAG. Two sources of edges exist:
//!
//! * **value (flow) dependences** — a tuple operand references the result of
//!   an earlier tuple;
//! * **variable (memory) dependences** — loads and stores of the same
//!   variable must keep their relative order. A `Load` depends on the most
//!   recent preceding `Store` of the same variable (memory flow); a `Store`
//!   depends on the most recent preceding `Store` (output) and on every
//!   `Load` of the variable since that store (anti).
//!
//! The paper's synthetic workloads assume variable names are unambiguous and
//! mutually exclusive (§3.1), so no aliasing analysis is needed here.

use crate::block::BasicBlock;
use crate::op::Op;
use crate::tuple::TupleId;

/// The kind of a dependence edge, which determines the delay it induces.
///
/// A *flow* dependence makes the consumer wait for the producer's pipeline
/// **latency** (the value must exist). *Anti* and *output* dependences only
/// constrain issue order: the later instruction must issue at least one
/// cycle after the earlier one. This distinction matters because applying
/// full latency to anti edges would overconstrain schedules the paper's
/// model permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True (value or memory) flow dependence: consumer reads producer's result.
    Flow,
    /// Write-after-read on the same variable.
    Anti,
    /// Write-after-write on the same variable.
    Output,
}

/// One dependence edge `from → to` (`to` depends on `from`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// The producing (earlier) tuple.
    pub from: TupleId,
    /// The consuming (later) tuple.
    pub to: TupleId,
    /// Edge kind.
    pub kind: DepKind,
}

/// Materialized dependence DAG for one basic block.
///
/// The edges live in one flat array, offset-indexed: the predecessor
/// lists of tuples `0..n` in order, then their successor lists. `at[i]`
/// is where tuple `i`'s predecessors start and `at[n + 1 + i]` where its
/// successors start, so either list is one slice and the whole DAG is two
/// allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDag {
    n: usize,
    /// Start of each list in `edges`: `n + 1` predecessor offsets, then
    /// `n + 1` successor offsets.
    at: Vec<u32>,
    /// Every edge twice: grouped by consumer, then by producer.
    edges: Vec<DepEdge>,
}

/// Marks "no tuple" in the build's scratch lists.
const NONE: u32 = u32::MAX;

impl DepDag {
    /// Build the DAG for `block`.
    ///
    /// A tuple's predecessors are its operand references in operand order,
    /// then its memory dependences; each producer's successors are its
    /// value consumers in program order, then its memory consumers in
    /// program order.
    pub fn build(block: &BasicBlock) -> Self {
        let n = block.len();
        let nvars = block.symbols().len();
        // At most: each operand reference, one memory edge from the last
        // store of a loaded or stored variable, and one anti edge per load
        // (a load is "since the last store" for one store only).
        let most: usize = block
            .tuples()
            .iter()
            .map(|t| {
                t.tuple_refs().count()
                    + match t.op {
                        Op::Load => 2,
                        Op::Store => 1,
                        _ => 0,
                    }
            })
            .sum();
        let mut edges: Vec<DepEdge> = Vec::with_capacity(2 * most);
        // `at`, then the build's scratch in the same allocation: per
        // variable its last store and its newest load since that store;
        // per tuple the previous such load of its variable, then how many
        // of its predecessors are operand references.
        let mut at = vec![NONE; (2 * n + 2) + 2 * nvars + 2 * n];
        let (offsets, scratch) = at.split_at_mut(2 * n + 2);
        let (last_store, rest) = scratch.split_at_mut(nvars);
        let (last_load, rest) = rest.split_at_mut(nvars);
        let (prev_load, value_preds) = rest.split_at_mut(n);

        for t in block.tuples() {
            let start = edges.len();
            offsets[t.id.index()] = start as u32;
            for target in t.tuple_refs() {
                add(&mut edges, start, target, t.id, DepKind::Flow);
            }
            value_preds[t.id.index()] = (edges.len() - start) as u32;
            // Variable dependences: per variable, the last store and the
            // loads issued since that store.
            match t.op {
                Op::Load => {
                    let v = t.a.as_var().expect("verified block").0 as usize;
                    if last_store[v] != NONE {
                        add(
                            &mut edges,
                            start,
                            TupleId(last_store[v]),
                            t.id,
                            DepKind::Flow,
                        );
                    }
                    prev_load[t.id.index()] = last_load[v];
                    last_load[v] = t.id.0;
                }
                Op::Store => {
                    let v = t.a.as_var().expect("verified block").0 as usize;
                    if last_store[v] != NONE {
                        add(
                            &mut edges,
                            start,
                            TupleId(last_store[v]),
                            t.id,
                            DepKind::Output,
                        );
                    }
                    // The loads come newest first; the anti edges go in
                    // program order.
                    let anti = edges.len();
                    let mut l = last_load[v];
                    while l != NONE {
                        add(&mut edges, start, TupleId(l), t.id, DepKind::Anti);
                        l = prev_load[l as usize];
                    }
                    edges[anti..].reverse();
                    last_load[v] = NONE;
                    last_store[v] = t.id.0;
                }
                _ => {}
            }
        }
        let count = edges.len();
        offsets[n] = count as u32;

        // Successor lists by a stable counting sort on the producer, in
        // two sweeps: value edges, then memory edges.
        let cursor = prev_load;
        cursor.fill(0);
        for e in &edges {
            cursor[e.from.index()] += 1;
        }
        let mut next = count as u32;
        for (c, slot) in cursor.iter_mut().zip(&mut offsets[n + 1..]) {
            *slot = next;
            next += *c;
            *c = next - *c;
        }
        offsets[2 * n + 1] = next;
        edges.resize(
            2 * count,
            DepEdge {
                from: TupleId(0),
                to: TupleId(0),
                kind: DepKind::Flow,
            },
        );
        for value in [true, false] {
            for i in 0..n {
                let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                let split = lo + value_preds[i] as usize;
                let range = if value { lo..split } else { split..hi };
                for k in range {
                    let e = edges[k];
                    let slot = &mut cursor[e.from.index()];
                    edges[*slot as usize] = e;
                    *slot += 1;
                }
            }
        }
        at.truncate(2 * n + 2);

        DepDag { n, at, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty DAG.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Where `t`'s predecessor edges sit in [`DepDag::edges`]: a list
    /// indexed the same way holds one entry per edge of the DAG.
    pub fn pred_span(&self, t: TupleId) -> std::ops::Range<usize> {
        self.at[t.index()] as usize..self.at[t.index() + 1] as usize
    }

    /// Immediate predecessors (ρ) of `t`.
    pub fn preds(&self, t: TupleId) -> &[DepEdge] {
        &self.edges[self.pred_span(t)]
    }

    /// Immediate successors of `t`.
    pub fn succs(&self, t: TupleId) -> &[DepEdge] {
        let i = self.n + 1 + t.index();
        &self.edges[self.at[i] as usize..self.at[i + 1] as usize]
    }

    /// True when `t` has no predecessors (a DAG source).
    pub fn is_source(&self, t: TupleId) -> bool {
        self.preds(t).is_empty()
    }

    /// True when `t` has no successors (a DAG sink).
    pub fn is_sink(&self, t: TupleId) -> bool {
        self.succs(t).is_empty()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.at[self.n] as usize
    }

    /// Iterate over all edges, grouped by consumer in program order.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        self.edges[..self.edge_count()].iter().copied()
    }
}

/// Add `from → to` to the predecessors of `to`, which start at `start`.
/// Duplicate endpoints keep one edge of the strongest kind (Flow, then
/// Output, then Anti), since Flow subsumes the ordering constraint the
/// others impose.
fn add(edges: &mut Vec<DepEdge>, start: usize, from: TupleId, to: TupleId, kind: DepKind) {
    debug_assert!(from.index() < to.index(), "edges must point forward");
    if let Some(existing) = edges[start..].iter_mut().find(|e| e.from == from) {
        if rank(kind) > rank(existing.kind) {
            existing.kind = kind;
        }
        return;
    }
    edges.push(DepEdge { from, to, kind });
}

fn rank(kind: DepKind) -> u8 {
    match kind {
        DepKind::Flow => 2,
        DepKind::Output => 1,
        DepKind::Anti => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;

    fn fig3() -> BasicBlock {
        let mut b = BlockBuilder::new("fig3");
        let c = b.constant(15);
        b.store("b", c);
        let a = b.load("a");
        let m = b.mul(c, a);
        b.store("a", m);
        b.finish().unwrap()
    }

    #[test]
    fn figure3_dependences() {
        let bb = fig3();
        let dag = DepDag::build(&bb);
        // Tuple 2 (Store b) depends on tuple 1 (Const).
        assert!(dag
            .preds(TupleId(1))
            .iter()
            .any(|e| e.from == TupleId(0) && e.kind == DepKind::Flow));
        // Tuple 4 (Mul) depends on tuples 1 and 3.
        let mul_preds: Vec<_> = dag.preds(TupleId(3)).iter().map(|e| e.from).collect();
        assert!(mul_preds.contains(&TupleId(0)));
        assert!(mul_preds.contains(&TupleId(2)));
        // Tuple 5 (Store a) depends on Mul (flow) and on Load a (anti).
        let store_preds = dag.preds(TupleId(4));
        assert!(store_preds
            .iter()
            .any(|e| e.from == TupleId(3) && e.kind == DepKind::Flow));
        assert!(store_preds
            .iter()
            .any(|e| e.from == TupleId(2) && e.kind == DepKind::Anti));
        assert!(dag.is_source(TupleId(0)));
        assert!(dag.is_sink(TupleId(4)));
    }

    #[test]
    fn load_after_store_is_memory_flow() {
        let mut b = BlockBuilder::new("las");
        let c = b.constant(1);
        b.store("x", c);
        b.load("x");
        let bb = b.finish().unwrap();
        let dag = DepDag::build(&bb);
        assert!(dag
            .preds(TupleId(2))
            .iter()
            .any(|e| e.from == TupleId(1) && e.kind == DepKind::Flow));
    }

    #[test]
    fn store_after_store_is_output() {
        let mut b = BlockBuilder::new("sas");
        let c1 = b.constant(1);
        b.store("x", c1);
        let c2 = b.constant(2);
        b.store("x", c2);
        let bb = b.finish().unwrap();
        let dag = DepDag::build(&bb);
        assert!(dag
            .preds(TupleId(3))
            .iter()
            .any(|e| e.from == TupleId(1) && e.kind == DepKind::Output));
    }

    #[test]
    fn independent_loads_have_no_edges() {
        let mut b = BlockBuilder::new("ind");
        b.load("x");
        b.load("y");
        let bb = b.finish().unwrap();
        let dag = DepDag::build(&bb);
        assert_eq!(dag.edge_count(), 0);
        assert!(dag.is_source(TupleId(1)));
    }

    #[test]
    fn duplicate_edges_keep_strongest_kind() {
        // Store x, then Load x, then Store x again: the second store has an
        // anti edge from the load and an output edge from the first store.
        // Additionally give the second store the load's value so a Flow edge
        // coincides with the Anti edge — Flow must win.
        let mut b = BlockBuilder::new("dup");
        let c = b.constant(1);
        b.store("x", c);
        let l = b.load("x");
        b.store("x", l);
        let bb = b.finish().unwrap();
        let dag = DepDag::build(&bb);
        let edges: Vec<_> = dag.preds(TupleId(3)).to_vec();
        let from_load: Vec<_> = edges.iter().filter(|e| e.from == TupleId(2)).collect();
        assert_eq!(from_load.len(), 1, "no duplicate edges: {edges:?}");
        assert_eq!(from_load[0].kind, DepKind::Flow);
    }

    #[test]
    fn edge_count_and_iteration_agree() {
        let bb = fig3();
        let dag = DepDag::build(&bb);
        assert_eq!(dag.edges().count(), dag.edge_count());
    }
}
