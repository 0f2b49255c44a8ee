//! The list-scheduling heuristic that seeds the search (§3.2).
//!
//! The paper uses the heuristic of \[ZaD90\] to "arrange the tuples into a
//! sequential order so that the distance between each instruction and the
//! instructions that depend on it is as large as possible", and stresses
//! (§4.1) that the list scheduler does **not** look at the pipeline tables —
//! the initial schedule is machine-independent.
//!
//! We realize that objective as greedy highest-first topological ordering:
//! at each position pick the ready instruction with the greatest *height*
//! (longest chain of dependents below it). Scheduling tall instructions
//! early pushes their consumers as far away as possible. Ties are broken by
//! the number of immediate successors (more consumers ⇒ earlier), then by
//! original program position (for determinism).
//!
//! The three criteria pack into one integer per instruction, taken when
//! it becomes ready, so picking the next instruction compares integers
//! and reads nothing else.

use pipesched_ir::{BlockAnalysis, DepDag, TupleId};

/// Bits of each packed field: a block has fewer than `2^ID_BITS`
/// instructions, so heights, successor counts and ids all fit.
const ID_BITS: u32 = 21;

/// Compute the machine-independent initial schedule for `dag`.
///
/// Returns a legal topological order of all instructions.
pub fn list_schedule(dag: &DepDag, analysis: &BlockAnalysis) -> Vec<TupleId> {
    let n = dag.len();
    assert!(n < 1 << ID_BITS, "a block of {n} instructions");
    let mask = (1u64 << ID_BITS) - 1;
    // Height, then successor count, then the earlier instruction.
    let key = |t: TupleId| {
        u64::from(analysis.height(t)) << (2 * ID_BITS)
            | (dag.succs(t).len() as u64) << ID_BITS
            | (mask - u64::from(t.0))
    };
    // `work[..n]`: unplaced predecessors per instruction; past it, the
    // keys of the ready instructions.
    let mut work: Vec<u64> = Vec::with_capacity(2 * n);
    work.extend((0..n as u32).map(|i| dag.preds(TupleId(i)).len() as u64));
    for i in 0..n as u32 {
        if work[i as usize] == 0 {
            work.push(key(TupleId(i)));
        }
    }
    let mut order = Vec::with_capacity(n);
    while work.len() > n {
        let mut pos = n;
        for (i, &k) in work.iter().enumerate().skip(n + 1) {
            if k > work[pos] {
                pos = i;
            }
        }
        let t = TupleId((mask - (work.swap_remove(pos) & mask)) as u32);
        order.push(t);
        for e in dag.succs(t) {
            let c = &mut work[e.to.index()];
            *c -= 1;
            if *c == 0 {
                work.push(key(e.to));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "DAG must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{analysis::verify_schedule, BlockBuilder};

    #[test]
    fn produces_legal_schedule() {
        let mut b = BlockBuilder::new("ls");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        let c = b.load("c");
        let m = b.mul(s, c);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        let order = list_schedule(&dag, &analysis);
        verify_schedule(&block, &dag, &order).unwrap();
    }

    #[test]
    fn tall_chains_start_first() {
        // Chain: a -> b -> c -> store (height 3 at a)
        // Plus an independent load "solo" (height 1: store).
        let mut b = BlockBuilder::new("tall");
        let a = b.load("a");
        let n1 = b.neg(a);
        let n2 = b.neg(n1);
        b.store("r", n2);
        let solo = b.load("solo");
        b.store("s", solo);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        let order = list_schedule(&dag, &analysis);
        assert_eq!(order[0], a, "tallest ready node first: {order:?}");
    }

    #[test]
    fn separates_producer_from_consumer() {
        // load a; neg a; load b; neg b — heights equal; the heuristic should
        // still interleave rather than keep producer/consumer adjacent,
        // because after scheduling `load a` the ready node with max height
        // is `load b` (height 1... both negs have height 1 via store).
        let mut b = BlockBuilder::new("sep");
        let a = b.load("a");
        let na = b.neg(a);
        b.store("ra", na);
        let bb_ = b.load("b");
        let nb = b.neg(bb_);
        b.store("rb", nb);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        let order = list_schedule(&dag, &analysis);
        let pos = |t: TupleId| order.iter().position(|&x| x == t).unwrap();
        // Both loads precede both negs: producers are maximally separated
        // from their consumers.
        assert!(pos(a) < pos(na));
        assert!(pos(bb_) < pos(nb));
        assert!(
            pos(bb_) < pos(na) || pos(a) < pos(nb),
            "loads interleave ahead of negs: {order:?}"
        );
    }

    #[test]
    fn deterministic() {
        let mut b = BlockBuilder::new("det");
        for name in ["a", "b", "c", "d"] {
            let l = b.load(name);
            b.store(&format!("s{name}"), l);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        let o1 = list_schedule(&dag, &analysis);
        let o2 = list_schedule(&dag, &analysis);
        assert_eq!(o1, o2);
    }

    #[test]
    fn empty_dag() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        assert!(list_schedule(&dag, &analysis).is_empty());
    }
}
