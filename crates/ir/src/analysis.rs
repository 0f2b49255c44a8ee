//! Dependence analyses: transitive closure, `earliest`/`latest` bounds,
//! heights, and schedule legality checking.

use crate::block::BasicBlock;
use crate::dag::DepDag;
use crate::error::IrError;
use crate::tuple::TupleId;

/// Precomputed per-block analysis results used by the schedulers.
///
/// * `earliest(ζ)` (paper def. 6) — the minimum number of instructions that
///   must execute before `ζ`: the size of `ζ`'s ancestor set.
/// * `latest(ζ)` (paper def. 7) — the maximum number of instructions that
///   could execute before `ζ`: `|Π| - 1 - |descendants(ζ)|`.
/// * `height(ζ)` — the number of instructions on the longest dependence
///   chain strictly below `ζ` (0 for sinks). This is the machine-independent
///   priority the list scheduler uses (§3.2: keep producers as far from
///   their consumers as possible).
#[derive(Debug, Clone)]
pub struct BlockAnalysis {
    n: usize,
    /// The ancestor closure as one bit matrix: row `i`, the `words` words
    /// from `i * words`, holds the ancestors of tuple `i`.
    ancestors: Vec<u64>,
    words: usize,
    /// `earliest`, `latest`, `height` and `depth`, `n` entries each, in
    /// that order.
    levels: Vec<u32>,
}

impl BlockAnalysis {
    /// Compute all analyses for `dag`: two allocations, the closure and
    /// the levels.
    ///
    /// Tuples appear in program order, and all edges point forward, so a
    /// single left-to-right pass computes ancestor closures and depths,
    /// and a right-to-left pass descendant closures and heights. The
    /// descendant rows share the closure's allocation and are dropped
    /// once `latest` is counted.
    pub fn compute(dag: &DepDag) -> Self {
        let n = dag.len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; 2 * n * words];
        let mut levels = vec![0u32; 4 * n];
        let (earliest, rest) = levels.split_at_mut(n);
        let (latest, rest) = rest.split_at_mut(n);
        let (height, depth) = rest.split_at_mut(n);
        let (ancestors, descendants) = rows.split_at_mut(n * words);
        for i in 0..n {
            let (done, rest) = ancestors.split_at_mut(i * words);
            let row = &mut rest[..words];
            for e in dag.preds(TupleId(i as u32)) {
                let j = e.from.index();
                row[j / 64] |= 1 << (j % 64);
                for (w, d) in row.iter_mut().zip(&done[j * words..(j + 1) * words]) {
                    *w |= d;
                }
                depth[i] = depth[i].max(depth[j] + 1);
            }
            earliest[i] = row.iter().map(|w| w.count_ones()).sum();
        }
        for i in (0..n).rev() {
            let (rest, done) = descendants.split_at_mut((i + 1) * words);
            let row = &mut rest[i * words..];
            for e in dag.succs(TupleId(i as u32)) {
                let j = e.to.index();
                row[j / 64] |= 1 << (j % 64);
                let at = (j - i - 1) * words;
                for (w, d) in row.iter_mut().zip(&done[at..at + words]) {
                    *w |= d;
                }
                height[i] = height[i].max(height[j] + 1);
            }
            latest[i] = (n - 1) as u32 - row.iter().map(|w| w.count_ones()).sum::<u32>();
        }
        rows.truncate(n * words);

        BlockAnalysis {
            n,
            ancestors: rows,
            words,
            levels,
        }
    }

    /// Number of tuples analyzed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the block was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The paper's `earliest(ζ)`: 0-based minimum position at which `ζ` can
    /// be scheduled equals the number of its ancestors.
    pub fn earliest(&self, t: TupleId) -> u32 {
        self.levels[t.index()]
    }

    /// The paper's `latest(ζ)`: 0-based maximum position at which `ζ` can be
    /// scheduled.
    pub fn latest(&self, t: TupleId) -> u32 {
        self.levels[self.n + t.index()]
    }

    /// Longest chain of dependents strictly below `t` (0 for sinks).
    pub fn height(&self, t: TupleId) -> u32 {
        self.levels[2 * self.n + t.index()]
    }

    /// Longest chain of producers strictly above `t` (0 for sources).
    pub fn depth(&self, t: TupleId) -> u32 {
        self.levels[3 * self.n + t.index()]
    }

    /// True when `a` transitively depends on `b`.
    pub fn depends_on(&self, a: TupleId, b: TupleId) -> bool {
        let b = b.index();
        b < self.n && self.ancestors[a.index() * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    /// True when neither tuple depends on the other.
    pub fn independent(&self, a: TupleId, b: TupleId) -> bool {
        !self.depends_on(a, b) && !self.depends_on(b, a)
    }

    /// Length of the longest dependence chain in the block (in instructions).
    pub fn critical_path_len(&self) -> u32 {
        let (height, depth) = self.levels[2 * self.n..].split_at(self.n);
        height
            .iter()
            .zip(depth)
            .map(|(h, d)| h + d)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }
}

/// Check that `schedule` is a legal topological order of `dag` and a
/// permutation of the block's tuples.
pub fn verify_schedule(
    block: &BasicBlock,
    dag: &DepDag,
    schedule: &[TupleId],
) -> Result<(), IrError> {
    let n = block.len();
    if schedule.len() != n {
        return Err(IrError::NotAPermutation);
    }
    let mut position = vec![usize::MAX; n];
    for (pos, &t) in schedule.iter().enumerate() {
        if t.index() >= n || position[t.index()] != usize::MAX {
            return Err(IrError::NotAPermutation);
        }
        position[t.index()] = pos;
    }
    for e in dag.edges() {
        if position[e.from.index()] >= position[e.to.index()] {
            return Err(IrError::DependenceViolation {
                producer: e.from,
                consumer: e.to,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;

    fn fig3() -> (BasicBlock, DepDag) {
        let mut b = BlockBuilder::new("fig3");
        let c = b.constant(15);
        b.store("b", c);
        let a = b.load("a");
        let m = b.mul(c, a);
        b.store("a", m);
        let bb = b.finish().unwrap();
        let dag = DepDag::build(&bb);
        (bb, dag)
    }

    #[test]
    fn earliest_latest_match_paper_definitions() {
        let (_, dag) = fig3();
        let a = BlockAnalysis::compute(&dag);
        // Const (tuple 1): no ancestors, descendants {2,4,5}.
        assert_eq!(a.earliest(TupleId(0)), 0);
        assert_eq!(a.latest(TupleId(0)), 5 - 1 - 3);
        // Store a (tuple 5): ancestors {1,3,4}, no descendants.
        assert_eq!(a.earliest(TupleId(4)), 3);
        assert_eq!(a.latest(TupleId(4)), 4);
        // Load a (tuple 3): no ancestors; descendants {4,5}.
        assert_eq!(a.earliest(TupleId(2)), 0);
        assert_eq!(a.latest(TupleId(2)), 2);
    }

    #[test]
    fn heights_and_depths() {
        let (_, dag) = fig3();
        let a = BlockAnalysis::compute(&dag);
        // Chains: Const→Mul→Store(a) and Const→Store(b); Load→Mul→Store.
        assert_eq!(a.height(TupleId(0)), 2);
        assert_eq!(a.height(TupleId(2)), 2);
        assert_eq!(a.height(TupleId(4)), 0);
        assert_eq!(a.depth(TupleId(0)), 0);
        assert_eq!(a.depth(TupleId(4)), 2);
        assert_eq!(a.critical_path_len(), 3);
    }

    #[test]
    fn transitive_dependence_queries() {
        let (_, dag) = fig3();
        let a = BlockAnalysis::compute(&dag);
        assert!(
            a.depends_on(TupleId(4), TupleId(0)),
            "store a ← const transitively"
        );
        assert!(!a.depends_on(TupleId(0), TupleId(4)));
        assert!(a.independent(TupleId(1), TupleId(2)), "store b vs load a");
    }

    #[test]
    fn verify_schedule_accepts_program_order() {
        let (bb, dag) = fig3();
        let order: Vec<_> = bb.ids().collect();
        verify_schedule(&bb, &dag, &order).unwrap();
    }

    #[test]
    fn verify_schedule_rejects_violation() {
        let (bb, dag) = fig3();
        // Mul before Load a.
        let order = [0u32, 1, 3, 2, 4].map(TupleId);
        assert!(matches!(
            verify_schedule(&bb, &dag, &order),
            Err(IrError::DependenceViolation { .. })
        ));
    }

    #[test]
    fn verify_schedule_rejects_non_permutation() {
        let (bb, dag) = fig3();
        let order = [0u32, 0, 1, 2, 3].map(TupleId);
        assert!(matches!(
            verify_schedule(&bb, &dag, &order),
            Err(IrError::NotAPermutation)
        ));
        let short = [0u32, 1].map(TupleId);
        assert!(verify_schedule(&bb, &dag, &short).is_err());
    }

    #[test]
    fn empty_block_analysis() {
        let bb = BasicBlock::new("empty");
        let dag = DepDag::build(&bb);
        let a = BlockAnalysis::compute(&dag);
        assert!(a.is_empty());
        assert_eq!(a.critical_path_len(), 0);
    }
}
