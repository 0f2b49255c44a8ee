//! Baseline schedulers the paper compares against (Table 1 and §1).
//!
//! * [`exhaustive_calls`] — the `n!` column of Table 1: the number of Ω
//!   calls a fully unpruned search would make;
//! * [`enumerate_legal`] — "pruning illegal" (Table 1 column 3): walk every
//!   *legal* topological order, evaluating each complete schedule once;
//! * [`greedy_schedule`] — a Gross-style greedy heuristic (single pass, no
//!   backtracking), representative of the postpass schedulers of \[Gro83\]
//!   and \[AbP88\].

use pipesched_ir::TupleId;

use crate::bounds::Frontier;
use crate::context::SchedContext;
use crate::timing::TimingEngine;

/// Exact `n!` when it fits in `u128`, `None` beyond (21! overflows nothing —
/// u128 holds up to 34!; larger blocks return `None`).
pub fn exhaustive_calls(n: usize) -> Option<u128> {
    let mut acc: u128 = 1;
    for k in 2..=n as u128 {
        acc = acc.checked_mul(k)?;
    }
    Some(acc)
}

/// `n!` as a float for display of very large blocks (matches the paper's
/// scientific-notation column).
pub fn exhaustive_calls_approx(n: usize) -> f64 {
    (2..=n).map(|k| k as f64).product()
}

/// Result of the legality-only enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegalityOutcome {
    /// Complete legal schedules evaluated (Ω calls in Table 1's sense).
    pub omega_calls: u64,
    /// Minimum μ found.
    pub best_nops: u32,
    /// True when the enumeration hit `cap` and stopped early.
    pub truncated: bool,
}

/// Enumerate every legal topological order of the block, evaluating each
/// complete schedule, up to `cap` schedules (the paper reports one Table 1
/// entry as `>9,999,000` — they capped this column too).
pub fn enumerate_legal(ctx: &SchedContext<'_>, cap: u64) -> LegalityOutcome {
    let n = ctx.len();
    let mut pending: Vec<u32> = (0..n).map(|i| ctx.preds[i].len() as u32).collect();
    let mut engine = TimingEngine::new(ctx);
    let mut out = LegalityOutcome {
        omega_calls: 0,
        best_nops: u32::MAX,
        truncated: false,
    };
    if n == 0 {
        out.best_nops = 0;
        out.omega_calls = 1;
        return out;
    }
    let mut placed = vec![false; n];
    enumerate(
        ctx,
        &mut engine,
        &mut pending,
        &mut placed,
        0,
        cap,
        &mut out,
    );
    out
}

fn enumerate(
    ctx: &SchedContext<'_>,
    engine: &mut TimingEngine<'_, '_>,
    pending: &mut [u32],
    placed: &mut [bool],
    depth: usize,
    cap: u64,
    out: &mut LegalityOutcome,
) {
    let n = ctx.len();
    if depth == n {
        out.omega_calls += 1;
        out.best_nops = out.best_nops.min(engine.total_nops());
        if out.omega_calls >= cap {
            out.truncated = true;
        }
        return;
    }
    for i in 0..n {
        if out.truncated {
            return;
        }
        if placed[i] || pending[i] > 0 {
            continue;
        }
        let t = TupleId(i as u32);
        placed[i] = true;
        for e in ctx.dag.succs(t) {
            pending[e.to.index()] -= 1;
        }
        engine.push_default(t);
        enumerate(ctx, engine, pending, placed, depth + 1, cap, out);
        engine.pop();
        for e in ctx.dag.succs(t) {
            pending[e.to.index()] += 1;
        }
        placed[i] = false;
    }
}

/// A Gross-style greedy scheduler: repeatedly issue, among the ready
/// instructions, one that can start soonest (fewest NOPs right now),
/// breaking ties toward taller instructions. Single pass, no backtracking;
/// fast but not optimal.
pub fn greedy_schedule(ctx: &SchedContext<'_>) -> (Vec<TupleId>, u32) {
    let n = ctx.len();
    let mut frontier = Frontier::new(ctx, false);
    let mut engine = TimingEngine::new(ctx);
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let (t, _) = frontier
            .ready()
            .min_by_key(|&(t, dep)| {
                let est = engine.pipe_free(ctx.sigma(t)).max(dep);
                (est, std::cmp::Reverse(ctx.analysis.height(t)), t.0)
            })
            .expect("DAG is acyclic, so some instruction is ready");
        engine.push_default(t);
        frontier.commit(ctx, &engine, t);
        order.push(t);
    }
    let total = engine.total_nops();
    (order, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, SearchConfig};
    use pipesched_ir::{analysis::verify_schedule, BlockBuilder, DepDag};
    use pipesched_machine::presets;

    #[test]
    fn factorials() {
        assert_eq!(exhaustive_calls(0), Some(1));
        assert_eq!(exhaustive_calls(8), Some(40_320));
        assert_eq!(exhaustive_calls(13), Some(6_227_020_800));
        assert!(exhaustive_calls(40).is_none());
        let approx = exhaustive_calls_approx(16);
        assert!((approx - 2.09e13).abs() / 2.09e13 < 0.01, "{approx}");
    }

    #[test]
    fn legality_enumeration_counts_topological_orders() {
        // Two independent load→store chains: orders of {l1,s1}×{l2,s2}
        // interleavings = C(4,2) = 6.
        let mut b = BlockBuilder::new("count");
        let l1 = b.load("a");
        b.store("ra", l1);
        let l2 = b.load("b");
        b.store("rb", l2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = enumerate_legal(&ctx, u64::MAX);
        assert_eq!(out.omega_calls, 6);
        assert!(!out.truncated);
    }

    #[test]
    fn legality_cap_truncates() {
        let mut b = BlockBuilder::new("cap");
        for i in 0..6 {
            b.load(&format!("x{i}"));
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = enumerate_legal(&ctx, 10);
        assert!(out.truncated);
        assert_eq!(out.omega_calls, 10);
    }

    #[test]
    fn bnb_matches_legality_enumeration_optimum() {
        let mut b = BlockBuilder::new("xcheck");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        b.store("m", m);
        b.store("a", a);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let brute = enumerate_legal(&ctx, u64::MAX);
        let smart = search(&ctx, &SearchConfig::default());
        assert!(smart.optimal);
        assert_eq!(smart.nops, brute.best_nops);
    }

    #[test]
    fn greedy_is_legal_and_at_least_as_bad_as_optimal() {
        let mut b = BlockBuilder::new("greedy");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let m2 = b.mul(m, x);
        b.store("r", m2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (order, nops) = greedy_schedule(&ctx);
        verify_schedule(&block, &dag, &order).unwrap();
        let smart = search(&ctx, &SearchConfig::default());
        assert!(nops >= smart.nops);
    }

    #[test]
    fn empty_block_baselines() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = enumerate_legal(&ctx, 100);
        assert_eq!(out.best_nops, 0);
        let (order, nops) = greedy_schedule(&ctx);
        assert!(order.is_empty());
        assert_eq!(nops, 0);
    }
}
