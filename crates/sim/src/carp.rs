//! CARP-style explicit interlocking (§2.2): each instruction carries a
//! **bit mask of pipelines** it must wait for; the hardware stalls until
//! every *in-flight* operation in each masked pipeline has completed. This
//! is the coarse variant the paper attributes to CARP \[DiS89\] — per
//! *resource*, not per producing instruction — so it is conservative: if
//! another operation entered the producer's pipeline after the producer,
//! the consumer waits for that one too.
//!
//! The interesting, testable consequences:
//!
//! * CARP execution is always **hazard-free** (safety);
//! * its total time is **never shorter** than precise interlock hardware;
//! * with at most one operation in flight per pipeline the two coincide.
//!
//! `conservatism` quantifies the per-schedule cost of the coarse encoding —
//! an experiment the paper's framework enables but does not run.

use pipesched_ir::TupleId;

use crate::timing_model::TimingModel;

/// A schedule annotated with per-instruction pipeline wait masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarpProgram {
    /// Instructions in issue order.
    pub order: Vec<TupleId>,
    /// `masks[k]` = bit `p` set ⇒ instruction `k` waits for every operation
    /// in flight in pipeline `p` to complete before issuing.
    pub masks: Vec<u64>,
}

/// Tag `order` with the masks a CARP compiler would emit: each instruction
/// waits on the pipelines of all its flow producers. (Conflict spacing on
/// its own pipeline is handled by the same mechanism: the instruction also
/// masks its own pipeline when the enqueue time exceeds 1.)
pub fn tag_carp(tm: &TimingModel, order: &[TupleId]) -> CarpProgram {
    let masks = order
        .iter()
        .map(|&t| {
            let mut mask = 0u64;
            for &(from, _) in &tm.dep_delays[t.index()] {
                if let Some(p) = tm.sigma[from.index()] {
                    mask |= 1 << p.index();
                }
            }
            if let Some(p) = tm.sigma[t.index()] {
                if tm.enqueue[t.index()] > 1 {
                    mask |= 1 << p.index();
                }
            }
            mask
        })
        .collect();
    CarpProgram {
        order: order.to_vec(),
        masks,
    }
}

/// Result of executing a CARP-tagged program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarpReport {
    /// Total execution cycles.
    pub total_cycles: u64,
    /// Total stall cycles the mask mechanism inserted.
    pub total_stalls: u64,
}

impl CarpProgram {
    /// Execute on mask-waiting hardware over `tm`, verifying hazard
    /// freedom. The hardware model: pipeline `p` is "busy for dependence"
    /// until `issue + latency` of the most recent operation it accepted,
    /// and "busy for reuse" until `issue + enqueue`.
    pub fn execute(&self, tm: &TimingModel) -> CarpReport {
        let mut issued: Vec<Option<u64>> = vec![None; tm.len()];
        // Per pipeline: completion time of the most recent operation.
        let mut pipe_complete: Vec<u64> = vec![0; tm.pipeline_count];
        let mut pipe_reuse: Vec<u64> = vec![0; tm.pipeline_count];
        let mut cycle: u64 = 0;
        let mut stalls: u64 = 0;
        let mut first = true;

        for (&t, &mask) in self.order.iter().zip(&self.masks) {
            let baseline = if first { 0 } else { cycle + 1 };
            first = false;
            let mut earliest = baseline;
            for (p, &complete) in pipe_complete.iter().enumerate() {
                if mask & (1 << p) != 0 {
                    earliest = earliest.max(complete);
                }
            }
            if let Some(p) = tm.sigma[t.index()] {
                earliest = earliest.max(pipe_reuse[p.index()]);
            }
            stalls += earliest - baseline;
            // The mask mechanism must subsume precise interlocking.
            assert!(
                tm.can_issue_at(t, earliest, &issued),
                "CARP mask under-waited: hazard at cycle {earliest}"
            );
            issued[t.index()] = Some(earliest);
            if let Some(p) = tm.sigma[t.index()] {
                pipe_complete[p.index()] = earliest + u64::from(tm.result_delay[t.index()]);
                pipe_reuse[p.index()] = earliest + u64::from(tm.enqueue[t.index()]);
            }
            cycle = earliest;
        }

        CarpReport {
            total_cycles: if self.order.is_empty() { 0 } else { cycle + 1 },
            total_stalls: stalls,
        }
    }
}

/// Extra cycles the coarse CARP masks cost relative to precise interlock
/// hardware for the same order.
pub fn conservatism(tm: &TimingModel, order: &[TupleId]) -> u64 {
    let precise = crate::interlock::simulate_interlock(tm, order).total_cycles;
    let carp = tag_carp(tm, order).execute(tm).total_cycles;
    carp - precise
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn tm_of(block: &pipesched_ir::BasicBlock) -> TimingModel {
        let dag = DepDag::build(block);
        TimingModel::new(block, &dag, &presets::paper_simulation())
    }

    #[test]
    fn simple_chain_matches_interlock() {
        // One op in flight per pipeline at a time ⇒ masks are precise.
        let mut b = BlockBuilder::new("chain");
        let x = b.load("x");
        let m = b.mul(x, x);
        b.store("z", m);
        let block = b.finish().unwrap();
        let tm = tm_of(&block);
        let order: Vec<_> = block.ids().collect();
        assert_eq!(conservatism(&tm, &order), 0);
        let carp = tag_carp(&tm, &order).execute(&tm);
        assert_eq!(carp.total_cycles, 7);
    }

    #[test]
    fn masks_reference_producers_pipelines() {
        let mut b = BlockBuilder::new("mask");
        let x = b.load("x"); // loader = pipeline 0
        let m = b.mul(x, x); // multiplier = pipeline 2, enqueue 2 > 1
        b.store("z", m);
        let block = b.finish().unwrap();
        let tm = tm_of(&block);
        let order: Vec<_> = block.ids().collect();
        let prog = tag_carp(&tm, &order);
        assert_eq!(prog.masks[0], 0, "load depends on nothing");
        assert_eq!(prog.masks[1], 0b101, "mul waits on loader + its own pipe");
        assert_eq!(prog.masks[2], 0b100, "store waits on the multiplier");
    }

    #[test]
    fn coarse_masks_are_conservative_with_pipelined_loads() {
        // load a; load b; use a: the precise interlock only waits for
        // load a, but the mask waits for the *latest* loader operation
        // (load b), costing a cycle.
        let mut b = BlockBuilder::new("cons");
        let a = b.load("a");
        b.load("b");
        let n = b.neg(a); // adder, depends only on load a
        b.store("r", n);
        let block = b.finish().unwrap();
        let tm = tm_of(&block);
        let order: Vec<_> = block.ids().collect();
        assert!(conservatism(&tm, &order) >= 1, "expected mask overshoot");
    }

    #[test]
    fn carp_never_beats_interlock_on_random_orders() {
        use crate::interlock::simulate_interlock;
        let mut b = BlockBuilder::new("rand");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        b.store("m", m);
        b.store("a", a);
        let block = b.finish().unwrap();
        let tm = tm_of(&block);
        // Try program order and one permuted legal order.
        for order in [
            block.ids().collect::<Vec<_>>(),
            [1u32, 0, 3, 2, 5, 4].map(TupleId).to_vec(),
        ] {
            let precise = simulate_interlock(&tm, &order).total_cycles;
            let carp = tag_carp(&tm, &order).execute(&tm).total_cycles;
            assert!(carp >= precise);
        }
    }

    #[test]
    fn empty_program() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let tm = tm_of(&block);
        let report = tag_carp(&tm, &[]).execute(&tm);
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.total_stalls, 0);
    }
}
