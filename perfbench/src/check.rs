//! Output checks, run outside the timed intervals.
//!
//! Every answer is checked against the benchmark's own copy of its block
//! by the certifier in `pipesched-analyze` (the workspace's third,
//! independent timing implementation) and by the cycle simulator in
//! `pipesched-sim`, and its NOP count must not exceed that of the initial
//! list schedule, costed by the certifier.

use pipesched_analyze::certify::{certify, Claim};
use pipesched_core::list_schedule;
use pipesched_ir::{BasicBlock, BlockAnalysis, DepDag, TupleId};
use pipesched_machine::{Machine, PipelineId};
use pipesched_sim::validate_schedule;

use crate::spans::Tracer;

/// A schedule as answered for one unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Answered {
    /// Instruction order.
    pub order: Vec<TupleId>,
    /// Pipeline per tuple id.
    pub assignment: Vec<Option<PipelineId>>,
    /// NOPs before each position of `order`.
    pub etas: Vec<u32>,
    /// Total NOPs.
    pub nops: u32,
    /// Claimed provably optimal.
    pub optimal: bool,
}

/// Why a unit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The program returned an error or panicked.
    Error,
    /// The certifier rejected the schedule.
    Certifier,
    /// The cycle simulator rejected the schedule.
    Simulator,
    /// More NOPs than the initial list schedule.
    AboveInitial,
    /// The proof checker rejected a certificate claimed optimal.
    Proof,
}

impl Failure {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Error => "error",
            Failure::Certifier => "certifier",
            Failure::Simulator => "simulator",
            Failure::AboveInitial => "above_initial",
            Failure::Proof => "proof",
        }
    }
}

/// Check `answer` against `block` on `machine`.
pub fn check_answer(
    block: &BasicBlock,
    machine: &Machine,
    answer: &Answered,
    tr: &mut Tracer,
) -> Result<(), Failure> {
    let cert = tr.span("analyze.certify", |_| {
        certify(
            block,
            machine,
            Claim {
                order: &answer.order,
                assignment: Some(&answer.assignment),
                etas: Some(&answer.etas),
                nops: Some(answer.nops),
            },
        )
    });
    let certified = cert.is_certified();
    tr.count("analyze.rejected", f64::from(u8::from(!certified)));
    if !certified {
        return Err(Failure::Certifier);
    }
    let dag = DepDag::build(block);
    let simulated = tr.span("sim.validate", |_| {
        validate_schedule(block, &dag, machine, &answer.order, &answer.etas)
    });
    tr.count("sim.rejected", f64::from(u8::from(simulated.is_err())));
    if simulated.is_err() {
        return Err(Failure::Simulator);
    }
    let initial = list_schedule(&dag, &BlockAnalysis::compute(&dag));
    let initial_nops = certify(
        block,
        machine,
        Claim {
            order: &initial,
            ..Claim::default()
        },
    )
    .derived_nops
    .ok_or(Failure::Certifier)?;
    if u64::from(answer.nops) > initial_nops {
        return Err(Failure::AboveInitial);
    }
    Ok(())
}

/// Failure tallies of a run.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    /// `(kind, count)` in first-seen order.
    pub kinds: Vec<(Failure, u64)>,
}

impl Failures {
    /// Record one failed unit.
    pub fn add(&mut self, f: Failure) {
        match self.kinds.iter_mut().find(|(k, _)| *k == f) {
            Some((_, n)) => *n += 1,
            None => self.kinds.push((f, 1)),
        }
    }

    /// Failed units of one kind.
    pub fn of(&self, f: Failure) -> u64 {
        self.kinds
            .iter()
            .find(|(k, _)| *k == f)
            .map_or(0, |(_, n)| *n)
    }

    /// All failed units.
    pub fn total(&self) -> u64 {
        self.kinds.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_core::{search, SchedContext, SearchConfig};
    use pipesched_machine::presets;
    use pipesched_synth::CorpusSpec;

    #[test]
    fn accepts_the_scheduler_and_rejects_a_corrupted_answer() {
        let block = CorpusSpec::paper_default().block(3);
        let machine = presets::paper_simulation();
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        let mut answer = Answered {
            order: out.order,
            assignment: out.assignment,
            etas: out.etas,
            nops: out.nops,
            optimal: out.optimal,
        };
        let mut tr = Tracer::off();
        assert_eq!(check_answer(&block, &machine, &answer, &mut tr), Ok(()));
        answer.order.reverse();
        assert!(check_answer(&block, &machine, &answer, &mut tr).is_err());
    }
}
