#![warn(missing_docs)]

//! Static diagnostics and schedule certification for the `pipesched`
//! workspace.
//!
//! Three layers, one diagnostics vocabulary:
//!
//! * [`ir_checks`] — well-formedness and code-quality passes over basic
//!   blocks (codes `A01xx`): dangling or forward operand references,
//!   dependence-DAG and slack-bound consistency, duplicate and unused
//!   tuples, dead stores;
//! * [`dataflow`] — a generic worklist dataflow solver over straight-line
//!   tuple IR (reaching definitions, coupled liveness, available values,
//!   value numbering, constants) feeding deeper `A05xx` lints:
//!   liveness-dead stores, undefined uses, orphan tuples, transitively
//!   implied dependence edges;
//! * [`opt_validate`] — translation validation of the front-end
//!   optimizer (codes `A0505`–`A0510`): every pass emits a rewrite
//!   witness transcript, and [`opt_validate::validate_transcript`]
//!   replays it against independently derived dataflow facts, rejecting
//!   unjustified or unwitnessed rewrites;
//! * [`machine_checks`] — lints over machine descriptions (codes `A02xx`):
//!   zero or absurd latencies, unreachable pipelines, operations no
//!   pipeline executes, degenerate descriptions;
//! * [`certify`](mod@certify) — a schedule certifier (codes `A03xx`) that re-derives
//!   issue times **independently** of both the scheduler's incremental
//!   engine and the cycle-accurate simulator, then checks a scheduler's
//!   claimed order, pipeline assignment, η padding, and μ against the
//!   re-derivation; [`cross`] turns it on all four schedulers at once.
//!
//! Every check reports through [`Report`]: structured diagnostics with
//! stable [`DiagCode`]s, severities, optional tuple anchors and fix hints,
//! rendered as text or JSON. The `pipesched lint` and `pipesched certify`
//! CLI subcommands are thin wrappers over this crate.

pub mod certify;
pub mod cross;
pub mod dataflow;
pub mod diag;
pub mod ir_checks;
pub mod machine_checks;
pub mod opt_validate;

pub use certify::{
    certify, certify_scheduled, derive_issue_times, extract_deps, Certification, Claim, Dep, Deps,
};
pub use cross::cross_check;
pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use ir_checks::check_block;
pub use machine_checks::check_machine;
pub use opt_validate::{optimize_verified, validate_transcript, verify_opt_forced, OptRejection};

use pipesched_core::SearchOutcome;
use pipesched_ir::BasicBlock;
use pipesched_machine::Machine;

/// Lint a block and the machine it targets in one report.
pub fn lint(block: &BasicBlock, machine: &Machine) -> Report {
    let mut report = check_block(block);
    report.merge(check_machine(machine));
    report
}

/// Assert (in debug builds only) that a scheduler's output certifies
/// clean, panicking with the rendered report otherwise.
///
/// This is the `debug_assertions` hook the CLI and the bench harness call
/// on every schedule they produce; release builds compile it away.
#[inline]
pub fn debug_assert_certified(block: &BasicBlock, machine: &Machine, scheduled: &SearchOutcome) {
    if cfg!(debug_assertions) {
        let cert = certify::certify_scheduled(block, machine, scheduled);
        assert!(
            cert.is_certified(),
            "schedule failed certification:\n{}",
            cert.report
        );
    }
}

/// [`debug_assert_certified`] for callers that hold a raw [`Claim`] rather
/// than a [`SearchOutcome`] — the scheduling service certifies every
/// response (including cache hits replayed onto a renamed block) through
/// this hook.
#[inline]
pub fn debug_assert_claim_certified(block: &BasicBlock, machine: &Machine, claim: Claim<'_>) {
    if cfg!(debug_assertions) {
        let cert = certify::certify(block, machine, claim);
        assert!(
            cert.is_certified(),
            "schedule failed certification:\n{}",
            cert.report
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_core::Scheduler;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    #[test]
    fn lint_combines_block_and_machine_reports() {
        let mut b = BlockBuilder::new("combined");
        let x = b.load("x");
        b.store("r", x);
        b.store("r", x); // dead store → A0109
        let block = b.finish().unwrap();
        let mut mb = Machine::builder("partial");
        let l = mb.pipeline("loader", 2, 1);
        mb.pipeline("idle", 3, 1); // unreachable → A0205
        mb.map(pipesched_ir::Op::Load, &[l]);
        let machine = mb.build().unwrap();

        let report = lint(&block, &machine);
        assert!(report.has_code(DiagCode::DeadStore));
        assert!(report.has_code(DiagCode::UnreachablePipeline));
        assert!(!report.has_errors());
    }

    #[test]
    fn debug_hook_accepts_real_schedules() {
        let mut b = BlockBuilder::new("hook");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("r", s);
        let block = b.finish().unwrap();
        let machine = presets::paper_simulation();
        let scheduled = Scheduler::new(machine.clone()).schedule(&block);
        debug_assert_certified(&block, &machine, &scheduled);
    }
}
