//! Cross-checking the workspace's schedulers against each other.
//!
//! Every scheduler in `pipesched-core` answers the same question — how few
//! NOPs does this block need on this machine? — so their answers are
//! mutually constrained:
//!
//! * every produced schedule must certify clean ([`crate::certify`]);
//! * the branch-and-bound result is never worse than its own list-schedule
//!   seed, and the windowed schedule sits between the proven optimum and
//!   the plain list schedule it refines;
//! * two searches that both *prove* optimality must agree on μ exactly.
//!
//! [`cross_check`] runs all four (sequential B&B, list, windowed,
//! parallel B&B), certifies each, and reports any contradiction as
//! `A0306`. It is deliberately expensive — a regression harness and a
//! debug-build spot check, not a production path.

use pipesched_core::{
    list_schedule, run, windowed_schedule, ParallelConfig, Run, SchedContext, SearchConfig,
};
use pipesched_ir::{BasicBlock, BlockAnalysis, DepDag};
use pipesched_machine::Machine;

use crate::certify::{certify, certify_scheduled, Claim};
use crate::diag::{DiagCode, Diagnostic, Report};

/// Run every scheduler on `block`, certify each result, and cross-check
/// their μ values. `lambda` is the curtail point for both searches.
pub fn cross_check(block: &BasicBlock, machine: &Machine, lambda: u64) -> Report {
    let mut report = Report::new(format!(
        "cross-check of `{}` on `{}`",
        block.name, machine.name
    ));
    let dag = DepDag::build(block);
    let analysis = BlockAnalysis::compute(&dag);
    let ctx = SchedContext::new(block, &dag, machine);

    // Branch-and-bound: the serial kernel, and the pool with a couple of
    // workers.
    let cfg = SearchConfig::with_lambda(lambda);
    let [bnb, par] = [None, Some(ParallelConfig::with_threads(2))].map(|parallel| {
        let searched = Run {
            parallel,
            ..Run::default()
        };
        run(&ctx, &cfg, searched)
            .expect("a search without proof or profile has nothing to reject")
            .0
    });
    let bnb_cert = certify_scheduled(block, machine, &bnb);
    report.merge(tagged(bnb_cert.report, "bnb"));

    // Machine-independent list schedule: a bare order whose μ we derive.
    let list_order = list_schedule(&dag, &analysis);
    let list_cert = certify(
        block,
        machine,
        Claim {
            order: &list_order,
            ..Claim::default()
        },
    );
    report.merge(tagged(list_cert.report, "list"));

    // Windowed scheduling (§5.3), window in the paper's suggested range.
    let windowed = windowed_schedule(&ctx, 8, lambda);
    let win_cert = certify(
        block,
        machine,
        Claim {
            order: &windowed.order,
            etas: Some(&windowed.etas),
            nops: Some(windowed.nops),
            ..Claim::default()
        },
    );
    report.merge(tagged(win_cert.report, "windowed"));

    let par_cert = certify_scheduled(block, machine, &par);
    report.merge(tagged(par_cert.report, "parallel"));

    if report.has_errors() {
        // μ comparisons below are only meaningful between certified runs.
        return report;
    }

    let bnb_mu = bnb_cert.derived_nops.unwrap();
    let list_mu = list_cert.derived_nops.unwrap();
    let win_mu = win_cert.derived_nops.unwrap();
    let par_mu = par_cert.derived_nops.unwrap();

    let mut disagree = |message: String| {
        report.push(
            Diagnostic::new(DiagCode::SchedulerDisagreement, message)
                .with_hint("two independent schedulers contradict each other on this block"),
        );
    };
    if bnb_mu > list_mu {
        disagree(format!(
            "branch-and-bound needs {bnb_mu} NOPs but its own list seed needs {list_mu}"
        ));
    }
    if win_mu > list_mu {
        disagree(format!(
            "windowed schedule needs {win_mu} NOPs but the list schedule needs {list_mu}"
        ));
    }
    if bnb.optimal && win_mu < bnb_mu {
        disagree(format!(
            "windowed schedule needs {win_mu} NOPs, beating the proven optimum {bnb_mu}"
        ));
    }
    if bnb.optimal && par.optimal && bnb_mu != par_mu {
        disagree(format!(
            "sequential search proved μ = {bnb_mu} but parallel search proved μ = {par_mu}"
        ));
    }
    if !bnb.optimal && par.optimal && par_mu > bnb_mu {
        disagree(format!(
            "parallel search proved μ = {par_mu} optimal, yet a truncated search found {bnb_mu}"
        ));
    }
    report
}

/// Prefix every diagnostic message with the scheduler it concerns.
fn tagged(report: Report, scheduler: &str) -> Report {
    let mut out = Report::new(report.context.clone());
    for d in report.diagnostics() {
        let mut d = d.clone();
        d.message = format!("[{scheduler}] {}", d.message);
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    #[test]
    fn all_schedulers_agree_on_the_demo_block() {
        let mut b = BlockBuilder::new("cross");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let n = b.mul(y, x);
        let s = b.add(m, n);
        b.store("r", s);
        let block = b.finish().unwrap();
        for machine in presets::all_presets() {
            let report = cross_check(&block, &machine, 50_000);
            assert!(!report.has_errors(), "{}:\n{report}", machine.name);
        }
    }

    #[test]
    fn empty_ish_block_cross_checks() {
        let mut b = BlockBuilder::new("tiny");
        b.load("a");
        let block = b.finish().unwrap();
        let report = cross_check(&block, &presets::deep_pipeline(), 1_000);
        assert!(!report.has_errors(), "{report}");
    }
}
