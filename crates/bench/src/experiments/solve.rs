//! Backend-vs-backend comparison: SAT portfolio against the paper's B&B.
//!
//! Every corpus block is scheduled twice — once by the branch-and-bound
//! of §4.2 and once by the `pipesched-solve` descending-feasibility SAT
//! backend — and the two answers are cross-certified:
//!
//! 1. When both backends *prove* optimality, their NOP counts must be
//!    identical (gate: zero disagreements).
//! 2. Every SAT outcome must survive [`audit_outcome`] — full
//!    `pipesched-analyze` certification of the schedule plus a from-scratch
//!    replay of the query trail (gate: zero audit failures).
//!
//! Beyond the gates, the experiment records performance — which backend
//! was faster per block, total conflicts/decisions, how often the global
//! lower bound closed a query without search — and lands everything in
//! `BENCH_solve.json`.

use std::time::Instant;

use pipesched_core::{search, SchedContext, SearchConfig};
use pipesched_ir::DepDag;
use pipesched_json::{json_object, Json};
use pipesched_machine::presets;
use pipesched_solve::{audit_outcome, cross_check, solve_schedule, SolveConfig};
use pipesched_synth::CorpusSpec;

use crate::report::{f, TextTable};

/// Aggregate result of the backend-portfolio experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Corpus blocks scheduled by both backends.
    pub blocks: usize,
    /// Blocks where the B&B proved optimality within λ.
    pub bnb_optimal: usize,
    /// Blocks where the SAT backend proved optimality.
    pub sat_optimal: usize,
    /// Blocks where *both* proved optimality (the comparable set).
    pub both_optimal: usize,
    /// Comparable blocks with identical optimal NOP counts.
    pub agreements: usize,
    /// Comparable blocks with different "optimal" NOP counts (must be 0).
    pub disagreements: usize,
    /// SAT outcomes rejected by [`audit_outcome`] (must be 0).
    pub audit_failures: usize,
    /// Comparable blocks the SAT backend answered faster.
    pub sat_faster: usize,
    /// Comparable blocks the B&B answered faster.
    pub bnb_faster: usize,
    /// Total B&B wall clock, microseconds.
    pub bnb_micros: u64,
    /// Total SAT wall clock, microseconds.
    pub sat_micros: u64,
    /// Total CDCL conflicts across all queries.
    pub conflicts: u64,
    /// Total CDCL decisions.
    pub decisions: u64,
    /// Total CDCL propagations.
    pub propagations: u64,
    /// Feasibility queries answered SAT.
    pub queries_sat: u64,
    /// Feasibility queries answered UNSAT.
    pub queries_unsat: u64,
    /// Blocks closed by the global lower bound without any SAT query.
    pub proved_by_bound: u64,
}

impl SolveReport {
    /// True when both hard gates hold: every comparable block agrees and
    /// every SAT outcome audited clean.
    pub fn gates_hold(&self) -> bool {
        self.disagreements == 0 && self.audit_failures == 0
    }

    /// Render the experiment as a metric table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "value"]);
        t.row(["corpus blocks".to_string(), self.blocks.to_string()]);
        t.row([
            "B&B proved optimal".to_string(),
            self.bnb_optimal.to_string(),
        ]);
        t.row([
            "SAT proved optimal".to_string(),
            self.sat_optimal.to_string(),
        ]);
        t.row([
            "both proved optimal".to_string(),
            self.both_optimal.to_string(),
        ]);
        t.row([
            "optimal-μ agreements".to_string(),
            self.agreements.to_string(),
        ]);
        t.row(["disagreements".to_string(), self.disagreements.to_string()]);
        t.row([
            "audit failures".to_string(),
            self.audit_failures.to_string(),
        ]);
        t.row([
            "SAT faster (blocks)".to_string(),
            self.sat_faster.to_string(),
        ]);
        t.row([
            "B&B faster (blocks)".to_string(),
            self.bnb_faster.to_string(),
        ]);
        t.row([
            "B&B total (ms)".to_string(),
            f(self.bnb_micros as f64 / 1e3, 1),
        ]);
        t.row([
            "SAT total (ms)".to_string(),
            f(self.sat_micros as f64 / 1e3, 1),
        ]);
        t.row(["CDCL conflicts".to_string(), self.conflicts.to_string()]);
        t.row(["CDCL decisions".to_string(), self.decisions.to_string()]);
        t.row([
            "CDCL propagations".to_string(),
            self.propagations.to_string(),
        ]);
        t.row(["queries SAT".to_string(), self.queries_sat.to_string()]);
        t.row(["queries UNSAT".to_string(), self.queries_unsat.to_string()]);
        t.row([
            "closed by lower bound".to_string(),
            self.proved_by_bound.to_string(),
        ]);
        t
    }

    /// The machine-readable `BENCH_solve.json` document.
    pub fn to_json(&self) -> Json {
        json_object![
            ("experiment", "solve"),
            ("blocks", self.blocks as i64),
            ("bnb_optimal", self.bnb_optimal as i64),
            ("sat_optimal", self.sat_optimal as i64),
            ("both_optimal", self.both_optimal as i64),
            ("agreements", self.agreements as i64),
            ("disagreements", self.disagreements as i64),
            ("audit_failures", self.audit_failures as i64),
            ("sat_faster", self.sat_faster as i64),
            ("bnb_faster", self.bnb_faster as i64),
            ("bnb_micros", self.bnb_micros as i64),
            ("sat_micros", self.sat_micros as i64),
            ("conflicts", self.conflicts as i64),
            ("decisions", self.decisions as i64),
            ("propagations", self.propagations as i64),
            ("queries_sat", self.queries_sat as i64),
            ("queries_unsat", self.queries_unsat as i64),
            ("proved_by_bound", self.proved_by_bound as i64),
            ("gates_hold", self.gates_hold()),
        ]
    }
}

/// Schedule `runs` corpus blocks with both exact backends and
/// cross-certify every answer.
pub fn run(runs: usize, lambda: u64) -> SolveReport {
    let corpus = CorpusSpec::paper_default().with_runs(runs);
    let machine = presets::paper_simulation();
    let search_cfg = SearchConfig {
        lambda,
        ..SearchConfig::default()
    };
    let solve_cfg = SolveConfig::default();

    let mut report = SolveReport {
        blocks: runs,
        bnb_optimal: 0,
        sat_optimal: 0,
        both_optimal: 0,
        agreements: 0,
        disagreements: 0,
        audit_failures: 0,
        sat_faster: 0,
        bnb_faster: 0,
        bnb_micros: 0,
        sat_micros: 0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        queries_sat: 0,
        queries_unsat: 0,
        proved_by_bound: 0,
    };

    for k in 0..runs {
        let block = corpus.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);

        let t = Instant::now();
        let bnb = search(&ctx, &search_cfg);
        let bnb_micros = t.elapsed().as_micros() as u64;
        report.bnb_micros += bnb_micros;

        let t = Instant::now();
        let sat = solve_schedule(&ctx, &solve_cfg);
        let sat_micros = t.elapsed().as_micros() as u64;
        report.sat_micros += sat_micros;

        report.bnb_optimal += usize::from(bnb.optimal);
        report.sat_optimal += usize::from(sat.optimal);
        report.conflicts += sat.stats.conflicts;
        report.decisions += sat.stats.decisions;
        report.propagations += sat.stats.propagations;
        report.queries_sat += u64::from(sat.stats.queries_sat);
        report.queries_unsat += u64::from(sat.stats.queries_unsat);
        report.proved_by_bound += u64::from(sat.stats.proved_by_bound);

        if audit_outcome(&block, &machine, &sat).has_errors() {
            report.audit_failures += 1;
        }

        if bnb.optimal && sat.optimal {
            report.both_optimal += 1;
            let agree = cross_check(&block, bnb.optimal, bnb.nops, sat.optimal, sat.nops);
            if agree.has_errors() {
                report.disagreements += 1;
            } else {
                report.agreements += 1;
            }
            if sat_micros < bnb_micros {
                report.sat_faster += 1;
            } else {
                report.bnb_faster += 1;
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_and_audit_clean_on_the_corpus() {
        let r = run(12, 50_000);
        assert_eq!(r.blocks, 12);
        assert_eq!(r.disagreements, 0, "SAT and B&B disagree on optimal μ");
        assert_eq!(r.audit_failures, 0, "a SAT outcome failed its audit");
        assert!(r.both_optimal >= 1, "no comparable block at lambda 50k");
        assert_eq!(r.agreements, r.both_optimal);
        assert_eq!(r.sat_faster + r.bnb_faster, r.both_optimal);
        assert!(r.gates_hold());
        let doc = r.to_json();
        assert_eq!(doc.get("disagreements").and_then(Json::as_i64), Some(0));
        assert_eq!(doc.get("gates_hold").and_then(Json::as_bool), Some(true));
        assert!(r.table().render().contains("optimal-μ agreements"));
    }
}
