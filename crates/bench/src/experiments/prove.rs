//! Proof-logging overhead and checker throughput.
//!
//! Three questions about the certificate machinery, answered over a
//! synthetic corpus:
//!
//! 1. What does the proof plumbing cost when it is *off*?  The plain
//!    [`search`] entry point is timed twice, interleaved with the logged
//!    run; the relative delta between the two passes bounds the
//!    disabled-path cost (the acceptance gate is < 2%).
//! 2. What does in-memory certificate logging cost when it is *on*?
//! 3. How fast does the independent checker replay a certificate, and
//!    does it accept every certificate the search emits?

use std::time::Instant;

use pipesched_core::{prove, search, SchedContext, SearchConfig};
use pipesched_ir::DepDag;
use pipesched_machine::presets;
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_synth::CorpusSpec;

use crate::report::{f, TextTable};

/// Aggregate result of the proof experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ProveReport {
    /// Corpus blocks scheduled.
    pub blocks: usize,
    /// Completed searches whose certificate the checker accepted with the
    /// search's μ.
    pub proved: usize,
    /// Certificates the checker rejected (must be zero).
    pub rejected: usize,
    /// Searches truncated by λ — a truncated transcript is not a proof,
    /// so these are skipped, not checked.
    pub truncated: usize,
    /// Total certificate events replayed by the checker.
    pub events: u64,
    /// Plain [`search`] wall-clock, first pass, microseconds.
    pub plain_micros: u64,
    /// Plain [`search`] wall-clock, second pass (the disabled-logging
    /// re-measurement), microseconds.
    pub plain_again_micros: u64,
    /// [`prove`] (in-memory logger) wall-clock, microseconds.
    pub logged_micros: u64,
    /// Checker replay wall-clock, microseconds.
    pub check_micros: u64,
}

impl ProveReport {
    /// Relative delta between the two plain-search passes, percent.  The
    /// disabled proof path is the same code both times, so this bounds
    /// its cost plus measurement noise.
    pub fn disabled_overhead_pct(&self) -> f64 {
        if self.plain_micros == 0 {
            return 0.0;
        }
        100.0 * (self.plain_again_micros as f64 - self.plain_micros as f64).abs()
            / self.plain_micros as f64
    }

    /// In-memory logging overhead relative to the faster plain pass,
    /// percent.
    pub fn logging_overhead_pct(&self) -> f64 {
        let plain = self.plain_micros.min(self.plain_again_micros);
        if plain == 0 {
            return 0.0;
        }
        100.0 * (self.logged_micros as f64 - plain as f64) / plain as f64
    }

    /// Checker replay throughput, events per second.
    pub fn checker_events_per_sec(&self) -> f64 {
        if self.check_micros == 0 {
            return 0.0;
        }
        self.events as f64 * 1e6 / self.check_micros as f64
    }
}

/// Schedule the first `runs` corpus blocks plain and with an in-memory
/// logger, time both (and a second plain pass) over the whole corpus at
/// once, then replay every complete certificate through the independent
/// checker.
pub fn run(runs: usize, lambda: u64) -> ProveReport {
    let corpus = CorpusSpec::paper_default().with_runs(runs);
    let machine = presets::paper_simulation();
    let cfg = SearchConfig {
        lambda,
        ..SearchConfig::default()
    };

    let mut report = ProveReport {
        blocks: runs,
        proved: 0,
        rejected: 0,
        truncated: 0,
        events: 0,
        plain_micros: 0,
        plain_again_micros: 0,
        logged_micros: 0,
        check_micros: 0,
    };

    let blocks: Vec<_> = (0..runs).map(|k| corpus.block(k)).collect();
    let dags: Vec<_> = blocks.iter().map(DepDag::build).collect();
    let ctxs: Vec<_> = blocks
        .iter()
        .zip(&dags)
        .map(|(b, d)| SchedContext::new(b, d, &machine))
        .collect();

    // Check the certificates first (this doubles as the warm-up for the
    // timing passes below).
    for (k, ctx) in ctxs.iter().enumerate() {
        let plain = search(ctx, &cfg);
        let (logged, cert) = prove(ctx, &cfg);
        assert_eq!(
            plain.nops, logged.nops,
            "logging changed the search result on corpus block {k}"
        );
        if !logged.optimal {
            report.truncated += 1;
            continue;
        }
        report.events += cert.events.len() as u64;

        let t = Instant::now();
        let check = check_certificate(&blocks[k], &machine, &cert);
        report.check_micros += t.elapsed().as_micros() as u64;
        match check.verdict {
            ProofVerdict::OptimalCertified { nops } if nops == logged.nops => report.proved += 1,
            _ => report.rejected += 1,
        }
    }

    // One timed sample covers the *whole corpus*, so each measurement is
    // tens of milliseconds and timer granularity / scheduler spikes stop
    // mattering; the three variants are interleaved per repetition (min
    // over repetitions) so clock-frequency drift hits all three alike.
    let (mut p1, mut lg, mut p2) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..5 {
        let t = Instant::now();
        for ctx in &ctxs {
            let _ = search(ctx, &cfg);
        }
        p1 = p1.min(t.elapsed().as_micros() as u64);
        // The two plain passes run back to back: anything in between
        // (the 4x-longer logged pass would shift thermal / frequency
        // state) would decorrelate the pair whose delta is the gate.
        let t = Instant::now();
        for ctx in &ctxs {
            let _ = search(ctx, &cfg);
        }
        p2 = p2.min(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        for ctx in &ctxs {
            let _ = prove(ctx, &cfg);
        }
        lg = lg.min(t.elapsed().as_micros() as u64);
    }
    report.plain_micros = p1;
    report.logged_micros = lg;
    report.plain_again_micros = p2;

    report
}

/// Render the proof experiment as a metric table.
pub fn render(r: &ProveReport) -> TextTable {
    let mut t = TextTable::new(["metric", "value"]);
    t.row(["corpus blocks".to_string(), r.blocks.to_string()]);
    t.row(["certificates accepted".to_string(), r.proved.to_string()]);
    t.row(["certificates rejected".to_string(), r.rejected.to_string()]);
    t.row([
        "truncated (not checked)".to_string(),
        r.truncated.to_string(),
    ]);
    t.row(["certificate events".to_string(), r.events.to_string()]);
    t.row([
        "plain search, pass 1 (ms)".to_string(),
        f(r.plain_micros as f64 / 1e3, 1),
    ]);
    t.row([
        "plain search, pass 2 (ms)".to_string(),
        f(r.plain_again_micros as f64 / 1e3, 1),
    ]);
    t.row([
        "logged search (ms)".to_string(),
        f(r.logged_micros as f64 / 1e3, 1),
    ]);
    t.row([
        "checker replay (ms)".to_string(),
        f(r.check_micros as f64 / 1e3, 1),
    ]);
    t.row([
        "disabled-path delta (%)".to_string(),
        f(r.disabled_overhead_pct(), 2),
    ]);
    t.row([
        "logging overhead (%)".to_string(),
        f(r.logging_overhead_pct(), 2),
    ]);
    t.row([
        "checker throughput (events/s)".to_string(),
        f(r.checker_events_per_sec(), 0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_complete_certificate_is_accepted() {
        let r = run(12, 50_000);
        assert_eq!(r.blocks, 12);
        assert_eq!(r.rejected, 0, "checker rejected a search certificate");
        assert!(r.proved >= 1, "no block completed at lambda 50k");
        assert_eq!(r.proved + r.truncated, r.blocks);
        assert!(r.events > 0);
        assert!(r.checker_events_per_sec() > 0.0);
        let table = render(&r);
        assert!(table.render().contains("certificates accepted"));
    }
}
