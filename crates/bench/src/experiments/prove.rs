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
//!    does it accept every certificate the search emits? Its cost is
//!    split by least squares into a fixed part per certificate and a part
//!    per event, and its heap allocations per certificate are counted
//!    where the binary installs [`crate::alloc_count::Counting`].

use std::time::Instant;

use pipesched_core::{prove, search, SchedContext, SearchConfig};
use pipesched_ir::DepDag;
use pipesched_machine::presets;
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_synth::CorpusSpec;

use crate::alloc_count::allocations;
use crate::report::{f, TextTable};

/// Timed checks of each certificate; the fastest counts.
const CHECK_PASSES: usize = 5;

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
    /// Checker replay wall-clock, microseconds: the sum over
    /// certificates of each one's fastest check.
    pub check_micros: u64,
    /// Least-squares fit of a check's cost: microseconds per certificate…
    pub check_fixed_us: f64,
    /// …plus microseconds per event.
    pub check_us_per_event: f64,
    /// Heap allocations per check, mean and most (`None` where they are
    /// not counted).
    pub check_allocations: Option<(f64, u64)>,
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

    /// Checker replay throughput, events per second. It falls when
    /// certificates get shorter, since the fixed part then weighs more:
    /// [`ProveReport::check_fixed_us`] and
    /// [`ProveReport::check_us_per_event`] say which part moved.
    pub fn checker_events_per_sec(&self) -> f64 {
        if self.check_micros == 0 {
            return 0.0;
        }
        self.events as f64 * 1e6 / self.check_micros as f64
    }
}

/// `(a, b)` of the least-squares line `y = a + b·x` through `points`;
/// `(mean y, 0)` when every `x` is the same.
fn fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// Schedule the first `runs` corpus blocks plain and with an in-memory
/// logger, time both (and a second plain pass) over the whole corpus at
/// once, then replay every complete certificate through the independent
/// checker, counting its allocations, and time each check.
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
        check_fixed_us: 0.0,
        check_us_per_event: 0.0,
        check_allocations: None,
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
    let mut certs = Vec::new();
    let mut counted = Some((0u64, 0u64));
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

        let (check, count) = allocations(|| check_certificate(&blocks[k], &machine, &cert));
        counted = counted
            .zip(count)
            .map(|((sum, most), c)| (sum + c, most.max(c)));
        match check.verdict {
            ProofVerdict::OptimalCertified { nops } if nops == logged.nops => report.proved += 1,
            _ => report.rejected += 1,
        }
        certs.push((k, cert));
    }
    let checked = certs.len().max(1) as f64;
    report.check_allocations = counted.map(|(sum, most)| (sum as f64 / checked, most));

    let mut costs = Vec::with_capacity(certs.len());
    let mut check_nanos = 0u64;
    for (k, cert) in &certs {
        let mut best = u64::MAX;
        for _ in 0..CHECK_PASSES {
            let t = Instant::now();
            std::hint::black_box(check_certificate(&blocks[*k], &machine, cert));
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        check_nanos += best;
        costs.push((cert.events.len() as f64, best as f64 / 1e3));
    }
    report.check_micros = check_nanos / 1_000;
    (report.check_fixed_us, report.check_us_per_event) = fit(&costs);

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
    t.row([
        "checker fixed cost (us per certificate)".to_string(),
        f(r.check_fixed_us, 2),
    ]);
    t.row([
        "checker cost per event (us)".to_string(),
        f(r.check_us_per_event, 4),
    ]);
    t.row([
        "checker allocations per certificate (mean, most)".to_string(),
        r.check_allocations
            .map_or("not counted".to_string(), |(mean, most)| {
                format!("{}, {most}", f(mean, 2))
            }),
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
        assert!(r.check_fixed_us + r.check_us_per_event > 0.0);
        // No counting allocator in this test binary.
        assert_eq!(r.check_allocations, None);
        let table = render(&r);
        assert!(table.render().contains("certificates accepted"));
        assert!(table.render().contains("not counted"));
    }

    #[test]
    fn the_fit_recovers_a_line() {
        let points: Vec<(f64, f64)> = (0..10)
            .map(|x| (f64::from(x), 3.0 + 0.5 * f64::from(x)))
            .collect();
        let (a, b) = fit(&points);
        assert!((a - 3.0).abs() < 1e-9 && (b - 0.5).abs() < 1e-9, "{a} {b}");
        assert_eq!(fit(&[(2.0, 4.0), (2.0, 6.0)]), (5.0, 0.0));
        assert_eq!(fit(&[]), (0.0, 0.0));
    }
}
