//! Work-stealing parallel search: speedup curve and consistency gates.
//!
//! Two questions, one experiment:
//!
//! 1. **Does it scale?** The hardest representative block is scheduled by
//!    the serial kernel and by the pool at 1, 2, 4 and 8 workers; each
//!    row records wall clock, steal/split counters, and the speedup over
//!    serial. The ≥2× gate at 4 workers only applies when the host
//!    actually has 4 cores (`std::thread::available_parallelism`) — the
//!    curve itself is always published in `BENCH_parallel.json` (in `--out`).
//! 2. **Is it still exact?** Every corpus block is scheduled serially and
//!    in parallel (cycling through the thread counts) — any optimal-NOP
//!    disagreement fails the gate — and a slice of the blocks runs the
//!    parallel prover, whose merged multi-worker certificate must pass
//!    the independent `pipesched-proof` checker. Corpus blocks mostly
//!    settle before the pool starts its helper threads, so a hard gate
//!    block is also proved by a 2-worker pool with every placement its
//!    own task, and that proof must record a steal: a certificate built
//!    while a helper really ran. A stronger bound can shrink the gate
//!    block's tree until it stops being hard, and this gate is what says
//!    so.

use std::time::Instant;

use pipesched_core::parallel::{parallel_prove, parallel_search};
use pipesched_core::{search, ParallelConfig, SchedContext, SearchConfig, SearchOutcome};
use pipesched_ir::DepDag;
use pipesched_json::{json_object, Json};
use pipesched_machine::presets;
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_synth::CorpusSpec;

use crate::experiments::blocks::block_of_size;
use crate::report::{f, TextTable};

/// Thread counts the speedup curve samples.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One point of the speedup curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRow {
    /// Pool workers.
    pub threads: usize,
    /// Best-of-three wall clock on the hard block, microseconds.
    pub micros: u64,
    /// Optimal NOP count the pool found (must equal serial).
    pub nops: u32,
    /// Subtree tasks split off for stealing.
    pub splits: u64,
    /// Tasks actually stolen by idle workers.
    pub steals: u64,
}

/// Aggregate result of the parallel-search experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Instructions in the hard curve block.
    pub block_size: usize,
    /// Cores the host reports (`available_parallelism`).
    pub cores: usize,
    /// Serial kernel best-of-three wall clock on the hard block, µs.
    pub serial_micros: u64,
    /// Serial optimal NOP count on the hard block.
    pub serial_nops: u32,
    /// The speedup curve, one row per thread count.
    pub rows: Vec<ThreadRow>,
    /// Corpus blocks cross-checked serial vs parallel.
    pub corpus_blocks: usize,
    /// Corpus blocks where parallel disagreed with serial (must be 0).
    pub disagreements: usize,
    /// Merged multi-worker certificates replayed by the checker.
    pub certificates_checked: usize,
    /// Certificates the checker rejected (must be 0).
    pub certificates_rejected: usize,
    /// Steals the 2-worker proof of the gate block recorded (must be at
    /// least 1, within [`GATE_PROOF_ATTEMPTS`] attempts).
    pub gate_proof_steals: u64,
}

impl ParallelReport {
    /// Measured speedup over serial at `threads` workers (NaN if the
    /// thread count was not sampled).
    pub fn speedup_at(&self, threads: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.threads == threads)
            .map_or(f64::NAN, |r| {
                self.serial_micros as f64 / r.micros.max(1) as f64
            })
    }

    /// True when the scaling gate applies on this host: the ≥2×-at-4
    /// claim needs 4 real cores to be testable.
    pub fn scaling_gate_applies(&self) -> bool {
        self.cores >= 4
    }

    /// The hard gates: exactness always, a gate-block proof that ran its
    /// helper, and scaling only with enough cores.
    pub fn gates_hold(&self) -> bool {
        self.disagreements == 0
            && self.certificates_rejected == 0
            && self.gate_proof_steals > 0
            && (!self.scaling_gate_applies() || self.speedup_at(4) >= 2.0)
    }

    /// Render the experiment as a metric table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["configuration", "wall (µs)", "speedup", "splits", "steals"]);
        t.row([
            format!("serial (block of {})", self.block_size),
            self.serial_micros.to_string(),
            "1.00".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        for r in &self.rows {
            t.row([
                format!("parallel x{}", r.threads),
                r.micros.to_string(),
                f(self.serial_micros as f64 / r.micros.max(1) as f64, 2),
                r.splits.to_string(),
                r.steals.to_string(),
            ]);
        }
        t.row([
            "corpus disagreements".to_string(),
            self.disagreements.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        t.row([
            "certificates rejected".to_string(),
            format!(
                "{} of {}",
                self.certificates_rejected, self.certificates_checked
            ),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        t
    }

    /// The machine-readable `BENCH_parallel.json` document.
    pub fn to_json(&self) -> Json {
        let curve: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                json_object![
                    ("threads", r.threads as i64),
                    ("micros", r.micros as i64),
                    ("nops", i64::from(r.nops)),
                    (
                        "speedup",
                        self.serial_micros as f64 / r.micros.max(1) as f64
                    ),
                    ("splits", r.splits as i64),
                    ("steals", r.steals as i64),
                ]
            })
            .collect();
        json_object![
            ("experiment", "parallel"),
            ("block_size", self.block_size as i64),
            ("cores", self.cores as i64),
            ("serial_micros", self.serial_micros as i64),
            ("serial_nops", i64::from(self.serial_nops)),
            ("curve", Json::Array(curve)),
            ("corpus_blocks", self.corpus_blocks as i64),
            ("disagreements", self.disagreements as i64),
            ("certificates_checked", self.certificates_checked as i64),
            ("certificates_rejected", self.certificates_rejected as i64),
            ("gate_block_size", GATE_SIZE as i64),
            ("gate_proof_steals", self.gate_proof_steals as i64),
            ("scaling_gate_applies", self.scaling_gate_applies()),
            ("gates_hold", self.gates_hold()),
        ]
    }
}

/// Best-of-three wall clock of `body`, microseconds.
fn best_of_three<T>(mut body: impl FnMut() -> T) -> (u64, T) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        let out = body();
        best = best.min(t.elapsed().as_micros() as u64);
        last = Some(out);
    }
    (best, last.expect("three runs happened"))
}

/// Salt making `block_of_size(size, salt)` a genuinely hard search on the
/// deep-pipeline machine — picked by scanning salts 0..48 for the largest
/// Ω count of a default search that completes within λ = 1,000,000 (most
/// blocks are proved by the seed in microseconds and would measure
/// nothing but pool overhead). Re-pick when the bound changes: the steal
/// gate fails once its block stops being hard.
fn curve_salt(size: usize) -> u64 {
    match size {
        28 => 35, // ~2.8k Ω calls to prove optimal
        30 => 41, // ~9.1k Ω calls to prove optimal
        _ => 17,
    }
}

/// Instructions of the steal gate's block, in every profile: the
/// 30-instruction block of [`curve_salt`], about 9.1k Ω to prove on the
/// deep-pipeline machine, proved with `split_depth` = its length, so every
/// placement is a task a helper can steal. The quick curve block (28
/// instructions, 2.8k Ω) under the default split often ends before a
/// late-scheduled helper finds work.
pub const GATE_SIZE: usize = 30;

/// Times the gate block is proved by two workers before the steal gate
/// fails: a helper the OS schedules late can find nothing left to steal.
pub const GATE_PROOF_ATTEMPTS: usize = 3;

/// The checker certified the prover's outcome at the serial optimum.
fn certifies(verdict: &ProofVerdict, proved: &SearchOutcome, serial_nops: u32) -> bool {
    matches!(verdict, ProofVerdict::OptimalCertified { nops }
        if proved.optimal && *nops == serial_nops)
}

/// Run the speedup curve on a hard block of `curve_size` instructions and
/// the consistency gates over `runs` corpus blocks.
pub fn run(runs: usize, lambda: u64, curve_size: usize) -> ParallelReport {
    let machine = presets::paper_simulation();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Speedup curve on one hard representative block. The deep-pipeline
    // machine's long latencies keep the bound weak, so the search tree is
    // deep enough for the pool to split real work.
    let curve_machine = presets::deep_pipeline();
    let hard = block_of_size(curve_size, curve_salt(curve_size));
    let dag = DepDag::build(&hard);
    let ctx = SchedContext::new(&hard, &dag, &curve_machine);
    let cfg = SearchConfig::with_lambda(u64::MAX);
    let (serial_micros, serial) = best_of_three(|| search(&ctx, &cfg));

    let mut disagreements = 0usize;
    let mut rows = Vec::new();
    for threads in THREADS {
        let par_cfg = ParallelConfig::with_threads(threads);
        let (micros, out) = best_of_three(|| parallel_search(&ctx, &cfg, &par_cfg));
        if !(out.optimal && out.nops == serial.nops) {
            disagreements += 1;
        }
        rows.push(ThreadRow {
            threads,
            micros,
            nops: out.nops,
            splits: out.stats.splits,
            steals: out.stats.steals,
        });
    }

    // The gate block proved by a 2-worker pool, far past its helper
    // threshold and with every placement a task, until the proof records
    // a steal, and each merged certificate replayed by the independent
    // checker; the corpus blocks below add theirs.
    let gate = block_of_size(GATE_SIZE, curve_salt(GATE_SIZE));
    let gate_dag = DepDag::build(&gate);
    let gate_ctx = SchedContext::new(&gate, &gate_dag, &curve_machine);
    let gate_nops = search(&gate_ctx, &cfg).nops;
    let forced = ParallelConfig {
        threads: 2,
        split_depth: gate.len(),
    };
    let mut certificates_checked = 0usize;
    let mut certificates_rejected = 0usize;
    let mut gate_proof_steals = 0;
    for _ in 0..GATE_PROOF_ATTEMPTS {
        let (proved, proof) = parallel_prove(&gate_ctx, &cfg, &forced);
        let check = check_certificate(&gate, &curve_machine, &proof.merge());
        certificates_checked += 1;
        if !certifies(&check.verdict, &proved, gate_nops) {
            certificates_rejected += 1;
        }
        gate_proof_steals = proved.stats.steals;
        if gate_proof_steals > 0 {
            break;
        }
    }

    // Corpus consistency: serial vs parallel on every block, cycling
    // through the thread counts; every fourth block also runs the prover
    // and replays the merged certificate through the independent checker.
    let corpus = CorpusSpec::paper_default().with_runs(runs);
    for k in 0..runs {
        let block = corpus.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(lambda);
        let serial = search(&ctx, &cfg);
        let par_cfg = ParallelConfig::with_threads(THREADS[k % THREADS.len()]);
        let par = parallel_search(&ctx, &cfg, &par_cfg);
        if serial.optimal != par.optimal || (serial.optimal && serial.nops != par.nops) {
            disagreements += 1;
            continue;
        }
        if k % 4 == 0 && serial.optimal {
            let (proved, proof) = parallel_prove(&ctx, &cfg, &par_cfg);
            certificates_checked += 1;
            let check = check_certificate(&block, &machine, &proof.merge());
            if !certifies(&check.verdict, &proved, serial.nops) {
                certificates_rejected += 1;
            }
        }
    }

    ParallelReport {
        block_size: hard.len(),
        cores,
        serial_micros,
        serial_nops: serial.nops,
        rows,
        corpus_blocks: runs,
        disagreements,
        certificates_checked,
        certificates_rejected,
        gate_proof_steals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_gates_hold_on_the_corpus() {
        let r = run(16, 50_000, 12);
        assert_eq!(r.corpus_blocks, 16);
        assert_eq!(r.disagreements, 0, "parallel disagrees with serial");
        assert_eq!(r.certificates_rejected, 0, "a merged certificate failed");
        assert!(r.certificates_checked >= 2);
        assert_eq!(r.rows.len(), THREADS.len());
        for row in &r.rows {
            assert_eq!(row.nops, r.serial_nops);
        }
        let doc = r.to_json();
        assert_eq!(doc.get("disagreements").and_then(Json::as_i64), Some(0));
        assert!(r.table().render().contains("corpus disagreements"));
    }
}
