//! `repro` — regenerate every table and figure of Nisar & Dietz (1990).
//!
//! ```text
//! repro all       [--runs N] [--lambda L] [--threads T] [--out DIR]
//! repro table1
//! repro table7    [--runs N] ...
//! repro fig1|fig4|fig5|fig6|fig7
//! repro ablation  [--runs N]
//! repro windowed  [--runs N]
//! repro encodings [--runs N]
//! repro serve     [--runs N] [--threads T]   # memoized serving throughput
//! repro prove     [--runs N]   # certificate gate + proof-logging overhead + checker cost
//! repro solve     [--runs N] [--quick]   # SAT-vs-B&B cross-certification + OUT/BENCH_solve.json
//! repro parallel  [--runs N] [--quick]   # work-stealing speedup curve + OUT/BENCH_parallel.json
//! repro observe   [--runs N] [--quick]   # tracing overhead gate + OUT/BENCH_sched.json
//! repro verify    [--runs N]   # full end-to-end invariant gate
//! repro pairs     --parent REV --workload W [--pairs 10] [--seconds 36] [--seed 1]
//! ```
//!
//! `pairs` builds perfbench at `REV` (in a `git worktree` under
//! `target/pairs/`, removed once built) and at the working tree, offline
//! and `--locked`, runs the two in alternating order (parent first in
//! even pairs), and appends one schema-v2 record to
//! `BENCH_trajectory.json`: both revisions, the host's fingerprint, and
//! for every end-to-end metric of `BENCHMARK.json` each side's median and
//! quartiles, the pairs the change won and the verdict under the metric's
//! bound (see `pipesched_bench::ledger`).
//!
//! `table7` and the figures share one corpus sweep; running `all` performs
//! the sweep once and derives everything from it. Output goes to `--out`
//! (default `results/`) as aligned text and CSV, with each gate's
//! `BENCH_*.json` summary beside its table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use pipesched_bench::alloc_count::Counting;
use pipesched_bench::experiments::{
    ablation, encodings, observe, parallel, prove, serve, solve, sweep, table1, verify_sweep,
    windowed,
};
use pipesched_bench::ledger::{self, Fingerprint, PairsRun};
use pipesched_bench::report::{f, percentile, TextTable};
use pipesched_bench::{run_sweep, RunRecord, SweepConfig, SweepResult};
use pipesched_synth::CorpusSpec;

/// Counts allocations for `repro prove`'s checker report.
#[global_allocator]
static ALLOC: Counting = Counting;

#[derive(Clone)]
struct Args {
    command: String,
    runs: usize,
    lambda: u64,
    threads: usize,
    out: PathBuf,
    quick: bool,
    parent: Option<String>,
    workload: Option<String>,
    pairs: usize,
    seconds: f64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "all".to_string());
    let mut parsed = Args {
        command,
        runs: 16_000,
        lambda: 50_000,
        threads: 0,
        out: PathBuf::from("results"),
        quick: false,
        parent: None,
        workload: None,
        pairs: 10,
        seconds: 36.0,
        seed: 1,
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} requires a value"))
        };
        match flag.as_str() {
            "--runs" => parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--lambda" => parsed.lambda = value()?.parse().map_err(|e| format!("--lambda: {e}"))?,
            "--threads" => {
                parsed.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--quick" => parsed.quick = true,
            "--parent" => parsed.parent = Some(value()?),
            "--workload" => parsed.workload = Some(value()?),
            "--pairs" => parsed.pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };

    match args.command.as_str() {
        "table1" => run_table1(&args),
        "table7" | "fig1" | "fig4" | "fig5" | "fig6" | "fig7" => {
            let result = do_sweep(&args);
            match args.command.as_str() {
                "table7" => run_table7(&args, &result),
                "fig1" => run_fig1(&args, &result),
                "fig4" => run_fig4(&args, &result),
                "fig5" => run_fig5(&args, &result),
                "fig6" => run_fig6(&args, &result),
                "fig7" => run_fig7(&args, &result),
                _ => unreachable!(),
            }
        }
        "ablation" => run_ablation(&args),
        "windowed" => run_windowed(&args),
        "encodings" => run_encodings(&args),
        "serve" => run_serve(&args),
        "prove" => return verdict(run_prove(&args)),
        "solve" => return verdict(run_solve(&args)),
        "observe" => return verdict(run_observe(&args)),
        "parallel" => return verdict(run_parallel(&args)),
        "pairs" => {
            return verdict(
                run_pairs(&args)
                    .map_err(|e| eprintln!("pairs: {e}"))
                    .is_ok(),
            )
        }
        "verify" => {
            let runs = args.runs.min(2_000);
            eprintln!("verify: full end-to-end gate over {runs} blocks...");
            let report = verify_sweep::run(runs, args.lambda);
            println!(
                "verified {} blocks ({} provably optimal), {} instructions, {} NOPs total — all invariants hold",
                report.blocks, report.optimal, report.instructions, report.nops
            );
        }
        "all" => {
            run_table1(&args);
            let result = do_sweep(&args);
            run_table7(&args, &result);
            run_fig1(&args, &result);
            run_fig4(&args, &result);
            run_fig5(&args, &result);
            run_fig6(&args, &result);
            run_fig7(&args, &result);
            let ablation_args = Args {
                runs: args.runs.min(200),
                ..args.clone()
            };
            run_ablation(&ablation_args);
            run_windowed(&ablation_args);
            run_encodings(&ablation_args);
            run_serve(&ablation_args);
            // Every gated step runs, so one report shows each gate's
            // verdict; any failure then fails the whole run.
            let gates = [
                run_prove(&ablation_args),
                run_solve(&ablation_args),
                run_observe(&ablation_args),
                run_parallel(&ablation_args),
            ];
            return verdict(gates.iter().all(|&ok| ok));
        }
        other => {
            eprintln!(
                "repro: unknown command `{other}`\n\
                 commands: all table1 table7 fig1 fig4 fig5 fig6 fig7 ablation windowed encodings serve prove solve observe parallel verify pairs"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The exit status of a gated command: failure iff a gate failed.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro pairs`: perfbench at `--parent` against the working tree, in
/// alternating pairs, summarized into one ledger record.
fn run_pairs(args: &Args) -> Result<(), String> {
    let parent = args.parent.as_deref().ok_or("--parent REV is required")?;
    let workload = args.workload.as_deref().ok_or("--workload W is required")?;
    if args.pairs == 0 || !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--pairs and --seconds must be positive".into());
    }
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let read = |name: &str| {
        let path = root.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        pipesched_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let benchmark = read("BENCHMARK.json")?;
    let specs = ledger::end_to_end(&benchmark)?;
    let declared = benchmark
        .get("workloads")
        .and_then(pipesched_json::Json::as_array)
        .is_some_and(|ws| {
            ws.iter()
                .any(|w| w.get("name").and_then(pipesched_json::Json::as_str) == Some(workload))
        });
    if !declared {
        return Err(format!("BENCHMARK.json declares no workload `{workload}`"));
    }

    let parent_rev = git(
        &root,
        &["rev-parse", "--short", &format!("{parent}^{{commit}}")],
    )?;
    // The ledger itself does not make the change a different build.
    let dirty = git(&root, &["status", "--porcelain", "--untracked-files=no"])?
        .lines()
        .any(|l| !l.ends_with(" BENCH_trajectory.json"));
    let change_rev = git(&root, &["rev-parse", "--short", "HEAD"])? + if dirty { "+" } else { "" };
    let pairs_dir = root.join("target/pairs");
    eprintln!("pairs: building perfbench at {parent_rev} and at the working tree...");
    let parent_bin = build_parent(&root, &pairs_dir, &parent_rev)?;
    let change_bin = build_perfbench(
        &root.join("perfbench/Cargo.toml"),
        &root.join("perfbench/target"),
    )?;

    let mut runs = Vec::with_capacity(args.pairs);
    let mut failed_runs = 0;
    for i in 0..args.pairs {
        let mut order = [(&parent_bin, "parent"), (&change_bin, "change")];
        if i % 2 == 1 {
            order.reverse();
        }
        let (mut p, mut c) = (Vec::new(), Vec::new());
        for (bin, side) in order {
            let out = Command::new(bin)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .current_dir(&root)
                .output()
                .map_err(|e| format!("{}: {e}", bin.display()))?;
            let (metrics, failed) = ledger::parse_run(&String::from_utf8_lossy(&out.stdout))?;
            failed_runs += usize::from(failed);
            let get = |name: &str| {
                metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |m| m.1)
            };
            eprintln!(
                "pairs: {}/{} {side}: throughput {:.0}/s, p50 {:.2} us, tail {:.0} us{}",
                i + 1,
                args.pairs,
                get("throughput_per_s"),
                get("latency_us_p50"),
                get("latency_us_tail"),
                if failed { ", FAILED UNITS" } else { "" }
            );
            if side == "parent" {
                p = metrics;
            } else {
                c = metrics;
            }
        }
        runs.push((p, c));
    }

    let mut trajectory = read("BENCH_trajectory.json")?;
    let seq = ledger::next_seq(&trajectory);
    let run = PairsRun {
        parent_rev,
        change_rev,
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        failed_runs,
    };
    let record = ledger::record(seq, &run, &Fingerprint::here(), &specs, &runs);
    let mut table = TextTable::new(["metric", "parent", "change", "change better", "verdict"]);
    for spec in &specs {
        let m = record.get("metrics").and_then(|m| m.get(&spec.name));
        let side = |s: &str| {
            let q = m.and_then(|m| m.get(s));
            let v = |k: &str| {
                q.and_then(|q| q.get(k))
                    .and_then(pipesched_json::Json::as_f64)
            };
            format!(
                "{:.4} [{:.4}, {:.4}]",
                v("median").unwrap_or(f64::NAN),
                v("q1").unwrap_or(f64::NAN),
                v("q3").unwrap_or(f64::NAN)
            )
        };
        let field = |k: &str| m.and_then(|m| m.get(k));
        let wins = field("change_better_pairs").and_then(pipesched_json::Json::as_i64);
        let verdict = field("verdict").and_then(pipesched_json::Json::as_str);
        table.row([
            spec.name.clone(),
            side("parent"),
            side("change"),
            format!("{}/{}", wins.unwrap_or_default(), args.pairs),
            verdict.unwrap_or_default().to_string(),
        ]);
    }
    println!("{}", table.render());
    ledger::append(&mut trajectory, record)?;
    let path = root.join("BENCH_trajectory.json");
    std::fs::write(&path, format!("{}\n", trajectory.to_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "pairs: record seq {seq} ({workload}, seed {}, {} pairs of {} s) appended to {}",
        args.seed,
        args.pairs,
        args.seconds,
        path.display()
    );
    if failed_runs > 0 {
        return Err(format!("{failed_runs} runs reported failed units"));
    }
    Ok(())
}

/// Run `git` in `dir`; its trimmed standard output.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Build perfbench at `rev` in a worktree under `dir`, which is removed
/// once the build is done, and keep its binary as `dir/perfbench-REV`.
fn build_parent(root: &Path, dir: &Path, rev: &str) -> Result<PathBuf, String> {
    let tree = dir.join(format!("parent-{rev}"));
    let tree_arg = tree.to_string_lossy().into_owned();
    if tree.exists() {
        git(root, &["worktree", "remove", "--force", &tree_arg])?;
    }
    git(root, &["worktree", "add", "--detach", &tree_arg, rev])?;
    let target = dir.join("parent-target");
    let built = build_perfbench(&tree.join("perfbench/Cargo.toml"), &target);
    let removed = git(root, &["worktree", "remove", "--force", &tree_arg]);
    let built = built?;
    removed?;
    let bin = dir.join(format!("perfbench-{rev}"));
    std::fs::copy(&built, &bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    Ok(bin)
}

/// `cargo build --release --offline --locked` of the perfbench manifest
/// `manifest` into `target`; the binary's path.
fn build_perfbench(manifest: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .arg("--manifest-path")
        .arg(manifest)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(target.join("release/pipesched-perfbench"))
}

fn do_sweep(args: &Args) -> SweepResult {
    let config = SweepConfig {
        corpus: CorpusSpec::paper_default().with_runs(args.runs),
        lambda: args.lambda,
        threads: args.threads,
        ..SweepConfig::default()
    };
    eprintln!(
        "sweep: scheduling {} blocks (lambda={}, validating against the simulator)...",
        args.runs, args.lambda
    );
    let start = Instant::now();
    let result = run_sweep(&config);
    eprintln!(
        "sweep: done in {:.1}s ({:.0} blocks/s)",
        start.elapsed().as_secs_f64(),
        args.runs as f64 / start.elapsed().as_secs_f64()
    );
    result
}

fn save(args: &Args, name: &str, table: &TextTable, caption: &str) {
    println!("\n== {caption} ==\n{}", table.render());
    table.save(&args.out, name).expect("write results");
    println!("(saved to {}/{name}.txt and .csv)", args.out.display());
}

/// Write a `BENCH_*.json` summary into `--out`, beside its table.
fn save_summary(args: &Args, name: &str, doc: &pipesched_json::Json) {
    let path = args.out.join(name);
    std::fs::write(&path, format!("{}\n", doc.to_pretty()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("(benchmark summary saved to {})", path.display());
}

fn run_table1(args: &Args) {
    eprintln!("table1: three search regimes on representative blocks...");
    let rows = table1::run();
    let table = table1::render(&rows);
    save(
        args,
        "table1_search_space",
        &table,
        "Table 1: Search Space for Representative Examples",
    );
}

fn run_table7(args: &Args, result: &SweepResult) {
    let completed: Vec<&RunRecord> = result.records.iter().filter(|r| r.completed).collect();
    let truncated: Vec<&RunRecord> = result.records.iter().filter(|r| !r.completed).collect();
    let all_agg = sweep::aggregate(result.records.iter());
    let c = sweep::aggregate(completed.iter().copied());
    let t = sweep::aggregate(truncated.iter().copied());
    let total = result.records.len().max(1);

    let mut table = TextTable::new([
        "",
        "Search Completed (Optimal)",
        "Search Truncated (Suboptimal?)",
        "Totals",
    ]);
    table.row([
        "Number of Runs".to_string(),
        c.runs.to_string(),
        t.runs.to_string(),
        total.to_string(),
    ]);
    table.row([
        "Percentage of Runs".to_string(),
        format!("{}%", f(100.0 * c.runs as f64 / total as f64, 2)),
        format!("{}%", f(100.0 * t.runs as f64 / total as f64, 2)),
        "100%".to_string(),
    ]);
    table.row([
        "Avg. Instructions/Block".to_string(),
        f(c.avg_instructions, 2),
        f(t.avg_instructions, 2),
        f(all_agg.avg_instructions, 2),
    ]);
    table.row([
        "Avg. Initial NOPs".to_string(),
        f(c.avg_initial_nops, 2),
        f(t.avg_initial_nops, 2),
        f(all_agg.avg_initial_nops, 2),
    ]);
    table.row([
        "Avg. Final NOPs".to_string(),
        f(c.avg_final_nops, 2),
        f(t.avg_final_nops, 2),
        f(all_agg.avg_final_nops, 2),
    ]);
    table.row([
        "Avg. Omega Calls".to_string(),
        f(c.avg_omega, 1),
        f(t.avg_omega, 1),
        f(all_agg.avg_omega, 1),
    ]);
    table.row([
        "Avg. Search Time".to_string(),
        format!("{:?}", c.avg_time),
        format!("{:?}", t.avg_time),
        format!("{:?}", all_agg.avg_time),
    ]);
    save(
        args,
        "table7_summary",
        &table,
        &format!("Table 7: Statistics for Scheduling {total} Blocks"),
    );
}

/// Per-block-size aggregation used by several figures.
fn by_size(records: &[RunRecord]) -> BTreeMap<usize, Vec<&RunRecord>> {
    let mut map: BTreeMap<usize, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        map.entry(r.block_size).or_default().push(r);
    }
    map
}

fn run_fig1(args: &Args, result: &SweepResult) {
    // Scatter data: one row per completed run.
    let mut scatter = TextTable::new(["block_size", "omega_calls"]);
    for r in result.records.iter().filter(|r| r.completed) {
        scatter.row([r.block_size.to_string(), r.omega_calls.to_string()]);
    }
    scatter
        .save(&args.out, "fig1_scatter")
        .expect("write results");

    // Per-size summary for reading.
    let mut table = TextTable::new([
        "block size",
        "completed runs",
        "avg Ω",
        "median Ω",
        "p95 Ω",
        "max Ω",
    ]);
    for (size, rs) in by_size(&result.records) {
        let done: Vec<_> = rs.iter().filter(|r| r.completed).collect();
        if done.is_empty() {
            continue;
        }
        let omegas: Vec<u64> = done.iter().map(|r| r.omega_calls).collect();
        let avg = omegas.iter().sum::<u64>() as f64 / omegas.len() as f64;
        table.row([
            size.to_string(),
            done.len().to_string(),
            f(avg, 1),
            percentile(&omegas, 50.0).to_string(),
            percentile(&omegas, 95.0).to_string(),
            omegas.iter().copied().max().unwrap().to_string(),
        ]);
    }
    save(
        args,
        "fig1_schedules_searched",
        &table,
        "Figure 1: Schedules Searched vs Block Size (completed runs; scatter in fig1_scatter.csv)",
    );
}

fn run_fig4(args: &Args, result: &SweepResult) {
    let mut table = TextTable::new(["block size", "runs", "avg initial NOPs", "avg final NOPs"]);
    for (size, rs) in by_size(&result.records) {
        let n = rs.len() as f64;
        let init = rs.iter().map(|r| f64::from(r.initial_nops)).sum::<f64>() / n;
        let fin = rs.iter().map(|r| f64::from(r.final_nops)).sum::<f64>() / n;
        table.row([
            size.to_string(),
            rs.len().to_string(),
            f(init, 2),
            f(fin, 2),
        ]);
    }
    save(
        args,
        "fig4_initial_final_nops",
        &table,
        "Figure 4: Initial and Final NOPs vs Block Size",
    );
}

fn run_fig5(args: &Args, result: &SweepResult) {
    let mut table = TextTable::new(["block size", "blocks"]);
    for (size, rs) in by_size(&result.records) {
        table.row([size.to_string(), rs.len().to_string()]);
    }
    save(
        args,
        "fig5_block_size_distribution",
        &table,
        "Figure 5: Distribution of Sample Block Sizes",
    );
}

fn run_fig6(args: &Args, result: &SweepResult) {
    let mut table = TextTable::new([
        "block size",
        "runs",
        "avg time (us)",
        "median (us)",
        "p95 (us)",
        "max (us)",
    ]);
    for (size, rs) in by_size(&result.records) {
        let times: Vec<u64> = rs.iter().map(|r| r.search_micros).collect();
        let avg = times.iter().sum::<u64>() as f64 / times.len() as f64;
        table.row([
            size.to_string(),
            rs.len().to_string(),
            f(avg, 1),
            percentile(&times, 50.0).to_string(),
            percentile(&times, 95.0).to_string(),
            times.iter().copied().max().unwrap().to_string(),
        ]);
    }
    save(
        args,
        "fig6_runtime_vs_block_size",
        &table,
        "Figure 6: Runtime vs Block Size",
    );
}

fn run_fig7(args: &Args, result: &SweepResult) {
    let mut table = TextTable::new(["block size", "runs", "% optimal (not curtailed)"]);
    for (size, rs) in by_size(&result.records) {
        let optimal = rs.iter().filter(|r| r.completed).count();
        table.row([
            size.to_string(),
            rs.len().to_string(),
            f(100.0 * optimal as f64 / rs.len() as f64, 1),
        ]);
    }
    save(
        args,
        "fig7_percent_optimal",
        &table,
        "Figure 7: Percentage of Runs Finding Provably Optimal Schedules vs Block Size",
    );
}

fn run_encodings(args: &Args) {
    let runs = args.runs.min(300);
    eprintln!("encodings: {runs} blocks x {{wait-count, Tera 1-3 bit, CARP}}...");
    let (machine_name, rows) = encodings::run(runs, args.lambda);
    let table = encodings::render(&machine_name, &rows);
    save(
        args,
        "encodings",
        &table,
        "Delay-mechanism encodings: extra cycles vs precise interlock (optimally scheduled blocks)",
    );
}

fn run_windowed(args: &Args) {
    let blocks = (args.runs / 10).clamp(3, 20);
    eprintln!("windowed: {blocks} large blocks x {{5,10,20,full}}...");
    let rows = windowed::run(blocks, args.lambda);
    let table = windowed::render(&rows);
    save(
        args,
        "windowed",
        &table,
        "Windowed scheduling (section 5.3 future work): quality vs window size on large blocks",
    );
}

fn run_serve(args: &Args) {
    let requests = args.runs.clamp(40, 2_000);
    let shapes = (requests / 10).clamp(4, 32);
    let workers = if args.threads == 0 { 4 } else { args.threads };
    eprintln!("serve: {requests} requests over {shapes} shapes, {workers} workers...");
    let report = serve::run(requests, shapes, workers);
    println!(
        "serve: {} requests in {:.1} ms — {:.0} req/s, {} cache hits, mean hit/miss speedup {:.1}x",
        report.requests,
        report.wall_micros as f64 / 1_000.0,
        report.throughput_rps,
        report.cache_hits,
        report.speedup()
    );
    save(
        args,
        "serve_throughput",
        &report.table(),
        "Serving throughput: cache hits vs live searches on a repeated-shapes workload",
    );
}

/// Certificate gate: the checker must accept every certificate a
/// completed search emits. Returns `false` on any rejection; the
/// disabled-path delta is timing, so over budget it only warns.
fn run_prove(args: &Args) -> bool {
    let runs = args.runs.min(300);
    eprintln!("prove: {runs} blocks x {{plain, logged, plain}} + checker replay...");
    let report = prove::run(runs, args.lambda);
    let allocations = report
        .check_allocations
        .map_or("uncounted".to_string(), |(mean, _)| format!("{mean:.2}"));
    println!(
        "prove: {} certificates accepted, {} rejected, {} truncated — \
         disabled-path delta {:.2}%, logging overhead {:.2}%, checker {:.0} events/s \
         ({:.2} us per certificate + {:.4} us per event, {allocations} allocations \
         per certificate)",
        report.proved,
        report.rejected,
        report.truncated,
        report.disabled_overhead_pct(),
        report.logging_overhead_pct(),
        report.checker_events_per_sec(),
        report.check_fixed_us,
        report.check_us_per_event,
    );
    let ok = report.rejected == 0;
    if !ok {
        eprintln!("prove: GATE FAILED — the checker rejected a search certificate");
    }
    if report.disabled_overhead_pct() >= 2.0 {
        eprintln!(
            "prove: note — disabled-path delta {:.2}% exceeds the 2% budget (noisy machine?)",
            report.disabled_overhead_pct()
        );
    }
    save(
        args,
        "prove_overhead",
        &prove::render(&report),
        "Optimality certificates: logging overhead and checker cost",
    );
    ok
}

/// Backend-portfolio gate: SAT and B&B must agree on every proven-optimal
/// μ and every SAT outcome must audit clean. Returns `false` when either
/// gate fails; performance numbers only inform.
fn run_solve(args: &Args) -> bool {
    let runs = if args.quick { 40 } else { args.runs.min(300) };
    eprintln!("solve: {runs} blocks x {{branch-and-bound, SAT descent}} + cross-certification...");
    let report = solve::run(runs, args.lambda);
    println!(
        "solve: {} comparable blocks, {} agreements, {} disagreements, {} audit failures — \
         SAT faster on {}, B&B faster on {} ({} closed by bound)",
        report.both_optimal,
        report.agreements,
        report.disagreements,
        report.audit_failures,
        report.sat_faster,
        report.bnb_faster,
        report.proved_by_bound
    );
    let mut ok = true;
    if report.disagreements > 0 {
        eprintln!(
            "solve: GATE FAILED — {} blocks where SAT and B&B disagree on the optimal NOP count",
            report.disagreements
        );
        ok = false;
    }
    if report.audit_failures > 0 {
        eprintln!(
            "solve: GATE FAILED — {} SAT outcomes rejected by the independent audit",
            report.audit_failures
        );
        ok = false;
    }
    save(
        args,
        "solve_portfolio",
        &report.table(),
        "Backend portfolio: SAT descent vs branch-and-bound, cross-certified",
    );
    save_summary(args, "BENCH_solve.json", &report.to_json());
    ok
}

/// Tracing-overhead gate. Returns `false` when the replay itself failed
/// (errors or a broken search identity) — measurement noise on the
/// overhead delta only warns, like `prove`.
fn run_observe(args: &Args) -> bool {
    let requests = if args.quick {
        60
    } else {
        args.runs.clamp(40, 2_000)
    };
    let shapes = (requests / 10).clamp(4, 32);
    let workers = if args.threads == 0 { 4 } else { args.threads };
    eprintln!(
        "observe: {requests} requests over {shapes} shapes, {workers} workers, \
         5 x {{off, off, on}} replays..."
    );
    let report = observe::run(requests, shapes, workers);
    println!(
        "observe: {} req/s, p90 {} µs — disabled-path delta {:.2}%, tracing-on overhead {:.2}%, \
         flight-on overhead {:.2}%",
        f(report.throughput_rps, 0),
        report.p90_micros,
        report.disabled_overhead_pct(),
        report.traced_overhead_pct(),
        report.flight_overhead_pct()
    );
    let mut ok = true;
    if report.errors > 0 {
        eprintln!("observe: GATE FAILED — {} error responses", report.errors);
        ok = false;
    }
    if !report.identity_ok {
        eprintln!("observe: GATE FAILED — aggregate search identity broken");
        ok = false;
    }
    if report.disabled_overhead_pct() >= 2.0 {
        eprintln!(
            "observe: note — disabled-path delta {:.2}% exceeds the 2% budget (noisy machine?)",
            report.disabled_overhead_pct()
        );
    }
    // The disabled passes now run with tracing AND the flight recorder
    // compiled in but off, so the same < 2% budget covers the recorder's
    // off path (one relaxed load per request).
    save(
        args,
        "observe",
        &report.table(),
        "Tracing: disabled-path delta, tracing-on overhead, fleet-wide metrics",
    );
    save_summary(args, "BENCH_sched.json", &report.to_json());
    ok
}

/// Parallel-search gate: the pool must agree with the serial kernel on
/// every corpus block, every merged multi-worker certificate must pass
/// the independent checker, and — on hosts with at least 4 cores — the
/// 4-worker speedup on the hard block must reach 2×. The full 1/2/4/8
/// curve lands in `BENCH_parallel.json` in `--out` either way.
fn run_parallel(args: &Args) -> bool {
    let (runs, curve_size) = if args.quick {
        (24, 28)
    } else {
        (args.runs.min(120), 30)
    };
    eprintln!(
        "parallel: {runs} corpus blocks serial-vs-pool + speedup curve on a {curve_size}-instruction block..."
    );
    let report = parallel::run(runs, args.lambda, curve_size);
    println!(
        "parallel: {} disagreements over {} blocks, {} of {} certificates rejected — \
         speedups x2={:.2} x4={:.2} x8={:.2} on {} core(s)",
        report.disagreements,
        report.corpus_blocks,
        report.certificates_rejected,
        report.certificates_checked,
        report.speedup_at(2),
        report.speedup_at(4),
        report.speedup_at(8),
        report.cores
    );
    let mut ok = true;
    if report.disagreements > 0 {
        eprintln!(
            "parallel: GATE FAILED — {} blocks where the pool disagrees with the serial kernel",
            report.disagreements
        );
        ok = false;
    }
    if report.certificates_rejected > 0 {
        eprintln!(
            "parallel: GATE FAILED — {} merged certificates rejected by the checker",
            report.certificates_rejected
        );
        ok = false;
    }
    if report.gate_proof_steals == 0 {
        eprintln!(
            "parallel: GATE FAILED — the 2-worker proof of the {}-instruction gate block \
             recorded no steal in {} attempts: the block is no longer hard enough to run \
             a helper (re-pick `curve_salt`)",
            parallel::GATE_SIZE,
            parallel::GATE_PROOF_ATTEMPTS
        );
        ok = false;
    }
    if report.scaling_gate_applies() {
        if report.speedup_at(4) < 2.0 {
            eprintln!(
                "parallel: GATE FAILED — {:.2}x at 4 workers is below the 2x floor on a {}-core host",
                report.speedup_at(4),
                report.cores
            );
            ok = false;
        }
    } else {
        eprintln!(
            "parallel: note — {} core(s) reported; the 2x-at-4-workers gate needs 4 and was skipped",
            report.cores
        );
    }
    save(
        args,
        "parallel_speedup",
        &report.table(),
        "Work-stealing parallel search: speedup curve and consistency gates",
    );
    save_summary(args, "BENCH_parallel.json", &report.to_json());
    ok
}

fn run_ablation(args: &Args) {
    let runs = args.runs.min(400);
    eprintln!("ablation: {runs} blocks per configuration...");
    let rows = ablation::run(runs, args.lambda);
    let table = ablation::render(&rows);
    save(
        args,
        "ablation",
        &table,
        "Ablation: pruning devices, bounds, baselines",
    );
}
