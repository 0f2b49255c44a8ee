//! `pipesched` — optimal pipeline scheduling from the command line.
//!
//! Every subcommand reads one option grammar ([`parse_options`]), and
//! `pipesched --help` lists the flags each takes. The flags that choose
//! the search mean the same wherever they appear:
//!
//! ```text
//! --machine    preset name (paper-simulation, paper-table2, deep-pipeline,
//!              functional-units, section2-example, unpipelined), a JSON
//!              machine description or a .mach file; default paper-simulation
//! --lambda     curtail point (default 50000)
//! --threads    branch-and-bound workers: 1 (the default) runs the serial
//!              kernel, N > 1 the work-stealing pool, 0 one worker per CPU
//! --backend    bnb (default) | sat | race — the exact engine: the paper's
//!              branch-and-bound, the CDCL SAT portfolio, or both raced and
//!              cross-certified (any disagreement is a hard error)
//! --window     windowed scheduling with the given window length
//! --proof      stream the search's optimality certificate to this file
//! ```
//!
//! `schedule`, `certify` and `prove` schedule through one dispatch
//! ([`schedule_block`]). [`reject_conflicts`] refuses a combination only
//! where it has no meaning, with one error that names both flags: a
//! windowed schedule makes no optimality claim to prove and has no worker
//! pool, and the SAT backend has no window, pool or certificate.

use std::io::{Read, Write};
use std::process::ExitCode;

use pipesched::analyze;
use pipesched::core::proof::{Certificate, ProofLogger, ProofOutput};
use pipesched::core::{
    global_lower_bound, list_schedule, run, windowed_schedule, Backend, ParallelConfig, Run,
    SchedContext, SearchConfig, SearchOutcome, SearchStats,
};
use pipesched::frontend::{
    compile_unoptimized, lower_with_lines, parse_labeled_program, OptConfig, OptStats,
};
use pipesched::ir::{dot, parse::parse_block, BasicBlock, DepDag};
use pipesched::json::Json;
use pipesched::machine::{config as machine_config, presets, Machine};
use pipesched::regalloc::{allocate, emit, max_pressure};
use pipesched::sim::{pad_schedule, TimingModel, Trace};

/// The subcommands; `Schedule` is also what a bare `pipesched <input>`
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Schedule,
    Lint,
    Certify,
    Prove,
    Serve,
    Batch,
    Stats,
    Trace,
    Flight,
}

/// Subcommand names, as typed.
const SUBCOMMANDS: [(&str, Cmd); 9] = [
    ("schedule", Cmd::Schedule),
    ("lint", Cmd::Lint),
    ("certify", Cmd::Certify),
    ("prove", Cmd::Prove),
    ("serve", Cmd::Serve),
    ("batch", Cmd::Batch),
    ("stats", Cmd::Stats),
    ("trace", Cmd::Trace),
    ("flight", Cmd::Flight),
];

/// Every subcommand's options; [`parse_options`] says which subcommand
/// takes which flag.
struct Options {
    inputs: Vec<String>,
    machine: String,
    emit: String,
    lambda: u64,
    window: Option<usize>,
    threads: usize,
    backend: Backend,
    proof: Option<String>,
    optimize: bool,
    regs: Option<usize>,
    json: bool,
    /// `lint --frontend`: validate the optimizer transcript and lint the
    /// optimized block too.
    frontend: bool,
    /// `lint --strict`: warnings also fail the exit code.
    strict: bool,
    /// `lint --concurrency`: static lock-order scan over Rust sources
    /// instead of IR linting (inputs become directories to scan).
    concurrency: bool,
    workers: usize,
    nodes: u64,
    tcp: Option<String>,
    cache: usize,
    shards: usize,
    conns: Option<u64>,
    cache_file: Option<String>,
    metrics: bool,
    trace: bool,
    flight: bool,
    verify_opt: bool,
    check: bool,
    prove: bool,
    require_hits: bool,
    quiet: bool,
    prom: bool,
    flame: bool,
    ndjson: bool,
    dumps: bool,
    events: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            inputs: Vec::new(),
            machine: "paper-simulation".into(),
            emit: "asm".into(),
            lambda: 50_000,
            window: None,
            threads: 1,
            backend: Backend::Bnb,
            proof: None,
            optimize: true,
            regs: None,
            json: false,
            frontend: false,
            strict: false,
            concurrency: false,
            workers: 4,
            nodes: pipesched::service::EngineConfig::default().default_nodes,
            tcp: None,
            cache: 1024,
            shards: 8,
            conns: None,
            cache_file: None,
            metrics: false,
            trace: false,
            flight: true,
            verify_opt: false,
            check: false,
            prove: false,
            require_hits: false,
            quiet: false,
            prom: false,
            flame: false,
            ndjson: false,
            dumps: false,
            events: 64,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pipesched [schedule] <input> [--machine NAME|FILE] [--emit asm|padded|trace|gantt|tuples|dot|stats]\n\
         \x20                [--lambda N] [--window N] [--threads N] [--backend bnb|sat|race]\n\
         \x20                [--no-optimize] [--regs N] [--json] [--proof FILE.ndjson]\n\
         \x20      pipesched lint [INPUT|DIR ...] [--machine NAME|FILE] [--json] [--no-optimize]\n\
         \x20                [--frontend] [--strict]\n\
         \x20      pipesched lint --concurrency [DIR ...] [--json] [--strict]\n\
         \x20      pipesched certify <input> [--machine NAME|FILE] [--lambda N] [--window N]\n\
         \x20                [--threads N] [--json] [--no-optimize] [--proof FILE.ndjson]\n\
         \x20      pipesched prove [INPUT ...] [--machine NAME|FILE] [--lambda N] [--threads N]\n\
         \x20                [--json] [--no-optimize] [--proof FILE.ndjson]\n\
         \x20      pipesched serve [--workers N] [--nodes N] [--cache N] [--shards N]\n\
         \x20                [--threads N] [--tcp ADDR[:PORT]] [--conns N] [--cache-file FILE]\n\
         \x20                [--metrics] [--trace] [--no-flight] [--verify-opt] [--backend bnb|sat|race]\n\
         \x20      pipesched batch <requests.ndjson> [--workers N] [--nodes N] [--cache N]\n\
         \x20                [--threads N] [--check] [--prove] [--require-hits] [--json]\n\
         \x20                [--quiet] [--tcp ADDR[:PORT]] [--verify-opt] [--backend bnb|sat|race]\n\
         \x20      pipesched stats [<requests.ndjson> | --tcp ADDR[:PORT]] [--json | --prom]\n\
         \x20                [--workers N] [--nodes N]\n\
         \x20      pipesched trace <input> [--machine NAME|FILE] [--lambda N] [--no-optimize]\n\
         \x20                [--flame | --ndjson]\n\
         \x20      pipesched flight [<requests.ndjson> | --tcp ADDR[:PORT]] [-n N]\n\
         \x20                [--ndjson | --flame | --dumps] [--workers N] [--nodes N]\n\
         --threads N: 1 (default) runs the serial branch-and-bound, N > 1 the work-stealing\n\
         \x20            pool of N workers, 0 one worker per CPU"
    );
    std::process::exit(2)
}

/// Parse `text` as the value of `flag`.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The one option grammar: each flag lists the subcommands that take it,
/// and any other flag is an unknown argument.
fn parse_options(cmd: Cmd, mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    use Cmd::*;
    const COMPILE: &[Cmd] = &[Schedule, Lint, Certify, Prove, Trace];
    const SEARCH: &[Cmd] = &[Schedule, Lint, Certify, Prove];
    const ANALYZE: &[Cmd] = &[Lint, Certify, Prove];
    const FLEET: &[Cmd] = &[Serve, Batch, Stats, Flight];
    const ENGINE: &[Cmd] = &[Serve, Batch];
    let on = |cmds: &[Cmd]| cmds.contains(&cmd);
    let mut o = Options::default();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--machine" if on(COMPILE) => o.machine = value()?,
            "--lambda" if on(COMPILE) => o.lambda = number(&a, &value()?)?,
            "--no-optimize" if on(COMPILE) => o.optimize = false,
            "--window" if on(SEARCH) => {
                let w = number(&a, &value()?)?;
                if w == 0 {
                    return Err("--window must be at least 1".into());
                }
                o.window = Some(w);
            }
            "--proof" if on(SEARCH) => o.proof = Some(value()?),
            "--threads" if on(SEARCH) || on(ENGINE) => o.threads = number(&a, &value()?)?,
            "--backend" if cmd == Schedule || on(ENGINE) => {
                let name = value()?;
                o.backend = Backend::from_name(&name)
                    .ok_or_else(|| format!("--backend: unknown backend `{name}` (bnb|sat|race)"))?;
            }
            "--json" if on(SEARCH) || cmd == Batch || cmd == Stats => o.json = true,
            "--emit" if cmd == Schedule => o.emit = value()?,
            "--regs" if cmd == Schedule => o.regs = Some(number(&a, &value()?)?),
            "--frontend" if on(ANALYZE) => o.frontend = true,
            "--strict" if on(ANALYZE) => o.strict = true,
            "--concurrency" if on(ANALYZE) => o.concurrency = true,
            "--workers" if on(FLEET) => o.workers = number(&a, &value()?)?,
            "--nodes" if on(FLEET) => o.nodes = number(&a, &value()?)?,
            "--tcp" if on(FLEET) => o.tcp = Some(value()?),
            "--cache" if on(ENGINE) => o.cache = number(&a, &value()?)?,
            "--verify-opt" if on(ENGINE) => o.verify_opt = true,
            "--shards" if cmd == Serve => o.shards = number(&a, &value()?)?,
            "--conns" if cmd == Serve => o.conns = Some(number(&a, &value()?)?),
            "--cache-file" if cmd == Serve => o.cache_file = Some(value()?),
            "--metrics" if cmd == Serve => o.metrics = true,
            "--trace" if cmd == Serve => o.trace = true,
            "--no-flight" if cmd == Serve => o.flight = false,
            "--check" if cmd == Batch => o.check = true,
            "--prove" if cmd == Batch => o.prove = true,
            "--require-hits" if cmd == Batch => o.require_hits = true,
            "--quiet" if cmd == Batch => o.quiet = true,
            "--prom" if cmd == Stats => o.prom = true,
            "--flame" if cmd == Trace || cmd == Flight => o.flame = true,
            "--ndjson" if cmd == Trace || cmd == Flight => o.ndjson = true,
            "-n" | "--events" if cmd == Flight => o.events = number("-n", &value()?)?,
            "--dumps" if cmd == Flight => o.dumps = true,
            "--help" | "-h" => usage(),
            input
                if (input == "-" || !input.starts_with('-'))
                    && cmd != Serve
                    && (o.inputs.is_empty() || on(ANALYZE)) =>
            {
                o.inputs.push(input.to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Reject the search flags that have no meaning together, with one error
/// naming both. The `prove` subcommand always proves, so it conflicts
/// like `--proof`.
fn reject_conflicts(cmd: Cmd, o: &Options) -> Result<(), String> {
    let proof = match cmd {
        Cmd::Prove => Some("prove".to_string()),
        _ => o.proof.as_ref().map(|_| "--proof".to_string()),
    };
    let window = o.window.map(|_| "--window".to_string());
    let threads = (o.threads != 1).then(|| format!("--threads {}", o.threads));
    let backend = (o.backend != Backend::Bnb).then(|| format!("--backend {}", o.backend));
    let conflict = |a: &Option<String>, b: &Option<String>, why: &str| match (a, b) {
        (Some(a), Some(b)) => Err(format!("{a} cannot be combined with {b}: {why}")),
        _ => Ok(()),
    };
    conflict(&window, &proof, "a windowed schedule claims no optimum")?;
    conflict(&window, &threads, "the windowed search has no pool")?;
    conflict(&backend, &window, "windows belong to the branch-and-bound")?;
    conflict(&backend, &threads, "the pool is the branch-and-bound's")?;
    conflict(&backend, &proof, "a certificate is a B&B transcript")
}

fn load_machine(spec: &str) -> Result<Machine, String> {
    match spec {
        "paper-simulation" => Ok(presets::paper_simulation()),
        "paper-table2" => Ok(presets::table2_example()),
        "deep-pipeline" => Ok(presets::deep_pipeline()),
        "functional-units" => Ok(presets::functional_units()),
        "section2-example" => Ok(presets::section2_example()),
        "unpipelined" => Ok(presets::unpipelined()),
        path if path.ends_with(".json") => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            machine_config::from_json(&text).map_err(|e| e.to_string())
        }
        path if path.ends_with(".mach") => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            pipesched::machine::textfmt::parse(&text).map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown machine `{other}` (preset name, .json or .mach file expected)"
        )),
    }
}

/// Read an input argument (`-` for stdin) into a string.
fn read_input(input: &str) -> Result<String, String> {
    if input == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))
    }
}

/// Optimize under translation validation: every rewrite the optimizer
/// performs must be justified by its witness transcript, or the CLI
/// refuses the block outright with the `A05xx` report.
fn optimize_checked(block: &BasicBlock) -> Result<(BasicBlock, OptStats), String> {
    analyze::optimize_verified(block, &OptConfig::default()).map_err(|rej| rej.to_string())
}

fn load_block_from(input: &str, optimize: bool) -> Result<BasicBlock, String> {
    load_block_with_stats(input, optimize).map(|(block, _)| block)
}

/// [`load_block_from`], additionally returning the optimizer statistics
/// when the front-end optimizer ran (source input with optimization on).
fn load_block_with_stats(
    input: &str,
    optimize: bool,
) -> Result<(BasicBlock, Option<OptStats>), String> {
    let text = read_input(input)?;
    // Tuple files start with a `;; tuples` marker; everything else is
    // source text.
    if text.trim_start().starts_with(";; tuples") {
        return Ok((parse_block(input, &text).map_err(|e| e.to_string())?, None));
    }
    let block = compile_unoptimized(input, &text).map_err(|e| e.to_string())?;
    if optimize {
        let (optimized, stats) = optimize_checked(&block)?;
        Ok((optimized, Some(stats)))
    } else {
        Ok((block, None))
    }
}

fn main() -> ExitCode {
    let first = std::env::args().nth(1);
    let named = SUBCOMMANDS
        .iter()
        .find(|(name, _)| Some(*name) == first.as_deref())
        .map(|&(_, cmd)| cmd);
    let cmd = named.unwrap_or(Cmd::Schedule);
    let args = std::env::args().skip(if named.is_some() { 2 } else { 1 });
    let opts = parse_options(cmd, args).unwrap_or_else(|e| {
        eprintln!("pipesched: {e}");
        usage()
    });
    let dispatch = match cmd {
        Cmd::Schedule => run_schedule(&opts),
        Cmd::Lint => run_lint(&opts),
        Cmd::Certify => run_certify(&opts),
        Cmd::Prove => run_prove(&opts),
        Cmd::Serve => run_serve(&opts),
        Cmd::Batch => run_batch(&opts),
        Cmd::Stats => run_stats(&opts),
        Cmd::Trace => run_trace(&opts),
        Cmd::Flight => run_flight(&opts),
    };
    match dispatch {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pipesched: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print reports (text or a JSON array); exit 1 when any has errors —
/// or, under `--strict`, any warnings.
fn emit_reports(reports: &[analyze::Report], json: bool, strict: bool) -> ExitCode {
    let failed = reports
        .iter()
        .any(|r| r.has_errors() || (strict && r.count(analyze::Severity::Warning) > 0));
    if json {
        let arr =
            pipesched::json::Json::Array(reports.iter().map(analyze::Report::to_json).collect());
        println!("{}", arr.to_pretty());
    } else {
        for r in reports {
            print!("{}", r.render_text());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Load every block of an input: a tuple file holds one block; labeled
/// source programs compile to one block per region. Optimized blocks go
/// through [`optimize_checked`] (translation validation).
fn load_blocks_from(input: &str, optimize: bool) -> Result<Vec<BasicBlock>, String> {
    let text = read_input(input)?;
    if text.trim_start().starts_with(";; tuples") {
        return Ok(vec![parse_block(input, &text).map_err(|e| e.to_string())?]);
    }
    if optimize {
        let regions = parse_labeled_program(&text).map_err(|e| e.to_string())?;
        regions
            .into_iter()
            .map(|(name, program)| {
                let block = pipesched::frontend::lower(&name, &program);
                optimize_checked(&block).map(|(optimized, _)| optimized)
            })
            .collect()
    } else {
        Ok(vec![
            compile_unoptimized(input, &text).map_err(|e| e.to_string())?
        ])
    }
}

/// Recursively collect `.src` and `.tuples` files under `dir`.
fn collect_source_files(dir: &std::path::Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_source_files(&path, out)?;
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("src") | Some("tuples")
        ) {
            out.push(path.display().to_string());
        }
    }
    Ok(())
}

/// Expand lint inputs: directories become their (sorted) `.src`/`.tuples`
/// files; plain files and `-` pass through.
fn expand_inputs(inputs: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        if input != "-" && path.is_dir() {
            let mut files = Vec::new();
            collect_source_files(path, &mut files)?;
            files.sort();
            if files.is_empty() {
                return Err(format!("{input}: no .src or .tuples files found"));
            }
            out.extend(files);
        } else {
            out.push(input.clone());
        }
    }
    Ok(out)
}

/// Line number (1-based) of each tuple row in a `;; tuples` file, for
/// anchoring diagnostics to `file:line`.
fn tuple_line_numbers(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let t = line.trim_start();
            !t.is_empty() && !t.starts_with(";;") && t.contains(':')
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Lint one input file: one report per block/region, with diagnostics
/// anchored to `file:line` wherever the source position is known. With
/// optimization on, the optimizer runs under translation validation and
/// a rejected transcript joins the reports; `--frontend` additionally
/// lints the optimized block.
fn lint_input(input: &str, opts: &Options) -> Result<Vec<analyze::Report>, String> {
    let text = read_input(input)?;
    let mut reports = Vec::new();
    if text.trim_start().starts_with(";; tuples") {
        let block = parse_block(input, &text).map_err(|e| e.to_string())?;
        let lines = tuple_line_numbers(&text);
        let mut report = analyze::check_block(&block);
        report.context = format!("{input}: {}", report.context);
        report.annotate_locations(|t| lines.get(t.index()).map(|l| format!("{input}:{l}")));
        reports.push(report);
        return Ok(reports);
    }
    let regions = parse_labeled_program(&text).map_err(|e| e.to_string())?;
    for (name, program) in regions {
        let (block, lines) = lower_with_lines(&name, &program);
        let mut report = analyze::check_block(&block);
        report.context = format!("{input}: {}", report.context);
        report.annotate_locations(|t| {
            lines
                .get(t.index())
                .filter(|&&l| l != 0)
                .map(|l| format!("{input}:{l}"))
        });
        reports.push(report);
        if opts.optimize {
            match analyze::optimize_verified(&block, &OptConfig::default()) {
                Ok((optimized, _)) => {
                    if opts.frontend {
                        let mut opt_report = analyze::check_block(&optimized);
                        opt_report.context = format!("{input}: optimized {}", opt_report.context);
                        reports.push(opt_report);
                    }
                }
                Err(rej) => {
                    let mut report = rej.report;
                    report.context = format!("{input}: {}", report.context);
                    reports.push(report);
                }
            }
        }
    }
    Ok(reports)
}

/// `pipesched lint --concurrency`: the static lock-order scan from
/// `pipesched-check` over Rust sources (default: this workspace's own
/// `crates/` and `src/`). Every observed `held -> acquired` edge is
/// advisory `A0707` context; a cycle in the edge graph is an `A0702`
/// error. The scan keys locks by field name, so it over-approximates —
/// it is a reviewable report, not a proof; the model checker's dynamic
/// edges cover the soundness side.
fn concurrency_report(inputs: &[String]) -> analyze::Report {
    let roots: Vec<std::path::PathBuf> = if inputs.is_empty() {
        // Sweep every workspace crate except `crates/check`: the checker's
        // sources and harnesses contain deliberately buggy lock-order
        // fixtures (the mutation suite), which would always "fail" here.
        let mut roots: Vec<std::path::PathBuf> = std::fs::read_dir("crates")
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "check"))
                    .collect()
            })
            .unwrap_or_default();
        roots.sort();
        roots.push("src".into());
        roots
    } else {
        inputs.iter().map(std::path::PathBuf::from).collect()
    };
    let scan = pipesched::check::lockorder::scan_paths(&roots);
    let mut report = analyze::Report::new(format!(
        "concurrency: lock order over {} file(s), {} lock site(s)",
        scan.files, scan.sites
    ));
    for edge in &scan.edges {
        report.push(
            analyze::Diagnostic::new(
                analyze::DiagCode::LockOrderEdge,
                format!("`{}` acquired while holding `{}`", edge.acquired, edge.held),
            )
            .at_location(format!("{}:{}", edge.file, edge.line)),
        );
    }
    for cycle in &scan.cycles {
        report.push(
            analyze::Diagnostic::new(
                analyze::DiagCode::LockOrderCycle,
                format!("inconsistent acquisition order: {}", cycle.join(" -> ")),
            )
            .with_hint("acquire these locks in one global order everywhere"),
        );
    }
    report
}

/// `pipesched lint`: machine-description lints plus IR checks per input.
/// Inputs may be files, directories (searched recursively for `.src` and
/// `.tuples`), or `-`; each block gets its own report. With
/// `--concurrency`, runs the lock-order source scan instead.
fn run_lint(opts: &Options) -> Result<ExitCode, String> {
    if opts.concurrency {
        let report = concurrency_report(&opts.inputs);
        return Ok(emit_reports(&[report], opts.json, opts.strict));
    }
    let machine = load_machine(&opts.machine)?;
    let mut reports = vec![analyze::check_machine(&machine)];
    for input in &expand_inputs(&opts.inputs)? {
        reports.extend(lint_input(input, opts)?);
    }
    Ok(emit_reports(&reports, opts.json, opts.strict))
}

/// One block scheduled the way the options ask.
struct Scheduled {
    out: SearchOutcome,
    /// The SAT backend's effort and query trail (`--backend sat|race`).
    sat: Json,
    /// The race's winner and timings (`--backend race`).
    race: Json,
    /// What the proof logger produced, when one was attached.
    proof: Option<ProofOutput>,
}

/// The one scheduling dispatch of `schedule`, `certify` and `prove`: the
/// SAT backend, a race, the windowed search, or one [`run`] of the
/// branch-and-bound on `--threads` workers, recording into `proof`. The
/// caller has already rejected the combinations [`reject_conflicts`]
/// names.
fn schedule_block(
    ctx: &SchedContext<'_>,
    o: &Options,
    proof: Option<ProofLogger>,
) -> Result<Scheduled, String> {
    let (block, machine) = (ctx.block, ctx.machine);
    let from_sat = |sat: pipesched::solve::SolveOutcome| SearchOutcome {
        order: sat.order,
        assignment: sat.assignment,
        etas: sat.etas,
        nops: sat.nops,
        initial_order: sat.initial_order,
        initial_nops: sat.initial_nops,
        optimal: sat.optimal,
        stats: SearchStats::default(),
    };
    Ok(match (o.backend, o.window) {
        (Backend::Sat, _) => {
            let _s = pipesched::trace::span("backend_sat");
            let out =
                pipesched::solve::solve_schedule(ctx, &pipesched::solve::SolveConfig::default());
            // The SAT trail is independently audited — full certification
            // of the answer plus model re-checks against a rebuilt
            // encoding. A rejection here is a solver bug, never something
            // to serve.
            let report = pipesched::solve::audit::audit_outcome(block, machine, &out);
            if report.has_errors() {
                return Err(format!("SAT backend failed its audit:\n{report}"));
            }
            Scheduled {
                sat: solve_stats_json(&out),
                out: from_sat(out),
                race: Json::Null,
                proof: None,
            }
        }
        (Backend::Race, _) => {
            let _s = pipesched::trace::span("backend_race");
            let race_cfg = pipesched::solve::RaceConfig {
                lambda: o.lambda,
                // Let both finish: the whole point of `--backend race` on
                // the command line (and in CI) is the cross-certification.
                cancel_loser: false,
                ..Default::default()
            };
            let out = pipesched::solve::race(ctx, &race_cfg);
            let agree = pipesched::solve::audit::cross_check(
                block,
                out.bnb.optimal,
                out.bnb.nops,
                out.sat.optimal,
                out.sat.nops,
            );
            if out.disagreement || agree.has_errors() {
                return Err(format!(
                    "backend disagreement: B&B proved {} NOPs, SAT proved {} NOPs\n{agree}",
                    out.bnb.nops, out.sat.nops
                ));
            }
            let report = pipesched::solve::audit::audit_outcome(block, machine, &out.sat);
            if report.has_errors() {
                return Err(format!("SAT side of the race failed its audit:\n{report}"));
            }
            Scheduled {
                race: pipesched::json::json_object![
                    ("winner", out.winner.name()),
                    ("bnb_micros", out.bnb_micros as i64),
                    ("sat_micros", out.sat_micros as i64),
                    ("bnb_nops", i64::from(out.bnb.nops)),
                    ("sat_nops", i64::from(out.sat.nops)),
                ],
                sat: solve_stats_json(&out.sat),
                out: if out.winner == Backend::Sat {
                    from_sat(out.sat)
                } else {
                    out.bnb
                },
                proof: None,
            }
        }
        (Backend::Bnb, Some(window)) => {
            let w = windowed_schedule(ctx, window, o.lambda);
            Scheduled {
                out: SearchOutcome {
                    order: w.order,
                    assignment: ctx.sigma.clone(),
                    etas: w.etas,
                    nops: w.nops,
                    initial_order: list_schedule(ctx.dag, &ctx.analysis),
                    initial_nops: w.initial_nops,
                    // Windows are optimal locally; the whole schedule only
                    // when it meets the block's lower bound.
                    optimal: w.nops <= global_lower_bound(ctx),
                    stats: w.stats,
                },
                sat: Json::Null,
                race: Json::Null,
                proof: None,
            }
        }
        (Backend::Bnb, None) => {
            let searched = Run {
                // `--threads 1` is the serial kernel.
                parallel: (o.threads != 1).then(|| ParallelConfig::with_threads(o.threads)),
                proof,
                ..Run::default()
            };
            let (out, proof) = run(ctx, &SearchConfig::with_lambda(o.lambda), searched)
                .map_err(|e| e.to_string())?;
            Scheduled {
                out,
                sat: Json::Null,
                race: Json::Null,
                proof,
            }
        }
    })
}

/// A proof logger streaming its certificate to `path` as NDJSON.
fn streaming_logger(path: &str) -> Result<ProofLogger, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    Ok(ProofLogger::streaming(Box::new(std::io::BufWriter::new(
        file,
    ))))
}

/// The certificate a proof logger produced: kept in memory, or streamed to
/// `path`, read back and matched against the digest the logger computed
/// while streaming.
fn certificate_of(proof: ProofOutput, path: Option<&str>) -> Result<Certificate, String> {
    if let Some(cert) = proof.certificate {
        return Ok(cert);
    }
    let path = path.ok_or("the search recorded no certificate")?;
    if let Some(e) = proof.io_error {
        return Err(format!("write {path}: {e}"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let cert = Certificate::from_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    if cert.digest() != proof.digest() {
        return Err(format!("{path}: digest mismatch after round trip"));
    }
    Ok(cert)
}

/// `pipesched certify`: schedule each input, certify the result against
/// the independent re-derivation, and cross-check all schedulers.
fn run_certify(o: &Options) -> Result<ExitCode, String> {
    if o.inputs.is_empty() {
        return Err("certify needs at least one input".into());
    }
    reject_conflicts(Cmd::Certify, o)?;
    let machine = load_machine(&o.machine)?;
    let mut reports = Vec::new();
    let blocks: Vec<BasicBlock> = o
        .inputs
        .iter()
        .map(|input| load_blocks_from(input, o.optimize))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    if o.proof.is_some() && blocks.len() != 1 {
        return Err("--proof expects exactly one block".into());
    }
    for block in &blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        let logger = o.proof.as_deref().map(streaming_logger).transpose()?;
        let scheduled = schedule_block(&ctx, o, logger)?;
        let cert = analyze::certify_scheduled(block, &machine, &scheduled.out);
        let claimed_nops = cert.derived_nops;
        let mut report = cert.report;
        report.merge(analyze::cross_check(block, &machine, o.lambda));

        // `--proof FILE`: escalate from certification to an optimality
        // proof — read back the certificate the search streamed, and
        // replay it through the independent checker; its verdict (and any
        // A04xx rejection) joins the report.
        if let Some(proof) = scheduled.proof {
            let cert = certificate_of(proof, o.proof.as_deref())?;
            let check = pipesched::proof::check_certificate(block, &machine, &cert);
            let trailer = u64::from(cert.trailer.nops);
            if check.is_certified() && claimed_nops.is_some_and(|claimed| claimed != trailer) {
                report.push(analyze::Diagnostic::new(
                    analyze::DiagCode::IncumbentRegression,
                    format!(
                        "certified schedule claims μ {} but the optimality certificate \
                         proves μ {trailer}",
                        claimed_nops.unwrap_or_default()
                    ),
                ));
            }
            report.merge(check.report);
        }
        reports.push(report);
    }
    Ok(emit_reports(&reports, o.json, o.strict))
}

/// `pipesched prove`: schedule each input with certificate logging and
/// verify the transcript with the independent checker. Exit failure unless
/// every block comes back `OptimalCertified`.
fn run_prove(o: &Options) -> Result<ExitCode, String> {
    if o.inputs.is_empty() {
        return Err("prove needs at least one input".into());
    }
    reject_conflicts(Cmd::Prove, o)?;
    let machine = load_machine(&o.machine)?;
    let mut blocks: Vec<(String, BasicBlock)> = Vec::new();
    for input in &o.inputs {
        for block in load_blocks_from(input, o.optimize)? {
            let label = if block.name.is_empty() {
                input.clone()
            } else {
                format!("{input}:{}", block.name)
            };
            blocks.push((label, block));
        }
    }
    if o.proof.is_some() && blocks.len() != 1 {
        return Err("--proof expects exactly one block".into());
    }

    let mut failed = false;
    let mut results = Vec::new();
    for (label, block) in &blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        let logger = match &o.proof {
            Some(path) => streaming_logger(path)?,
            None => ProofLogger::in_memory(),
        };
        let proof = schedule_block(&ctx, o, Some(logger))?
            .proof
            .ok_or("the search recorded no certificate")?;
        let (digest, events) = (proof.digest(), proof.events);
        let cert = certificate_of(proof, o.proof.as_deref())?;
        let check = pipesched::proof::check_certificate(block, &machine, &cert);
        let (verdict, nops) = match check.verdict {
            pipesched::proof::ProofVerdict::OptimalCertified { nops } => {
                ("optimal-certified", Some(nops))
            }
            pipesched::proof::ProofVerdict::Rejected => {
                failed = true;
                ("rejected", None)
            }
        };
        if o.json {
            results.push(pipesched::json::json_object![
                ("input", label.as_str()),
                ("machine", machine.name.as_str()),
                ("instructions", block.len()),
                ("verdict", verdict),
                ("nops", nops.map_or(Json::Null, |n| Json::Int(i64::from(n)))),
                ("digest", format!("{digest:016x}")),
                ("report", check.report.to_json()),
            ]);
        } else if let Some(n) = nops {
            println!(
                "{label}: optimal-certified, {n} NOPs ({events} events, digest {digest:016x})"
            );
        } else {
            println!("{label}: REJECTED");
            print!("{}", check.report.render_text());
        }
    }
    if o.json {
        println!("{}", Json::Array(results).to_pretty());
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
/// The SAT backend's effort and query trail as a JSON object: solver
/// totals plus one record per descending feasibility query ("μ ≤ N?").
fn solve_stats_json(out: &pipesched::solve::SolveOutcome) -> pipesched::json::Json {
    use pipesched::json::Json;
    let queries: Vec<Json> = out
        .queries
        .iter()
        .map(|q| {
            pipesched::json::json_object![
                ("budget", i64::from(q.budget)),
                ("horizon", i64::from(q.horizon)),
                ("vars", q.vars as i64),
                (
                    "result",
                    match q.result {
                        pipesched::solve::QueryResult::Sat { .. } => "sat",
                        pipesched::solve::QueryResult::Unsat => "unsat",
                        pipesched::solve::QueryResult::Unknown => "unknown",
                    }
                ),
                ("conflicts", q.conflicts as i64),
                ("decisions", q.decisions as i64),
                ("propagations", q.propagations as i64),
            ]
        })
        .collect();
    pipesched::json::json_object![
        ("conflicts", out.stats.conflicts as i64),
        ("decisions", out.stats.decisions as i64),
        ("propagations", out.stats.propagations as i64),
        ("restarts", out.stats.restarts as i64),
        ("learned", out.stats.learned as i64),
        ("queries_sat", i64::from(out.stats.queries_sat)),
        ("queries_unsat", i64::from(out.stats.queries_unsat)),
        ("queries_unknown", i64::from(out.stats.queries_unknown)),
        ("proved_by_bound", out.stats.proved_by_bound),
        ("queries", Json::Array(queries)),
    ]
}

/// `pipesched [schedule] <input>`: schedule one block and print it.
fn run_schedule(o: &Options) -> Result<ExitCode, String> {
    let input = o.inputs.first().ok_or("missing input file")?;
    let machine = load_machine(&o.machine)?;
    reject_conflicts(Cmd::Schedule, o)?;
    let (block, opt_stats) = load_block_with_stats(input, o.optimize)?;
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    // `--proof FILE`: the search streams its optimality certificate to
    // disk as NDJSON while it runs.
    let logger = o.proof.as_deref().map(streaming_logger).transpose()?;

    let sched_start = std::time::Instant::now();
    let Scheduled {
        out,
        sat,
        race,
        proof,
    } = schedule_block(&ctx, o, logger)?;
    let wall_micros = sched_start.elapsed().as_micros() as u64;
    if let (Some(path), Some(proof)) = (&o.proof, proof) {
        if let Some(e) = proof.io_error {
            return Err(format!("write {path}: {e}"));
        }
        eprintln!(
            "; certificate: {} events, digest {:016x} -> {path}",
            proof.events,
            proof.digest()
        );
    }
    let stats = out.stats;

    // Debug builds certify every schedule the CLI emits: the independent
    // re-derivation in `pipesched-analyze` must agree with the scheduler.
    analyze::debug_assert_certified(&block, &machine, &out);

    // `--json`: machine-readable result with wall-clock and search-node
    // stats; replaces the `--emit` listing.
    if o.json {
        let order_json: Vec<Json> = out
            .order
            .iter()
            .map(|t| Json::Int(i64::from(t.0) + 1))
            .collect();
        let etas_json: Vec<Json> = out.etas.iter().map(|&e| Json::Int(i64::from(e))).collect();
        let doc = pipesched::json::json_object![
            ("input", input.as_str()),
            ("machine", machine.name.as_str()),
            ("instructions", block.len()),
            ("order", Json::Array(order_json)),
            ("etas", Json::Array(etas_json)),
            ("nops", out.nops),
            ("initial_nops", out.initial_nops),
            ("total_cycles", out.total_cycles() as i64),
            ("optimal", out.optimal),
            ("backend", o.backend.name()),
            ("sat", sat),
            ("race", race),
            ("omega_calls", stats.omega_calls as i64),
            ("nodes_visited", stats.nodes_visited as i64),
            ("pruned_quick", stats.pruned_quick as i64),
            ("pruned_legality", stats.pruned_legality as i64),
            ("pruned_equivalence", stats.pruned_equivalence as i64),
            ("pruned_bound", stats.pruned_bound as i64),
            ("pruned_symmetry", stats.pruned_symmetry as i64),
            ("pruned_dominance", stats.pruned_dominance as i64),
            ("complete_schedules", stats.complete_schedules as i64),
            ("improvements", stats.improvements as i64),
            ("proved_by_bound", stats.proved_by_bound),
            ("truncated", stats.truncated),
            ("deadline_hit", stats.deadline_hit),
            ("wall_micros", wall_micros as i64),
            (
                "opt",
                match &opt_stats {
                    Some(s) => pipesched::json::json_object![
                        ("iterations", i64::from(s.iterations)),
                        ("tuples_before", s.tuples_before as i64),
                        ("tuples_after", s.tuples_after as i64),
                        ("constant_folds", i64::from(s.constant_folds)),
                        ("cse_hits", i64::from(s.cse_hits)),
                        ("peephole_hits", i64::from(s.peephole_hits)),
                        ("dce_removals", i64::from(s.dce_removals)),
                        ("fold_rewrites", i64::from(s.fold_rewrites)),
                        ("forward_rewrites", i64::from(s.forward_rewrites)),
                        ("cse_merges", i64::from(s.cse_merges)),
                        ("peephole_rewrites", i64::from(s.peephole_rewrites)),
                        ("dce_deletions", i64::from(s.dce_deletions)),
                        ("total_rewrites", i64::from(s.total_rewrites())),
                    ],
                    None => Json::Null,
                }
            ),
        ];
        println!("{}", doc.to_pretty());
        return Ok(ExitCode::SUCCESS);
    }

    let order = &out.order;
    match o.emit.as_str() {
        "tuples" => {
            println!(";; tuples");
            print!("{block}");
        }
        "dot" => {
            print!("{}", dot::to_dot(&block, &dag));
        }
        "padded" => {
            let padded = pad_schedule(order, &out.etas);
            print!("{}", padded.listing(&block));
        }
        "trace" => {
            let tm = TimingModel::new(&block, &dag, &machine);
            let trace = Trace::capture(&tm, order);
            print!("{}", trace.render(&block));
        }
        "gantt" => {
            let tm = TimingModel::new(&block, &dag, &machine);
            let labels: Vec<String> = machine
                .pipelines()
                .iter()
                .map(|p| p.function.clone())
                .collect();
            let gantt = pipesched::sim::chart(&tm, order, &labels);
            print!("{}", gantt.render());
        }
        "asm" => {
            let pressure = max_pressure(&block, order);
            let regs = o.regs.unwrap_or(pressure);
            let assignment = allocate(&block, order, regs).map_err(|e| e.to_string())?;
            let program = emit(&block, order, &out.etas, &assignment).map_err(|e| e.to_string())?;
            print!("{program}");
        }
        "stats" => {
            // The schedule this command made, whichever engine made it.
            let structure = pipesched::ir::BlockStats::collect(&block, &dag);
            println!("machine:            {}", machine.name);
            print!("{structure}");
            println!("initial (list) NOPs:{:>6}", out.initial_nops);
            println!("final NOPs:         {:>6}", out.nops);
            println!("total cycles:       {:>6}", out.total_cycles());
            println!("omega calls:        {:>6}", stats.omega_calls);
            println!("provably optimal:   {}", out.optimal);
            return Ok(ExitCode::SUCCESS);
        }
        other => return Err(format!("unknown --emit `{other}`")),
    }

    eprintln!(
        "; {} instructions, {} -> {} NOPs, {} Ω calls, {}{}",
        block.len(),
        out.initial_nops,
        out.nops,
        stats.omega_calls,
        if out.optimal { "optimal" } else { "truncated" },
        if o.backend == Backend::Bnb {
            String::new()
        } else {
            format!(" via {}", o.backend)
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// The service engine the fleet options describe.
fn engine(o: &Options) -> pipesched::service::ServiceEngine {
    let mut config = pipesched::service::EngineConfig {
        default_nodes: o.nodes,
        prove: o.prove,
        backend: o.backend,
        threads: o.threads,
        ..Default::default()
    };
    config.verify_opt |= o.verify_opt;
    pipesched::service::ServiceEngine::new(config, o.cache, o.shards)
}

/// Replay a request file through `engine` with `--workers` threads.
fn replay_local(
    engine: &pipesched::service::ServiceEngine,
    text: &str,
    o: &Options,
) -> Result<pipesched::service::BatchSummary, String> {
    let config = pipesched::service::ServeConfig { workers: o.workers };
    pipesched::service::run_batch(engine, text, &config, o.check, o.prove)
        .map_err(|e| e.to_string())
}

/// `pipesched serve`: answer NDJSON scheduling requests from stdin or TCP.
fn run_serve(o: &Options) -> Result<ExitCode, String> {
    if o.trace {
        // Every request records a span tree; responses carry `trace_id`
        // and `GET /trace/<id>` on the TCP port serves the dump.
        pipesched::trace::set_enabled(true);
    }
    if o.flight {
        // The flight recorder is on by default: one wide event per
        // request into a bounded ring, frozen as an NDJSON dump when an
        // anomaly fires. Opted out (`--no-flight`), each request still
        // builds its event for the metrics, but phases go untimed and the
        // event is never sealed or pushed (priced by `repro observe`).
        pipesched::trace::flight::set_enabled(true);
    }

    let engine = engine(o);
    if let Some(path) = &o.cache_file {
        let loaded = engine.cache().load_from_path(path)?;
        if loaded > 0 {
            eprintln!("; loaded {loaded} cached schedules from {path}");
        }
    }
    let config = pipesched::service::ServeConfig { workers: o.workers };

    let handled = if let Some(addr) = &o.tcp {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!(
            "; serving on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        );
        pipesched::service::serve_tcp(&engine, listener, &config, o.conns)
            .map_err(|e| e.to_string())?
    } else {
        let stdin = std::io::stdin();
        pipesched::service::serve_stream(&engine, stdin.lock(), std::io::stdout(), &config)
            .map_err(|e| e.to_string())?
    };

    if let Some(path) = &o.cache_file {
        engine.cache().save_to_path(path)?;
        eprintln!(
            "; saved {} cached schedules to {path}",
            engine.cache().len()
        );
    }
    if o.metrics {
        eprintln!("{}", engine.metrics().to_json().to_pretty());
    }
    eprintln!("; {handled} requests served");
    Ok(ExitCode::SUCCESS)
}

/// `pipesched batch`: replay an NDJSON request file, print throughput, and
/// optionally gate on certification and cache behaviour (the CI smoke).
fn run_batch(o: &Options) -> Result<ExitCode, String> {
    let input = o.inputs.first().ok_or("missing request file")?;
    if o.prove && !o.check {
        return Err("--prove requires --check".into());
    }
    let text = read_input(input)?;

    let summary = if let Some(addr) = &o.tcp {
        // Client mode: replay the file against a running `pipesched serve
        // --tcp` and summarize the responses here. Certification (and even
        // proof replay) work client-side — both only need the request and
        // response text — but the search-effort fields stay zero: that
        // work happened in the server process (scrape its /metrics).
        replay_tcp(addr, &text, o.check, o.prove)?
    } else {
        replay_local(&engine(o), &text, o)?
    };

    if !o.quiet {
        for line in &summary.responses {
            println!("{line}");
        }
    }
    if o.json {
        eprintln!("{}", summary.to_json().to_pretty());
    } else {
        eprintln!(
            "; {} requests in {:.1} ms ({:.0} req/s): {} ok, {} errors, {} cache hits, {} truncated{}",
            summary.requests,
            summary.wall_micros as f64 / 1000.0,
            summary.throughput(),
            summary.ok,
            summary.errors,
            summary.cache_hits,
            summary.truncated,
            if o.check {
                format!(
                    ", {} certified / {} failed{}",
                    summary.certified,
                    summary.certify_failures,
                    if o.prove {
                        format!(
                            ", {} proved / {} proof failures",
                            summary.proved, summary.proof_failures
                        )
                    } else {
                        String::new()
                    }
                )
            } else {
                String::new()
            }
        );
    }

    let mut failed = summary.errors > 0;
    if o.check && (summary.certify_failures > 0 || summary.certified != summary.ok) {
        eprintln!("pipesched: certification gate failed");
        failed = true;
    }
    if o.prove && summary.proof_failures > 0 {
        eprintln!("pipesched: proof-replay gate failed");
        failed = true;
    }
    if o.require_hits && summary.cache_hits == 0 {
        eprintln!("pipesched: expected cache hits, saw none");
        failed = true;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Stream a request file to a running `pipesched serve --tcp` server and
/// summarize the responses client-side. A writer thread feeds the socket
/// while the main thread drains responses, so large files cannot deadlock
/// on filled kernel buffers.
fn replay_tcp(
    addr: &str,
    text: &str,
    check: bool,
    prove: bool,
) -> Result<pipesched::service::BatchSummary, String> {
    let start = std::time::Instant::now();
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let responses_text = std::thread::scope(|scope| -> Result<String, String> {
        let feeder = scope.spawn(move || -> std::io::Result<()> {
            writer.write_all(text.as_bytes())?;
            writer.flush()?;
            writer.shutdown(std::net::Shutdown::Write)
        });
        let mut buf = String::new();
        std::io::BufReader::new(stream)
            .read_to_string(&mut buf)
            .map_err(|e| format!("read {addr}: {e}"))?;
        feeder
            .join()
            .expect("request feeder panicked")
            .map_err(|e| format!("write {addr}: {e}"))?;
        Ok(buf)
    })?;
    let wall_micros = start.elapsed().as_micros() as u64;
    let responses: Vec<String> = responses_text.lines().map(str::to_string).collect();
    // The per-response flag is the only hit signal available remotely.
    let cache_hits = responses
        .iter()
        .filter(|line| {
            pipesched::json::parse(line)
                .ok()
                .and_then(|d| d.get("cache_hit").and_then(pipesched::json::Json::as_bool))
                == Some(true)
        })
        .count() as u64;
    Ok(pipesched::service::summarize_responses(
        text,
        responses,
        wall_micros,
        cache_hits,
        check,
        prove,
    ))
}

/// One HTTP/1.0 GET against a serving port; returns the response body or
/// an error for any non-200 status.
fn http_get_body(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: pipesched\r\n\r\n")
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut text = String::new();
    std::io::BufReader::new(stream)
        .read_to_string(&mut text)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: server answered `{status}` for {path}"));
    }
    Ok(body.to_string())
}

/// Indented `key: value` rendering of a stats JSON document.
fn render_stats_human(doc: &pipesched::json::Json, indent: usize, out: &mut String) {
    if let pipesched::json::Json::Object(pairs) = doc {
        for (key, value) in pairs {
            match value {
                pipesched::json::Json::Object(_) => {
                    out.push_str(&format!("{}{key}:\n", " ".repeat(indent)));
                    render_stats_human(value, indent + 2, out);
                }
                scalar => {
                    out.push_str(&format!(
                        "{}{key}: {}\n",
                        " ".repeat(indent),
                        scalar.to_compact()
                    ));
                }
            }
        }
    } else {
        out.push_str(&doc.to_compact());
        out.push('\n');
    }
}

/// `pipesched stats`: engine metrics, cache shards, and prune-rule totals —
/// either by replaying a request file locally or by scraping a running
/// server's `/stats` (or `/metrics` with `--prom`) endpoint.
fn run_stats(o: &Options) -> Result<ExitCode, String> {
    if o.json && o.prom {
        return Err("--json and --prom are mutually exclusive".into());
    }

    if let Some(addr) = &o.tcp {
        if o.prom {
            print!("{}", http_get_body(addr, "/metrics")?);
        } else {
            let body = http_get_body(addr, "/stats")?;
            if o.json {
                print!("{body}");
            } else {
                let doc = pipesched::json::parse(&body)
                    .map_err(|e| format!("{addr}: bad /stats JSON: {e}"))?;
                let mut text = String::new();
                render_stats_human(&doc, 0, &mut text);
                print!("{text}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Local mode: replay a request file through a fresh engine, then dump
    // that engine's stats.
    let input = o
        .inputs
        .first()
        .ok_or("stats needs a request file or --tcp ADDR")?;
    let engine = engine(o);
    replay_local(&engine, &read_input(input)?, o)?;

    if o.prom {
        print!("{}", engine.prometheus());
    } else if o.json {
        println!("{}", engine.stats_json().to_pretty());
    } else {
        let mut out = String::new();
        render_stats_human(&engine.stats_json(), 0, &mut out);
        print!("{out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `pipesched trace`: schedule one input with tracing and per-depth search
/// profiling enabled, then render the span tree (default), folded
/// flamegraph stacks (`--flame`), or the raw NDJSON dump (`--ndjson`).
fn run_trace(o: &Options) -> Result<ExitCode, String> {
    let input = o.inputs.first().ok_or("trace needs an input")?;
    if o.flame && o.ndjson {
        return Err("--flame and --ndjson are mutually exclusive".into());
    }
    let machine = load_machine(&o.machine)?;

    // Record the whole pipeline under one trace: frontend passes fire
    // their own spans inside `compile`, and the search runs with the
    // per-depth profile attached — the same search (same λ, same default
    // config) the `schedule` pipeline runs, so node counts line up with
    // `pipesched <input> --json`.
    pipesched::trace::set_enabled(true);
    pipesched::trace::begin(input);
    let mut profile = pipesched::core::SearchProfile::new();
    let outcome = {
        let _root = pipesched::trace::span("pipesched");
        let block = load_block_from(input, o.optimize)?;
        let dag = {
            let _s = pipesched::trace::span("dag_build");
            DepDag::build(&block)
        };
        let ctx = SchedContext::new(&block, &dag, &machine);
        let _s = pipesched::trace::span("search");
        let profiled = Run {
            profile: Some(&mut profile),
            ..Run::default()
        };
        let (out, _) =
            run(&ctx, &SearchConfig::with_lambda(o.lambda), profiled).map_err(|e| e.to_string())?;
        for (name, depth, value) in profile.points() {
            pipesched::trace::point2(name, depth as i64, value as i64);
        }
        out
    };
    let trace = pipesched::trace::end().ok_or("trace recorder returned nothing")?;
    pipesched::trace::set_enabled(false);

    if o.ndjson {
        print!("{}", pipesched::trace::render::to_ndjson(&trace));
        return Ok(ExitCode::SUCCESS);
    }
    if o.flame {
        // Folded stacks from span self-times, with the search frame broken
        // down further into per-depth frames from the profile.
        let depth_us: Vec<u64> = (0..profile.depths.len())
            .map(|d| profile.self_time_ns(d) / 1_000)
            .collect();
        let depths_total: u64 = depth_us.iter().sum();
        let mut stacks = pipesched::trace::render::folded(&trace);
        for (path, us) in stacks.iter_mut() {
            if path == "pipesched;search" {
                *us = us.saturating_sub(depths_total);
            }
        }
        for (d, us) in depth_us.iter().enumerate() {
            stacks.push((format!("pipesched;search;depth_{d:02}"), *us));
        }
        for (path, us) in &stacks {
            println!("{path} {us}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    print!("{}", pipesched::trace::render::render_text(&trace));
    println!();
    println!("per-depth search profile:");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "depth", "nodes", "omega", "quick", "legality", "equiv", "bound", "dominance", "self_us"
    );
    for (d, s) in profile.depths.iter().enumerate() {
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            d,
            s.nodes,
            s.omega_calls,
            s.pruned_quick,
            s.pruned_legality,
            s.pruned_equivalence,
            s.pruned_bound,
            s.pruned_dominance,
            profile.self_time_ns(d) / 1_000,
        );
    }
    println!(
        "total: {} nodes, {} omega calls; schedule: {} NOPs, {}",
        profile.total_nodes(),
        outcome.stats.omega_calls,
        outcome.nops,
        if outcome.optimal {
            "optimal"
        } else {
            "truncated"
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// `pipesched flight`: render the wide-event flight recorder — the last N
/// events as a table (default), NDJSON, or folded flame stacks, or the
/// frozen anomaly dumps (`--dumps`). Reads a live server over TCP, or
/// replays a request file through a fresh engine with the recorder on.
/// Either way every rendered event's seal is verified, with a warning on
/// stderr when any fails.
fn run_flight(o: &Options) -> Result<ExitCode, String> {
    use pipesched::trace::flight;

    if (u8::from(o.ndjson) + u8::from(o.flame) + u8::from(o.dumps)) > 1 {
        return Err("--ndjson, --flame, and --dumps are mutually exclusive".into());
    }

    let events: Vec<flight::WideEvent> = if let Some(addr) = &o.tcp {
        if o.dumps {
            print!("{}", http_get_body(addr, "/flight/dumps")?);
            return Ok(ExitCode::SUCCESS);
        }
        // Re-parse the server's NDJSON; the seal survives the round trip,
        // so client-side verification still catches tampering in transit.
        http_get_body(addr, &format!("/flight/{}", o.events))?
            .lines()
            .filter_map(flight::WideEvent::from_ndjson)
            .collect()
    } else {
        // Local mode: replay a request file with the recorder enabled,
        // then render what it captured.
        let input = o
            .inputs
            .first()
            .ok_or("flight needs a request file or --tcp ADDR")?;
        let text = read_input(input)?;
        flight::set_enabled(true);
        flight::reset();
        replay_local(&engine(o), &text, o)?;
        flight::set_enabled(false);
        if o.dumps {
            for d in flight::dumps() {
                print!("{}", d.to_ndjson());
            }
            return Ok(ExitCode::SUCCESS);
        }
        flight::recent(o.events)
    };
    if o.ndjson {
        print!("{}", flight::to_ndjson(&events));
    } else if o.flame {
        print!("{}", flight::render_flame(&events));
    } else {
        print!("{}", flight::render_table(&events));
    }
    let torn = events.iter().filter(|e| !e.verify()).count();
    if torn > 0 {
        eprintln!("; warning: {torn} event(s) failed their self-checksum");
    }
    Ok(ExitCode::SUCCESS)
}
