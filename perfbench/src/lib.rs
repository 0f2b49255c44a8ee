//! End-to-end and per-layer benchmark of the pipesched workspace.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` builds a workload's
//! inputs, in an order drawn from the seed, runs them through the program
//! for the given time, checks every output, and prints one metric per line
//! followed by a JSON summary as the last line. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the workload untraced for half the
//! time and then traced for one pass over its inputs, and prints the
//! per-layer metrics, writing the spans to
//! `perfbench/out/<workload>-<seed>.spans.ndjson`. The program's own
//! tracing and flight recorder stay off in both.

pub mod check;
pub mod corpus;
pub mod harness;
pub mod layer_metrics;
pub mod layers;
pub mod prove;
pub mod serve;
pub mod spans;
pub mod stats;

use std::time::Instant;

use harness::{timed_setups, Args, Outcome, SETUPS_AFTER, SETUPS_BEFORE};
use layer_metrics::NOT_REACHED;
use serve::Traffic;
use spans::{Span, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["corpus", "serve_miss", "prove_hard"];

/// What one invocation measured.
#[derive(Debug)]
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// A workload's measured phase: its outcome, given the tracers to run its
/// clients on and the tracer for the work done between rounds.
type Phase<'a> = dyn FnMut(f64, &mut [Tracer], &mut Tracer) -> Outcome + 'a;

/// Run one invocation.
pub fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut gen = Tracer::new(args.trace, epoch, 0);
    let secs = args.seconds;
    match args.workload.as_str() {
        "corpus" => {
            let setup = |tr: &mut Tracer| {
                let blocks = corpus::generate(corpus::BLOCKS, tr);
                (blocks, stats::shuffled(corpus::BLOCKS, args.seed))
            };
            let ((blocks, order), setups) = timed_setups(SETUPS_BEFORE, || setup(&mut gen));
            // Every phase covers the whole first pass, so NOPs and work
            // counts are exact.
            let mut phase = |s: f64, t: &mut [Tracer], c: &mut Tracer| {
                corpus::phase(&blocks, &order, s, blocks.len(), t, c).0
            };
            let mut again = || drop(setup(&mut Tracer::off()));
            finish(args, gen, setups, &mut again, 1, &mut phase, &mut |_| {})
        }
        "serve_miss" => {
            let setup = |tr: &mut Tracer| (Traffic::generate(args.seed, tr), serve::engine());
            let ((traffic, engine), setups) = timed_setups(SETUPS_BEFORE, || setup(&mut gen));
            let mut engine = Some(engine);
            let mut phase = |s: f64, t: &mut [Tracer], c: &mut Tracer| {
                // The traced phase starts from an empty cache too, with an
                // empty shadow of it for the replay.
                let e = engine.take().unwrap_or_else(serve::engine);
                let pass = if t[0].is_on() {
                    traffic.stream.len()
                } else {
                    0
                };
                serve::phase(&traffic, &e, &serve::shadow_cache(), s, pass, t, c)
            };
            let mut again = || drop(setup(&mut Tracer::off()));
            finish(
                args,
                gen,
                setups,
                &mut again,
                serve::CLIENTS,
                &mut phase,
                &mut |_| {},
            )
        }
        "prove_hard" => {
            let setup = |tr: &mut Tracer| {
                let blocks = prove::generate(tr);
                prove::warm_up(&blocks);
                let order = stats::shuffled(blocks.len(), args.seed);
                (blocks, order)
            };
            let ((blocks, order), setups) = timed_setups(SETUPS_BEFORE, || setup(&mut gen));
            let mut phase = |s: f64, t: &mut [Tracer], c: &mut Tracer| {
                let pass = if t[0].is_on() { blocks.len() } else { 0 };
                prove::phase(&blocks, &order, s, pass, t, c)
            };
            let mut again = || drop(setup(&mut Tracer::off()));
            let mut compare = |tr: &mut Tracer| prove::compare(&blocks, secs / 4.0, tr);
            finish(args, gen, setups, &mut again, 1, &mut phase, &mut compare)
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Measure the phase end to end, then time [`SETUPS_AFTER`] more set-ups
/// with `again` and report the median of those and `setups`; or run the
/// phase untraced for half the time and then traced for exactly one pass
/// over the inputs, with the per-layer metrics, where `extra` adds
/// workload-specific traced measurements.
fn finish(
    args: &Args,
    gen: Tracer,
    mut setups: Vec<f64>,
    again: &mut dyn FnMut(),
    clients: usize,
    phase: &mut Phase<'_>,
    extra: &mut dyn FnMut(&mut Tracer),
) -> Result<Report, String> {
    let off = || (0..clients).map(|_| Tracer::off()).collect::<Vec<_>>();
    if !args.trace {
        let mut out = phase(args.seconds, &mut off(), &mut Tracer::off());
        setups.extend(timed_setups(SETUPS_AFTER, again).1);
        out.setup_s = stats::median(&setups);
        return Ok(Report {
            attempted: out.attempted,
            failed: out.failures.total(),
            metrics: out.metrics(),
            notes: out.notes(),
            spans: Vec::new(),
        });
    }
    let epoch = gen.epoch();
    let untraced = phase(args.seconds / 2.0, &mut off(), &mut Tracer::off());
    let mut tracers: Vec<Tracer> = (0..clients)
        .map(|c| Tracer::new(true, epoch, 1 + c as u64))
        .collect();
    let mut checks = Tracer::new(true, epoch, 8);
    let traced = phase(0.0, &mut tracers, &mut checks);
    let mut tr = gen;
    for t in tracers {
        tr.absorb(t);
    }
    tr.absorb(checks);
    extra(&mut tr);
    // From the units' own latencies: the decomposition each unit gets after
    // its timed part is left out, so only the span recorder counts.
    let (untraced_tp, traced_tp) = (untraced.busy_throughput(), traced.busy_throughput());
    tr.count("bench.trace_overhead_frac", traced_tp / untraced_tp - 1.0);
    let metrics = layer_metrics::assemble(&tr);
    let not_reached: Vec<&str> = metrics
        .iter()
        .filter(|m| m.1 == NOT_REACHED)
        .map(|m| m.0)
        .collect();
    let notes = vec![
        format!(
            "busy throughput untraced {untraced_tp:.1} units/s over {:.3} s, traced {traced_tp:.1} units/s over {:.3} s",
            untraced.timed_s(),
            traced.timed_s()
        ),
        format!("{} spans recorded", tr.spans.len()),
        format!(
            "not reached on this workload, printed as {NOT_REACHED}: {}",
            not_reached.join(" ")
        ),
    ];
    Ok(Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failures.total() + traced.failures.total(),
        metrics,
        notes,
        spans: tr.spans,
    })
}
