//! Pins of the benchmark itself: exact work counts, the corpus being the
//! paper sweep's corpus, `serve_miss`'s cache behaviour and replay, and
//! `BENCHMARK.json` naming exactly the metrics the benchmark prints.

use std::time::Instant;

use pipesched_bench::{run_sweep, SweepConfig};
use pipesched_json::Json;
use pipesched_perfbench::harness::Outcome;
use pipesched_perfbench::layer_metrics::{assemble, derive, NOT_REACHED, PER_LAYER};
use pipesched_perfbench::serve::{self, Traffic};
use pipesched_perfbench::spans::Tracer;
use pipesched_perfbench::stats::shuffled;
use pipesched_perfbench::{corpus, WORKLOADS};
use pipesched_synth::CorpusSpec;

fn traced_corpus(seed: u64, blocks: usize) -> (Outcome, Vec<corpus::BlockRecord>, Tracer) {
    let blocks = corpus::generate(blocks, &mut Tracer::off());
    let order = shuffled(blocks.len(), seed);
    let epoch = Instant::now();
    let mut clients = [Tracer::new(true, epoch, 1)];
    let (out, records) = corpus::phase(
        &blocks,
        &order,
        0.0,
        blocks.len(),
        &mut clients,
        &mut Tracer::off(),
    );
    let [tr] = clients;
    (out, records, tr)
}

#[test]
fn corpus_work_counts_repeat_exactly() {
    let (a, _, ta) = traced_corpus(7, 150);
    let (b, _, tb) = traced_corpus(7, 150);
    let (ma, mb) = (derive(&ta), derive(&tb));
    for name in ["core.bnb.omega_calls", "core.bnb.nodes"] {
        assert_eq!(ma[name].to_bits(), mb[name].to_bits(), "{name}");
    }
    let quality = |o: &Outcome| {
        o.metrics()
            .into_iter()
            .filter(|(n, _, _)| ["nops_per_block", "optimal_frac"].contains(n))
            .map(|(_, v, _)| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(quality(&a), quality(&b));
    assert_eq!(a.failures.total(), 0);
    // A layer the corpus never reaches is marked, not measured elsewhere.
    let windowed = assemble(&ta)
        .into_iter()
        .find(|m| m.0 == "core.windowed.us");
    assert_eq!(windowed.map(|m| m.1), Some(NOT_REACHED));
}

#[test]
fn corpus_is_the_paper_sweep_corpus() {
    let runs = 120;
    let paper = CorpusSpec::paper_default();
    let (_, records, _) = traced_corpus(5, runs);
    let sweep = run_sweep(&SweepConfig {
        corpus: paper.with_runs(runs),
        threads: 1,
        ..SweepConfig::default()
    });
    assert_eq!(records.len(), runs);
    for (k, (r, s)) in records.iter().zip(&sweep.records).enumerate() {
        assert_eq!(r.size, s.block_size, "block {k}");
        assert_eq!(r.final_nops, s.final_nops, "block {k}");
        assert_eq!(r.omega_calls, s.omega_calls, "block {k}");
        assert_eq!(r.completed, s.completed, "block {k}");
    }
}

#[test]
fn serve_miss_never_hits_and_replays_exactly() {
    let traffic = Traffic::generate(3, &mut Tracer::off());
    let epoch = Instant::now();
    let mut clients = [Tracer::new(true, epoch, 1), Tracer::new(true, epoch, 2)];
    let mut checks = Tracer::new(true, epoch, 8);
    let out = serve::phase(
        &traffic,
        &serve::engine(),
        &serve::shadow_cache(),
        0.5,
        0,
        &mut clients,
        &mut checks,
    );
    assert_eq!(out.failures.total(), 0);
    let [mut a, b] = clients;
    a.absorb(b);
    a.absorb(checks);
    let m = derive(&a);
    assert!(m["service.engine.tier.list"] + m["service.engine.tier.bnb"] > 0.0);
    assert_eq!(m["service.cache.hit_frac"], 0.0);
    assert_eq!(m["bench.trace_mismatches"], 0.0);
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = pipesched_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON");
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    let printed: Vec<_> = Outcome::default()
        .metrics()
        .into_iter()
        .map(|(n, _, _)| n.to_string())
        .collect();
    assert_eq!(names(&doc, "end_to_end"), printed);
    let layers = doc
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
    }
}
