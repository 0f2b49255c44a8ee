//! Pins the per-depth search profile and the prune vocabulary's names.
//!
//! One digest folds every depth's nodes, Ω calls and prune counts (quick,
//! legality, equivalence, bound and dominance) from profiled `run`s:
//!
//! * the first corpus blocks on the paper's machine, default search;
//! * a slice of them under `SearchConfig::paper_exact()`;
//! * a slice on every other preset, with and without pipeline selection.
//!
//! `kernel_pin` and `feature_matrix` compare a profile only through its
//! node total; this holds each depth's attribution. A rewrite of how the
//! kernel fills the profile must leave the digest unchanged: the value
//! below was captured before the profile was filled at one site. Only
//! the accessor calls here may follow a renamed API.
//!
//! The names test holds the JSON keys, their order and the Prometheus
//! `rule` labels that dashboards and scripts read.

use std::process::Command;

use pipesched::core::{run, DepthStats, Prune, Run, SchedContext, SearchConfig, SearchProfile};
use pipesched::ir::DepDag;
use pipesched::machine::{presets, Machine};
use pipesched::service::metrics::{Metrics, SearchAggregate};
use pipesched::synth::CorpusSpec;

/// Corpus blocks profiled on the paper's machine.
const CORPUS: usize = 1_500;

/// Blocks each slice (`paper_exact()`, every other preset with and
/// without selection) profiles.
const SLICE: usize = 150;

/// A 64-bit FNV-1a fold over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A depth's prune counts: quick, legality, equivalence, bound and
/// dominance, in that order.
fn prunes(d: &DepthStats) -> [u64; 5] {
    [
        Prune::Quick,
        Prune::Legality,
        Prune::Equivalence,
        Prune::Bound,
        Prune::Dominance,
    ]
    .map(|rule| d.pruned[rule as usize])
}

/// Profile one search and fold its profile; returns its node count.
fn fold_profiled(d: &mut Digest, ctx: &SchedContext<'_>, cfg: &SearchConfig) -> u64 {
    let mut profile = SearchProfile::new();
    let profiled = Run {
        profile: Some(&mut profile),
        ..Run::default()
    };
    let (out, _) = run(ctx, cfg, profiled).expect("a serial profiled search is accepted");
    d.word(profile.depths.len() as u64);
    for depth in &profile.depths {
        d.word(depth.nodes);
        d.word(depth.omega_calls);
        for n in prunes(depth) {
            d.word(n);
        }
    }
    d.word(u64::from(out.nops));
    out.stats.nodes_visited
}

#[test]
fn per_depth_profile_is_pinned() {
    let spec = CorpusSpec::paper_default();
    let paper = presets::paper_simulation();
    let others: Vec<Machine> = presets::all_presets()
        .into_iter()
        .filter(|m| m.name != paper.name)
        .collect();
    let plain = SearchConfig::default();
    let exact = SearchConfig::paper_exact();
    let selection = SearchConfig {
        pipeline_selection: true,
        ..plain
    };
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut nodes = 0;
    for k in 0..CORPUS {
        let block = spec.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &paper);
        nodes += fold_profiled(&mut d, &ctx, &plain);
        if k < SLICE {
            nodes += fold_profiled(&mut d, &ctx, &exact);
            for machine in &others {
                let ctx = SchedContext::new(&block, &dag, machine);
                nodes += fold_profiled(&mut d, &ctx, &plain);
                nodes += fold_profiled(&mut d, &ctx, &selection);
            }
        }
    }
    println!("profile digest {:#018x} over {nodes} nodes", d.0);
    assert_eq!(d.0, 0x0b4a_5795_0bcb_55ac);
}

/// The keys of a JSON object, in order.
fn keys(doc: &pipesched::json::Json) -> Vec<&str> {
    match doc {
        pipesched::json::Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn prune_names_are_pinned() {
    // `/stats`' search aggregate, key for key.
    let aggregate = SearchAggregate::default().to_json();
    assert_eq!(
        keys(&aggregate),
        [
            "searches",
            "nodes_visited",
            "omega_calls",
            "complete_schedules",
            "improvements",
            "pruned_quick",
            "pruned_legality",
            "pruned_equivalence",
            "pruned_bound",
            "pruned_symmetry",
            "pruned_dominance",
            "eligible_searches",
            "identity_holds",
        ]
    );

    // `/metrics`' per-rule prune samples.
    let mut w = pipesched::trace::prom::PromWriter::new();
    Metrics::new().write_prometheus(&mut w);
    let labels: Vec<String> = w
        .finish()
        .lines()
        .filter_map(|l| l.strip_prefix("pipesched_search_pruned_total{rule=\""))
        .map(|l| l.split('"').next().unwrap().to_string())
        .collect();
    assert_eq!(
        labels,
        [
            "quick",
            "legality",
            "equivalence",
            "bound",
            "symmetry",
            "dominance"
        ]
    );

    // `pipesched schedule --json`'s prune keys.
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dotproduct.src");
    let out = Command::new(env!("CARGO_BIN_EXE_pipesched"))
        .args(["schedule", src, "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipesched::json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let pruned: Vec<&str> = keys(&doc)
        .into_iter()
        .filter(|k| k.starts_with("pruned_"))
        .collect();
    assert_eq!(
        pruned,
        [
            "pruned_quick",
            "pruned_legality",
            "pruned_equivalence",
            "pruned_bound",
            "pruned_symmetry",
            "pruned_dominance",
        ]
    );
}
