//! Pin the serial search wrappers bit-identical across refactors.
//!
//! The plain, certificate-logged and profiled searches run one
//! policy-generic kernel behind `run`; these tests hold their observable
//! outputs — schedule, statistics, and certificate digest — fixed to the
//! values the pre-refactor copies produced on the checked-in example corpus, so any behavioural drift in
//! the kernel shows up as a failed pin, not a silent change. Two more
//! tables hold the pipeline-selection and `SearchConfig::paper_exact()`
//! (α-β bound, no lower-bound termination) paths to the values they had
//! before the kernel's ready set became incremental.
//!
//! Regenerate the tables by running with `PIPESCHED_PIN_PRINT=1` and
//! `--nocapture` — but only after convincing yourself the change in
//! behaviour is intended.

use pipesched::core::proof::{ProofLogger, ProofOutput};
use pipesched::core::{run, search, Run, SchedContext, SearchConfig, SearchOutcome, SearchProfile};
use pipesched::frontend::{lower, parse_labeled_program};
use pipesched::ir::{BasicBlock, DepDag};
use pipesched::machine::{presets, Machine};

/// One pinned row: wrapper outputs for (block, machine) under the default
/// `SearchConfig`.
struct Pin {
    block: &'static str,
    machine: &'static str,
    initial_nops: u32,
    nops: u32,
    nodes_visited: u64,
    omega_calls: u64,
    pruned_bound: u64,
    pruned_dominance: u64,
    digest: u64,
}

/// Golden values captured from the pre-refactor wrappers (PR 7 base).
const PINS: &[Pin] = &[
    Pin {
        block: "dotproduct",
        machine: "paper-simulation",
        initial_nops: 8,
        nops: 8,
        nodes_visited: 480,
        omega_calls: 1061,
        pruned_bound: 567,
        pruned_dominance: 15,
        digest: 0x71b358a7f494397d,
    },
    Pin {
        block: "dotproduct",
        machine: "paper-table2",
        initial_nops: 12,
        nops: 12,
        nodes_visited: 649,
        omega_calls: 1198,
        pruned_bound: 460,
        pruned_dominance: 90,
        digest: 0x44b0258427b06774,
    },
    Pin {
        block: "dotproduct",
        machine: "deep-pipeline",
        initial_nops: 20,
        nops: 20,
        nodes_visited: 270,
        omega_calls: 629,
        pruned_bound: 360,
        pruned_dominance: 0,
        digest: 0x22f04d3b00ff84a9,
    },
    Pin {
        block: "dotproduct",
        machine: "functional-units",
        initial_nops: 21,
        nops: 18,
        nodes_visited: 617,
        omega_calls: 1153,
        pruned_bound: 486,
        pruned_dominance: 51,
        digest: 0xd675d8c02c8301e1,
    },
    Pin {
        block: "dotproduct",
        machine: "section2-example",
        initial_nops: 5,
        nops: 4,
        nodes_visited: 566,
        omega_calls: 1029,
        pruned_bound: 464,
        pruned_dominance: 0,
        digest: 0xe5a771cfa1324f23,
    },
    Pin {
        block: "dotproduct",
        machine: "unpipelined",
        initial_nops: 0,
        nops: 0,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_dominance: 0,
        digest: 0x43f5f36b0f16947b,
    },
    Pin {
        block: "stages:entry",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_dominance: 0,
        digest: 0x01c986907927c968,
    },
    Pin {
        block: "stages:square",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_dominance: 0,
        digest: 0x18a9aacd0c1d2457,
    },
    Pin {
        block: "stages:finish",
        machine: "paper-simulation",
        initial_nops: 3,
        nops: 3,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_dominance: 0,
        digest: 0x9ef1a5d4af0f0a1d,
    },
];

fn load_machine(name: &str) -> Machine {
    match name {
        "paper-simulation" => presets::paper_simulation(),
        "paper-table2" => presets::table2_example(),
        "deep-pipeline" => presets::deep_pipeline(),
        "functional-units" => presets::functional_units(),
        "section2-example" => presets::section2_example(),
        "unpipelined" => presets::unpipelined(),
        other => panic!("unknown pinned machine {other}"),
    }
}

/// The example corpus, exactly as the CLI compiles it (optimizer on, under
/// translation validation).
fn corpus() -> Vec<(String, BasicBlock)> {
    let mut blocks = Vec::new();
    for file in ["dotproduct", "stages"] {
        let text = std::fs::read_to_string(format!("examples/data/{file}.src"))
            .expect("read example source");
        let regions = parse_labeled_program(&text).expect("parse");
        let multi = regions.len() > 1;
        for (name, program) in regions {
            let lowered = lower(&name, &program);
            let (optimized, _) =
                pipesched::analyze::optimize_verified(&lowered, &Default::default())
                    .expect("optimizer validates");
            let label = if multi {
                format!("{file}:{name}")
            } else {
                file.to_string()
            };
            blocks.push((label, optimized));
        }
    }
    blocks
}

fn find_block(blocks: &[(String, BasicBlock)], label: &str) -> BasicBlock {
    blocks
        .iter()
        .find(|(name, _)| name == label)
        .unwrap_or_else(|| panic!("pinned block {label} not in corpus"))
        .1
        .clone()
}

/// `run` with an in-memory proof logger.
fn proved(ctx: &SchedContext<'_>, cfg: &SearchConfig) -> (SearchOutcome, ProofOutput) {
    let proof = Run {
        proof: Some(ProofLogger::in_memory()),
        ..Run::default()
    };
    let (out, proof) = run(ctx, cfg, proof).unwrap();
    (out, proof.unwrap())
}

/// `run` filling `profile`.
fn profiled(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    profile: &mut SearchProfile,
) -> SearchOutcome {
    let profiled = Run {
        profile: Some(profile),
        ..Run::default()
    };
    run(ctx, cfg, profiled).unwrap().0
}

#[test]
fn wrappers_match_pre_refactor_outputs_on_example_corpus() {
    let blocks = corpus();
    let print = std::env::var_os("PIPESCHED_PIN_PRINT").is_some();
    for pin in PINS {
        let block = find_block(&blocks, pin.block);
        let machine = load_machine(pin.machine);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::default();

        let plain = search(&ctx, &cfg);
        let (proved, proof) = proved(&ctx, &cfg);
        let mut profile = SearchProfile::new();
        let profiled = profiled(&ctx, &cfg, &mut profile);

        if print {
            println!(
                "Pin {{ block: {:?}, machine: {:?}, initial_nops: {}, nops: {}, \
                 nodes_visited: {}, omega_calls: {}, pruned_bound: {}, pruned_dominance: {}, \
                 digest: {:#018x} }},",
                pin.block,
                pin.machine,
                plain.initial_nops,
                plain.nops,
                plain.stats.nodes_visited,
                plain.stats.omega_calls,
                plain.stats.pruned_bound,
                plain.stats.pruned_dominance,
                proof.digest(),
            );
            continue;
        }

        let tag = format!("{} on {}", pin.block, pin.machine);
        // The three wrappers agree with each other bit for bit.
        assert_eq!(proved.order, plain.order, "{tag}: proof order");
        assert_eq!(proved.stats, plain.stats, "{tag}: proof stats");
        assert_eq!(profiled.order, plain.order, "{tag}: profile order");
        assert_eq!(profiled.stats, plain.stats, "{tag}: profile stats");
        assert_eq!(profiled.etas, plain.etas, "{tag}: profile etas");

        // And with the pre-refactor kernel.
        assert_eq!(plain.initial_nops, pin.initial_nops, "{tag}: initial μ");
        assert_eq!(plain.nops, pin.nops, "{tag}: final μ");
        assert_eq!(plain.stats.nodes_visited, pin.nodes_visited, "{tag}: nodes");
        assert_eq!(plain.stats.omega_calls, pin.omega_calls, "{tag}: Ω calls");
        assert_eq!(
            plain.stats.pruned_bound, pin.pruned_bound,
            "{tag}: bound prunes"
        );
        assert_eq!(
            plain.stats.pruned_dominance, pin.pruned_dominance,
            "{tag}: dominance prunes"
        );
        assert_eq!(proof.digest(), pin.digest, "{tag}: certificate digest");
        assert!(plain.optimal, "{tag}: pinned runs all complete");

        // The structural search identity holds on every pinned path.
        if !plain.stats.proved_by_bound && plain.stats.nodes_visited > 0 {
            assert_eq!(
                plain.stats.nodes_visited,
                1 + plain.stats.omega_calls
                    - plain.stats.pruned_bound
                    - plain.stats.pruned_dominance,
                "{tag}: 1 + Ω − bound-pruned − dominance-pruned == nodes"
            );
        }

        // Per-depth profile totals decompose the same statistics.
        assert_eq!(
            profile.total_nodes(),
            plain.stats.nodes_visited,
            "{tag}: profile node total"
        );
    }
}

/// One pinned row under a non-default `SearchConfig`. Selection runs yield
/// no certificate, so the schedule itself (order and unit assignment) is
/// pinned through `schedule`, an FNV-1a hash; `digest` is the certificate
/// digest wherever proof logging supports the configuration.
#[derive(Debug, PartialEq)]
struct ConfigPin {
    block: &'static str,
    machine: &'static str,
    initial_nops: u32,
    nops: u32,
    optimal: bool,
    nodes_visited: u64,
    omega_calls: u64,
    pruned_bound: u64,
    pruned_symmetry: u64,
    schedule: u64,
    digest: Option<u64>,
}

/// `pipeline_selection: true` over the default configuration.
const SELECTION_PINS: &[ConfigPin] = &[
    ConfigPin {
        block: "dotproduct",
        machine: "paper-simulation",
        initial_nops: 8,
        nops: 8,
        optimal: true,
        nodes_visited: 480,
        omega_calls: 1061,
        pruned_bound: 567,
        pruned_symmetry: 0,
        schedule: 0xac0d852a7f7a57c7,
        digest: None,
    },
    ConfigPin {
        block: "dotproduct",
        machine: "paper-table2",
        initial_nops: 12,
        nops: 10,
        optimal: true,
        nodes_visited: 503,
        omega_calls: 1279,
        pruned_bound: 625,
        pruned_symmetry: 310,
        schedule: 0xfda7789d329644ab,
        digest: None,
    },
    ConfigPin {
        block: "dotproduct",
        machine: "deep-pipeline",
        initial_nops: 20,
        nops: 20,
        optimal: true,
        nodes_visited: 270,
        omega_calls: 629,
        pruned_bound: 360,
        pruned_symmetry: 0,
        schedule: 0xac0d852a7f7a57c7,
        digest: None,
    },
    ConfigPin {
        block: "dotproduct",
        machine: "functional-units",
        initial_nops: 21,
        nops: 18,
        optimal: true,
        nodes_visited: 617,
        omega_calls: 1153,
        pruned_bound: 486,
        pruned_symmetry: 0,
        schedule: 0xdc1a83f286aa74e7,
        digest: None,
    },
    ConfigPin {
        block: "dotproduct",
        machine: "section2-example",
        initial_nops: 5,
        nops: 4,
        optimal: true,
        nodes_visited: 566,
        omega_calls: 1029,
        pruned_bound: 464,
        pruned_symmetry: 0,
        schedule: 0x6e022703b34580c9,
        digest: None,
    },
    ConfigPin {
        block: "dotproduct",
        machine: "unpipelined",
        initial_nops: 0,
        nops: 0,
        optimal: true,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_symmetry: 0,
        schedule: 0x0ba616064d0d199c,
        digest: None,
    },
    ConfigPin {
        block: "stages:entry",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        optimal: true,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_symmetry: 0,
        schedule: 0x5ea20ab41f037a43,
        digest: None,
    },
    ConfigPin {
        block: "stages:square",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        optimal: true,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_symmetry: 0,
        schedule: 0xac460c59669ef5d0,
        digest: None,
    },
    ConfigPin {
        block: "stages:finish",
        machine: "paper-simulation",
        initial_nops: 3,
        nops: 3,
        optimal: true,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        pruned_symmetry: 0,
        schedule: 0xf1b4053ff9225be0,
        digest: None,
    },
];

/// `SearchConfig::paper_exact()`: α-β bound, no lower-bound termination.
const PAPER_EXACT_PINS: &[ConfigPin] = &[
    ConfigPin {
        block: "dotproduct",
        machine: "paper-simulation",
        initial_nops: 8,
        nops: 8,
        optimal: false,
        nodes_visited: 33052,
        omega_calls: 50000,
        pruned_bound: 16948,
        pruned_symmetry: 0,
        schedule: 0xac0d852a7f7a57c7,
        digest: Some(0x7c817389faad8140),
    },
    ConfigPin {
        block: "dotproduct",
        machine: "paper-table2",
        initial_nops: 12,
        nops: 12,
        optimal: false,
        nodes_visited: 33755,
        omega_calls: 50000,
        pruned_bound: 16245,
        pruned_symmetry: 0,
        schedule: 0x0239a4b55fc12c4a,
        digest: Some(0x80869b03de06fa88),
    },
    ConfigPin {
        block: "dotproduct",
        machine: "deep-pipeline",
        initial_nops: 20,
        nops: 20,
        optimal: false,
        nodes_visited: 33603,
        omega_calls: 50000,
        pruned_bound: 16397,
        pruned_symmetry: 0,
        schedule: 0xac0d852a7f7a57c7,
        digest: Some(0x9448fe1c8e389a56),
    },
    ConfigPin {
        block: "dotproduct",
        machine: "functional-units",
        initial_nops: 21,
        nops: 18,
        optimal: false,
        nodes_visited: 33694,
        omega_calls: 50000,
        pruned_bound: 16306,
        pruned_symmetry: 0,
        schedule: 0xdc1a83f286aa74e7,
        digest: Some(0xb529e2353b0cbc77),
    },
    ConfigPin {
        block: "dotproduct",
        machine: "section2-example",
        initial_nops: 5,
        nops: 4,
        optimal: true,
        nodes_visited: 582,
        omega_calls: 1045,
        pruned_bound: 464,
        pruned_symmetry: 0,
        schedule: 0x6e022703b34580c9,
        digest: Some(0x36f0554e93851f3b),
    },
    ConfigPin {
        block: "dotproduct",
        machine: "unpipelined",
        initial_nops: 0,
        nops: 0,
        optimal: true,
        nodes_visited: 1,
        omega_calls: 4,
        pruned_bound: 4,
        pruned_symmetry: 0,
        schedule: 0x0ba616064d0d199c,
        digest: Some(0x9ed57e152053dc84),
    },
    ConfigPin {
        block: "stages:entry",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        optimal: true,
        nodes_visited: 7,
        omega_calls: 8,
        pruned_bound: 2,
        pruned_symmetry: 0,
        schedule: 0x5ea20ab41f037a43,
        digest: Some(0xf0b4bac7b82c5992),
    },
    ConfigPin {
        block: "stages:square",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        optimal: true,
        nodes_visited: 3,
        omega_calls: 3,
        pruned_bound: 1,
        pruned_symmetry: 0,
        schedule: 0xac460c59669ef5d0,
        digest: Some(0x3425548a9db3c558),
    },
    ConfigPin {
        block: "stages:finish",
        machine: "paper-simulation",
        initial_nops: 3,
        nops: 3,
        optimal: true,
        nodes_visited: 7,
        omega_calls: 8,
        pruned_bound: 2,
        pruned_symmetry: 0,
        schedule: 0xf1b4053ff9225be0,
        digest: Some(0xb3c3835e6dca7428),
    },
];

/// FNV-1a over the best order and the unit each tuple was assigned.
fn schedule_hash(out: &SearchOutcome) -> u64 {
    let words = out
        .order
        .iter()
        .map(|t| t.0)
        .chain(out.assignment.iter().map(|p| p.map_or(u32::MAX, |p| p.0)));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn check_config_pins(name: &str, pins: &[ConfigPin], cfg: SearchConfig) {
    let blocks = corpus();
    let print = std::env::var_os("PIPESCHED_PIN_PRINT").is_some();
    for pin in pins {
        let block = find_block(&blocks, pin.block);
        let machine = load_machine(pin.machine);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let tag = format!("{name}: {} on {}", pin.block, pin.machine);

        let plain = search(&ctx, &cfg);
        let mut profile = SearchProfile::new();
        let profiled = profiled(&ctx, &cfg, &mut profile);
        assert_eq!(profiled.order, plain.order, "{tag}: profile order");
        assert_eq!(
            profiled.assignment, plain.assignment,
            "{tag}: profile units"
        );
        assert_eq!(profiled.stats, plain.stats, "{tag}: profile stats");
        assert_eq!(
            profile.total_nodes(),
            plain.stats.nodes_visited,
            "{tag}: profile nodes"
        );
        let digest = (!cfg.pipeline_selection).then(|| {
            let (proved, proof) = proved(&ctx, &cfg);
            assert_eq!(proved.order, plain.order, "{tag}: proof order");
            assert_eq!(proved.stats, plain.stats, "{tag}: proof stats");
            proof.digest()
        });

        let got = ConfigPin {
            block: pin.block,
            machine: pin.machine,
            initial_nops: plain.initial_nops,
            nops: plain.nops,
            optimal: plain.optimal,
            nodes_visited: plain.stats.nodes_visited,
            omega_calls: plain.stats.omega_calls,
            pruned_bound: plain.stats.pruned_bound,
            pruned_symmetry: plain.stats.pruned_symmetry,
            schedule: schedule_hash(&plain),
            digest,
        };
        if print {
            let digest = got
                .digest
                .map_or("None".into(), |d| format!("Some({d:#018x})"));
            println!(
                "ConfigPin {{ block: {:?}, machine: {:?}, initial_nops: {}, nops: {}, \
                 optimal: {}, nodes_visited: {}, omega_calls: {}, pruned_bound: {}, \
                 pruned_symmetry: {}, schedule: {:#018x}, digest: {digest} }},",
                got.block,
                got.machine,
                got.initial_nops,
                got.nops,
                got.optimal,
                got.nodes_visited,
                got.omega_calls,
                got.pruned_bound,
                got.pruned_symmetry,
                got.schedule,
            );
            continue;
        }
        assert_eq!(&got, pin, "{tag}");
    }
}

#[test]
fn pipeline_selection_matches_pinned_outputs() {
    let cfg = SearchConfig {
        pipeline_selection: true,
        ..SearchConfig::default()
    };
    check_config_pins("selection", SELECTION_PINS, cfg);
}

#[test]
fn paper_exact_matches_pinned_outputs() {
    check_config_pins("paper-exact", PAPER_EXACT_PINS, SearchConfig::paper_exact());
}
