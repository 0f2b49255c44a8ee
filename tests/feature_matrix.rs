//! Every way into the search, crossed with every other, cross-checked by
//! an independent checker.
//!
//! The library half drives `core::run` over parallelism × proof ×
//! profile × pipeline selection × boundary on small blocks and every
//! machine preset. An accepted run must give a legal schedule whose NOPs
//! an independent re-timing reproduces, the serial optimum whenever it
//! claims optimality, a certificate the proof checker accepts, and a
//! profile that sums to its statistics. A refused run must return its
//! named `RunError`.
//!
//! The command-line half drives `schedule`, `certify` and `prove` over
//! backend × threads × window × proof. An accepted combination exits 0
//! with a certified result; a refused one exits non-zero with an error
//! naming the conflicting flags. Nothing panics.

use std::process::Command;

use pipesched::analyze::certify::{certify, Claim};
use pipesched::core::proof::{Certificate, ProofLogger};
use pipesched::core::{
    run, BoundaryState, ParallelConfig, Run, RunError, SchedContext, SearchConfig, SearchOutcome,
    SearchProfile, TimingEngine,
};
use pipesched::frontend::{lower, parse_labeled_program};
use pipesched::ir::{analysis::verify_schedule, BasicBlock, BlockBuilder, DepDag};
use pipesched::machine::{presets, Machine};
use pipesched::proof::{check_certificate, ProofVerdict};
use pipesched::synth::{generate_block, GeneratorConfig};

/// The example programs' blocks (optimized, as the CLI schedules them)
/// plus a few small generated ones.
fn blocks() -> Vec<BasicBlock> {
    let mut blocks = Vec::new();
    for file in ["dotproduct", "stages"] {
        let path = format!("{}/examples/data/{file}.src", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap();
        for (name, program) in parse_labeled_program(&text).unwrap() {
            let lowered = lower(&name, &program);
            let (optimized, _) =
                pipesched::analyze::optimize_verified(&lowered, &Default::default()).unwrap();
            blocks.push(optimized);
        }
    }
    blocks.extend(
        (0..3).map(|seed| generate_block(&GeneratorConfig::new(4 + seed as usize, 3, 2, seed))),
    );
    blocks
}

/// The pipeline state a multiply-heavy predecessor block leaves behind.
fn carried_boundary(machine: &Machine) -> BoundaryState {
    let mut b = BlockBuilder::new("before");
    let x = b.load("p");
    let m = b.mul(x, x);
    let s = b.add(m, x);
    b.store("q", s);
    let before = b.finish().unwrap();
    let dag = DepDag::build(&before);
    let ctx = SchedContext::new(&before, &dag, machine);
    let mut engine = TimingEngine::new(&ctx);
    for t in before.ids() {
        engine.push_default(t);
    }
    engine.capture_boundary()
}

/// One point of the library matrix.
#[derive(Debug, Clone, Copy)]
struct Combo {
    threads: Option<usize>,
    proof: bool,
    profile: bool,
    selection: bool,
    carried: bool,
}

impl Combo {
    fn all() -> impl Iterator<Item = Combo> {
        let flags = [false, true];
        [None, Some(1), Some(2)]
            .into_iter()
            .flat_map(move |threads| {
                flags.into_iter().flat_map(move |proof| {
                    flags.into_iter().flat_map(move |profile| {
                        flags.into_iter().flat_map(move |selection| {
                            flags.into_iter().map(move |carried| Combo {
                                threads,
                                proof,
                                profile,
                                selection,
                                carried,
                            })
                        })
                    })
                })
            })
    }

    /// The refusal `run` owes this combination, in its order of checks.
    /// `in_flight` says whether the carried boundary has any pipeline
    /// still busy (on a machine without pipelines it is a cold one).
    fn refusal(self, in_flight: bool) -> Option<RunError> {
        if self.proof && self.selection {
            Some(RunError::ProofWithSelection)
        } else if self.proof && self.carried && in_flight {
            Some(RunError::ProofWithBoundary)
        } else if self.profile && self.threads.is_some() {
            Some(RunError::ProfileWithPool)
        } else {
            None
        }
    }
}

/// Re-time `out` independently of the search: the certifier from a cold
/// boundary, a fresh timing engine replaying the order on the chosen
/// units from a carried one.
fn check_timing(
    ctx: &SchedContext<'_>,
    out: &SearchOutcome,
    boundary: Option<&BoundaryState>,
    tag: &str,
) {
    verify_schedule(ctx.block, ctx.dag, &out.order).unwrap_or_else(|e| panic!("{tag}: {e}"));
    match boundary {
        None => {
            let cert = certify(
                ctx.block,
                ctx.machine,
                Claim {
                    order: &out.order,
                    assignment: Some(&out.assignment),
                    etas: Some(&out.etas),
                    nops: Some(out.nops),
                },
            );
            assert!(cert.is_certified(), "{tag}:\n{}", cert.report);
            assert_eq!(cert.derived_nops, Some(u64::from(out.nops)), "{tag}");
        }
        Some(boundary) => {
            let mut engine = TimingEngine::with_boundary(ctx, boundary);
            let etas: Vec<u32> = out
                .order
                .iter()
                .map(|&t| engine.push(t, out.assignment[t.index()]))
                .collect();
            assert_eq!(etas, out.etas, "{tag}: η");
            assert_eq!(engine.total_nops(), out.nops, "{tag}: μ");
        }
    }
}

#[test]
fn every_library_combination_certifies_or_is_refused() {
    let cfg = SearchConfig::with_lambda(20_000);
    let (mut accepted, mut refused, mut proved) = (0, 0, 0);
    for block in blocks() {
        let dag = DepDag::build(&block);
        for machine in presets::all_presets() {
            let ctx = SchedContext::new(&block, &dag, &machine);
            let carried = carried_boundary(&machine);
            let in_flight = carried.pipe_age.iter().any(Option::is_some);
            for combo in Combo::all() {
                let tag = format!("{} on {}: {combo:?}", block.name, machine.name);
                let boundary = combo.carried.then_some(&carried);
                let cfg = SearchConfig {
                    pipeline_selection: combo.selection,
                    ..cfg
                };
                let mut profile = SearchProfile::new();
                let request = Run {
                    parallel: combo.threads.map(ParallelConfig::with_threads),
                    boundary,
                    proof: combo.proof.then(ProofLogger::in_memory),
                    profile: combo.profile.then_some(&mut profile),
                };
                let result = run(&ctx, &cfg, request);
                if let Some(expected) = combo.refusal(in_flight) {
                    assert_eq!(result.err(), Some(expected), "{tag}");
                    refused += 1;
                    continue;
                }
                let (out, proof) = result.unwrap_or_else(|e| panic!("{tag}: refused: {e}"));
                accepted += 1;
                check_timing(&ctx, &out, boundary, &tag);

                // The serial, unobserved run with the same selection and
                // boundary is the reference optimum.
                let serial = Run {
                    boundary,
                    ..Run::default()
                };
                let (reference, _) = run(&ctx, &cfg, serial).unwrap();
                if out.optimal && reference.optimal {
                    assert_eq!(out.nops, reference.nops, "{tag}: optimum");
                }
                if combo.profile {
                    assert_eq!(
                        profile.total_nodes(),
                        out.stats.nodes_visited,
                        "{tag}: profile"
                    );
                }
                match proof {
                    Some(proof) => {
                        let cert: Certificate = proof.certificate.expect("in-memory certificate");
                        let check = check_certificate(&block, &machine, &cert);
                        if out.optimal {
                            assert_eq!(
                                check.verdict,
                                ProofVerdict::OptimalCertified { nops: out.nops },
                                "{tag}:\n{}",
                                check.report
                            );
                            proved += 1;
                        }
                    }
                    None => assert!(!combo.proof, "{tag}: no proof output"),
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0 && proved > 0,
        "{accepted} accepted, {refused} refused, {proved} proved"
    );

    // A boundary of another machine is refused, not a panic.
    let block = &blocks()[0];
    let dag = DepDag::build(block);
    let machine = presets::paper_simulation();
    let ctx = SchedContext::new(block, &dag, &machine);
    let foreign = BoundaryState::cold(machine.pipeline_count() + 1);
    let request = Run {
        boundary: Some(&foreign),
        ..Run::default()
    };
    assert!(matches!(
        run(&ctx, &cfg, request),
        Err(RunError::BoundaryMismatch { .. })
    ));
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipesched"))
}

/// The block a subcommand makes of a one-block example source: `schedule`
/// compiles it whole, `certify` and `prove` region by region.
fn example_block(cmd: &str, path: &str) -> BasicBlock {
    let text = std::fs::read_to_string(path).unwrap();
    let block = if cmd == "schedule" {
        pipesched::frontend::compile_unoptimized(path, &text).unwrap()
    } else {
        let (name, program) = parse_labeled_program(&text).unwrap().remove(0);
        lower(&name, &program)
    };
    pipesched::analyze::optimize_verified(&block, &Default::default())
        .unwrap()
        .0
}

/// The flags a refused command line must name, mirroring the CLI's rules
/// in their order; `None` when the combination is accepted.
fn expected_refusal(
    cmd: &str,
    backend: Option<&str>,
    threads: usize,
    window: bool,
    proof: bool,
) -> Option<Vec<&'static str>> {
    if cmd != "schedule" && backend.is_some() {
        return Some(vec!["--backend"]);
    }
    let proving = cmd == "prove" || proof;
    let proof_flag = if cmd == "prove" { "prove" } else { "--proof" };
    let other_backend = backend.is_some_and(|b| b != "bnb");
    let rules = [
        (window && proving, ["--window", proof_flag]),
        (window && threads != 1, ["--window", "--threads"]),
        (other_backend && window, ["--backend", "--window"]),
        (other_backend && threads != 1, ["--backend", "--threads"]),
        (other_backend && proving, ["--backend", proof_flag]),
    ];
    rules
        .into_iter()
        .find(|(hit, _)| *hit)
        .map(|(_, flags)| flags.to_vec())
}

#[test]
fn every_command_line_combination_certifies_or_names_its_conflict() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dotproduct.src");
    let machine = presets::paper_simulation();
    let cert_path =
        std::env::temp_dir().join(format!("pipesched-matrix-{}.ndjson", std::process::id()));
    let mut accepted = 0;
    for cmd in ["schedule", "certify", "prove"] {
        let block = example_block(cmd, src);
        for backend in [None, Some("bnb"), Some("sat"), Some("race")] {
            for threads in [1usize, 2] {
                for window in [false, true] {
                    for proof in [false, true] {
                        let mut command = bin();
                        command.args([cmd, src, "--threads", &threads.to_string()]);
                        if let Some(b) = backend {
                            command.args(["--backend", b]);
                        }
                        if window {
                            command.args(["--window", "4"]);
                        }
                        if proof {
                            let _ = std::fs::remove_file(&cert_path);
                            command.arg("--proof").arg(&cert_path);
                        }
                        if cmd == "schedule" {
                            command.arg("--json");
                        }
                        let out = command.output().unwrap();
                        let stderr = String::from_utf8_lossy(&out.stderr);
                        let tag = format!(
                            "{cmd} {backend:?} --threads {threads} window {window} proof {proof}"
                        );
                        assert_ne!(out.status.code(), Some(101), "{tag}: {stderr}");
                        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");

                        if let Some(flags) = expected_refusal(cmd, backend, threads, window, proof)
                        {
                            assert!(!out.status.success(), "{tag}: accepted");
                            let first = stderr.lines().next().unwrap_or_default();
                            for flag in flags {
                                assert!(
                                    first.contains(flag),
                                    "{tag}: `{first}` does not name {flag}"
                                );
                            }
                            continue;
                        }
                        assert!(out.status.success(), "{tag}: {stderr}");
                        accepted += 1;

                        if cmd == "schedule" {
                            let doc = pipesched::json::parse(&String::from_utf8_lossy(&out.stdout))
                                .unwrap();
                            let ints = |key: &str| -> Vec<i64> {
                                doc.get(key)
                                    .and_then(pipesched::json::Json::as_array)
                                    .unwrap()
                                    .iter()
                                    .map(|v| v.as_i64().unwrap())
                                    .collect()
                            };
                            let order: Vec<_> = ints("order")
                                .into_iter()
                                .map(|t| pipesched::ir::TupleId(t as u32 - 1))
                                .collect();
                            let etas: Vec<u32> =
                                ints("etas").into_iter().map(|e| e as u32).collect();
                            let nops = doc
                                .get("nops")
                                .and_then(pipesched::json::Json::as_i64)
                                .unwrap();
                            let cert = certify(
                                &block,
                                &machine,
                                Claim {
                                    order: &order,
                                    etas: Some(&etas),
                                    nops: Some(nops as u32),
                                    ..Claim::default()
                                },
                            );
                            assert!(cert.is_certified(), "{tag}:\n{}", cert.report);
                        }
                        if proof {
                            let text = std::fs::read_to_string(&cert_path).unwrap();
                            let cert = Certificate::from_ndjson(&text).unwrap();
                            let check = check_certificate(&block, &machine, &cert);
                            assert!(check.is_certified(), "{tag}:\n{}", check.report);
                        }
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(&cert_path);
    assert!(accepted >= 14, "only {accepted} combinations accepted");
}
