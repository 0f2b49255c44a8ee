//! Pins what the independent proof checker answers.
//!
//! One digest folds, for every certificate below, the checker's verdict
//! and each diagnostic's code and message bytes:
//!
//! * the serial certificate and the one-worker pooled certificate (both
//!   deterministic) of the first corpus blocks of 12–40 instructions on
//!   the paper's machine, and of a few dozen on two other presets;
//! * the same for a few small blocks under the α-β bound and under the
//!   structural equivalence rule, so every branch of the replay runs;
//! * a seeded sweep of single mutations of those certificates: a dropped,
//!   duplicated, swapped, inserted or truncated event, a re-targeted
//!   candidate, witness or `back`, a shifted μ, bound, chain, resource,
//!   term or global bound, and an edited header or trailer.
//!
//! The sweep also asserts that the checker never panics and names an
//! `A04xx` code on every rejection. A rewrite of the checker must leave
//! the digest unchanged. To print the current values, run
//! `PIPESCHED_PIN_PRINT=1 cargo test --test proof_pin -- --nocapture`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipesched::core::proof::{Certificate, ProofEvent};
use pipesched::core::{
    parallel_prove, prove, BoundKind, EquivalenceMode, ParallelConfig, SchedContext, SearchConfig,
};
use pipesched::ir::{BasicBlock, DepDag};
use pipesched::machine::{presets, Machine};
use pipesched::proof::{check_certificate, ProofVerdict};
use pipesched::synth::CorpusSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Blocks proved on the paper's machine.
const PAPER_BLOCKS: usize = 200;

/// Blocks proved on each of the two other presets.
const PRESET_BLOCKS: usize = 24;

/// Small blocks proved under each of the two other configurations.
const CONFIG_BLOCKS: usize = 12;

/// Single mutations checked.
const MUTATIONS: usize = 20_000;

/// A 64-bit FNV-1a fold.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn printing() -> bool {
    std::env::var_os("PIPESCHED_PIN_PRINT").is_some()
}

/// One block to certify, on its machine, under its configuration.
struct Case {
    block: BasicBlock,
    machine: Machine,
    cfg: SearchConfig,
}

/// The first `count` corpus blocks whose length lies in `sizes`.
fn corpus_blocks(count: usize, sizes: std::ops::RangeInclusive<usize>) -> Vec<BasicBlock> {
    let spec = CorpusSpec::paper_default();
    (0..)
        .map(|k| spec.block(k))
        .filter(|b| sizes.contains(&b.len()))
        .take(count)
        .collect()
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let default = SearchConfig::default();
    let hard = corpus_blocks(PAPER_BLOCKS, 12..=40);
    for block in &hard {
        cases.push(Case {
            block: block.clone(),
            machine: presets::paper_simulation(),
            cfg: default,
        });
    }
    for machine in [presets::deep_pipeline(), presets::functional_units()] {
        for block in &hard[..PRESET_BLOCKS] {
            cases.push(Case {
                block: block.clone(),
                machine: machine.clone(),
                cfg: default,
            });
        }
    }
    let small = corpus_blocks(CONFIG_BLOCKS, 6..=11);
    let alpha_beta = SearchConfig::paper_exact();
    let structural = SearchConfig {
        equivalence: EquivalenceMode::Structural,
        ..default
    };
    for cfg in [alpha_beta, structural] {
        for block in &small {
            cases.push(Case {
                block: block.clone(),
                machine: presets::paper_simulation(),
                cfg,
            });
        }
    }
    cases
}

/// The serial and the one-worker pooled certificate of each case.
fn certificates(cases: &[Case]) -> Vec<(usize, Certificate)> {
    let mut certs = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let dag = DepDag::build(&case.block);
        let ctx = SchedContext::new(&case.block, &dag, &case.machine);
        let (_, serial) = prove(&ctx, &case.cfg);
        let (_, pooled) = parallel_prove(&ctx, &case.cfg, &ParallelConfig::with_threads(1));
        certs.push((i, serial));
        certs.push((i, pooled.merge()));
    }
    certs
}

/// Check `cert` and fold the verdict and every diagnostic into `d`;
/// returns whether it was certified. Panics with `what` in the message
/// if the checker panics or rejects without an `A04xx` code.
fn fold_check(d: &mut Digest, case: &Case, cert: &Certificate, what: &dyn Fn() -> String) -> bool {
    let check = catch_unwind(AssertUnwindSafe(|| {
        check_certificate(&case.block, &case.machine, cert)
    }))
    .unwrap_or_else(|_| panic!("the checker panicked on {}", what()));
    match check.verdict {
        ProofVerdict::OptimalCertified { nops } => {
            d.word(1);
            d.word(u64::from(nops));
        }
        ProofVerdict::Rejected => {
            d.word(0);
            let diags = check.report.diagnostics();
            assert!(
                !diags.is_empty() && diags.iter().all(|g| g.code.as_str().starts_with("A04")),
                "a rejection without an A04xx code on {}:\n{}",
                what(),
                check.report
            );
        }
    }
    for g in check.report.diagnostics() {
        d.bytes(g.code.as_str().as_bytes());
        d.bytes(g.message.as_bytes());
        d.word(g.message.len() as u64);
    }
    check.is_certified()
}

/// A small signed shift, now and then an extreme one.
fn shift(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..8u32) {
        0 => i64::from(rng.gen_range(2..40u32)),
        1 => -i64::from(rng.gen_range(2..40u32)),
        2 => 1 << 40,
        3 | 4 => -1,
        _ => 1,
    }
}

fn shift_u32(v: u32, rng: &mut StdRng) -> u32 {
    (i64::from(v) + shift(rng)).clamp(0, i64::from(u32::MAX)) as u32
}

fn shift_i64(v: i64, rng: &mut StdRng) -> i64 {
    v.saturating_add(shift(rng))
}

/// A tuple id: mostly in the block, now and then just past it or huge.
fn tuple(n: u32, rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..16u32) {
        0 => n,
        1 => u32::MAX,
        _ => rng.gen_range(0..n.max(1)),
    }
}

/// A copy of `cert` with one event, header or trailer field changed.
/// Returns the copy and a short name of the change.
fn mutate(cert: &Certificate, rng: &mut StdRng) -> (Certificate, &'static str) {
    let mut c = cert.clone();
    let n = c.header.n;
    let len = c.events.len();
    let at = rng.gen_range(0..len.max(1));
    let of_kind = |c: &Certificate, pick: fn(&ProofEvent) -> bool, rng: &mut StdRng| {
        let found: Vec<usize> = (0..c.events.len())
            .filter(|&i| pick(&c.events[i]))
            .collect();
        (!found.is_empty()).then(|| found[rng.gen_range(0..found.len())])
    };
    let what = match rng.gen_range(0..14u32) {
        0 if len > 0 => {
            c.events.remove(at);
            "drop"
        }
        1 if len > 0 => {
            c.events.insert(at, c.events[at]);
            "duplicate"
        }
        2 if len > 1 => {
            let other = if rng.gen_bool(0.5) {
                (at + 1) % len
            } else {
                rng.gen_range(0..len)
            };
            c.events.swap(at, other);
            "swap"
        }
        3 if len > 0 => {
            c.events.truncate(at);
            "truncate"
        }
        4 => {
            let ev = match rng.gen_range(0..4u32) {
                0 => ProofEvent::Enter {
                    candidate: tuple(n, rng),
                },
                1 => ProofEvent::Leave,
                2 => ProofEvent::LegalityPrune {
                    candidate: tuple(n, rng),
                },
                _ => ProofEvent::Complete {
                    mu: rng.gen_range(0..8),
                },
            };
            c.events.insert(rng.gen_range(0..len + 1), ev);
            "insert"
        }
        5 | 6 if len > 0 => {
            let to = tuple(n, rng);
            match &mut c.events[at] {
                ProofEvent::Enter { candidate }
                | ProofEvent::LegalityPrune { candidate }
                | ProofEvent::EquivalencePrune { candidate, .. }
                | ProofEvent::BoundPrune { candidate, .. }
                | ProofEvent::DominancePrune { candidate, .. } => *candidate = to,
                ProofEvent::Complete { mu } | ProofEvent::Improve { mu } => {
                    *mu = shift_u32(*mu, rng)
                }
                ProofEvent::ProvedByBound { lb } => *lb = shift_u32(*lb, rng),
                ProofEvent::Leave => c.events[at] = ProofEvent::Enter { candidate: to },
            }
            "candidate"
        }
        7 => {
            let Some(i) = of_kind(
                &c,
                |e| {
                    matches!(
                        e,
                        ProofEvent::EquivalencePrune { .. } | ProofEvent::DominancePrune { .. }
                    )
                },
                rng,
            ) else {
                c.trailer.complete = false;
                return (c, "incomplete");
            };
            let to = tuple(n, rng);
            match &mut c.events[i] {
                ProofEvent::EquivalencePrune { witness, .. } => *witness = to,
                ProofEvent::DominancePrune { back, .. } => {
                    *back = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => u64::MAX,
                        _ => back.saturating_add_signed(shift(rng)),
                    }
                }
                _ => unreachable!(),
            }
            "witness"
        }
        8 | 9 => {
            let Some(i) = of_kind(
                &c,
                |e| {
                    matches!(
                        e,
                        ProofEvent::BoundPrune { .. }
                            | ProofEvent::Complete { .. }
                            | ProofEvent::Improve { .. }
                            | ProofEvent::ProvedByBound { .. }
                    )
                },
                rng,
            ) else {
                c.trailer.nops = shift_u32(c.trailer.nops, rng);
                return (c, "trailer nops");
            };
            let field = rng.gen_range(0..5u32);
            match &mut c.events[i] {
                ProofEvent::BoundPrune {
                    mu,
                    bound,
                    chain,
                    resource,
                    term,
                    ..
                } => match field {
                    0 => *mu = shift_u32(*mu, rng),
                    1 => *bound = shift_u32(*bound, rng),
                    2 => *chain = chain.map(|v| shift_i64(v, rng)).or(Some(0)),
                    3 => *resource = resource.map(|v| shift_i64(v, rng)).or(Some(0)),
                    _ => {
                        *term = match term {
                            Some(_) if rng.gen_bool(0.25) => None,
                            Some(v) => Some(shift_i64(*v, rng)),
                            None => Some(rng.gen_range(0..80)),
                        }
                    }
                },
                ProofEvent::Complete { mu } | ProofEvent::Improve { mu } => {
                    *mu = shift_u32(*mu, rng)
                }
                ProofEvent::ProvedByBound { lb } => *lb = shift_u32(*lb, rng),
                _ => unreachable!(),
            }
            "arithmetic"
        }
        10 | 11 => {
            match rng.gen_range(0..6u32) {
                0 => c.header.n = shift_u32(n, rng),
                1 => c.header.initial_nops = shift_u32(c.header.initial_nops, rng),
                2 if n > 1 => {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    c.header.initial_order.swap(i as usize, j as usize);
                }
                3 => {
                    c.header.bound = match c.header.bound {
                        BoundKind::AlphaBeta => BoundKind::CriticalPath,
                        BoundKind::CriticalPath => BoundKind::AlphaBeta,
                    }
                }
                4 => {
                    c.header.equivalence = [
                        EquivalenceMode::Off,
                        EquivalenceMode::Paper,
                        EquivalenceMode::UnrestrictedPaper,
                        EquivalenceMode::Structural,
                    ][rng.gen_range(0..4usize)]
                }
                _ => {
                    c.header.initial_order.pop();
                }
            }
            "header"
        }
        _ => {
            match rng.gen_range(0..4u32) {
                0 => c.trailer.nops = shift_u32(c.trailer.nops, rng),
                1 if n > 1 => {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    c.trailer.order.swap(i as usize, j as usize);
                }
                2 => c.trailer.complete = !c.trailer.complete,
                _ => {
                    let last = c.trailer.order.pop();
                    c.trailer.order.extend(last.map(|t| t ^ 1));
                }
            }
            "trailer"
        }
    };
    (c, what)
}

#[test]
fn checker_verdicts_and_diagnostics_are_pinned() {
    let cases = cases();
    let certs = certificates(&cases);

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut certified = 0usize;
    for (k, (i, cert)) in certs.iter().enumerate() {
        let case = &cases[*i];
        let what = || format!("certificate {k} of `{}`", case.machine.name);
        certified += usize::from(fold_check(&mut d, case, cert, &what));
    }
    let honest = d.0;

    let mut rng = StdRng::seed_from_u64(0x0070_7266_5f70_696e);
    let mut accepted = 0usize;
    for m in 0..MUTATIONS {
        let (k, (i, cert)) = {
            let k = rng.gen_range(0..certs.len());
            (k, &certs[k])
        };
        let (forged, kind) = mutate(cert, &mut rng);
        let what = || format!("mutation {m} ({kind}) of certificate {k}");
        accepted += usize::from(fold_check(&mut d, &cases[*i], &forged, &what));
    }
    let events: usize = certs.iter().map(|(_, c)| c.events.len()).sum();
    if printing() {
        println!(
            "{} certificates ({events} events), {certified} certified, honest digest \
             {honest:#018x}; {MUTATIONS} mutations, {accepted} accepted, digest {:#018x}",
            certs.len(),
            d.0
        );
    }
    assert_eq!(
        (certs.len(), certified, honest, accepted, d.0),
        (544, 544, 0xebdc_8084_f4a3_7325, 2129, 0x2cc0_d5ee_9f25_971f)
    );
}
