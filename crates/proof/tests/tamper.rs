//! Property tests for the certificate checker: real certificates are
//! accepted verbatim, and *any* single-record tamper — dropping a prune,
//! lowering a bound, swapping an equivalence pair, forging a
//! heads-and-tails term — is rejected with the specific `A04xx` code the
//! corruption deserves.

use proptest::prelude::*;

use pipesched_analyze::diag::DiagCode;
use pipesched_core::bnb::{prove, search, EquivalenceMode, SearchConfig};
use pipesched_core::proof::{Certificate, ProofEvent};
use pipesched_core::{global_lower_bound, BoundKind, SchedContext};
use pipesched_ir::{BasicBlock, BlockBuilder, DepDag, Op, TupleId};
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};

/// A random basic block built from a byte script (same construction as the
/// core optimality suite): every generated block is valid by construction.
fn block_from_script(script: &[u8], max_len: usize) -> BasicBlock {
    let mut b = BlockBuilder::new("prop");
    let vars = ["a", "b", "c", "d"];
    for chunk in script.chunks(3) {
        if b.len() >= max_len {
            break;
        }
        let (op, x, y) = (
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        );
        let n = b.len();
        let pick = |sel: u8| TupleId((sel as usize % n) as u32);
        match op % 6 {
            0 => {
                b.load(vars[x as usize % vars.len()]);
            }
            1 => {
                b.constant(i64::from(x));
            }
            2 | 3 if n > 0 => {
                let ops = [Op::Add, Op::Sub, Op::Mul, Op::Div];
                let o = ops[y as usize % ops.len()];
                match (producing(&b, pick(x)), producing(&b, pick(y))) {
                    (Some(l), Some(r)) => {
                        b.binary(o, l, r);
                    }
                    _ => {
                        b.load(vars[x as usize % vars.len()]);
                    }
                }
            }
            4 if n > 0 => {
                if let Some(v) = producing(&b, pick(x)) {
                    b.store(vars[y as usize % vars.len()], v);
                } else {
                    b.load(vars[y as usize % vars.len()]);
                }
            }
            _ => {
                b.load(vars[y as usize % vars.len()]);
            }
        }
    }
    if b.is_empty() {
        b.load("a");
    }
    b.finish().expect("generated blocks are valid")
}

/// Find a value-producing tuple at or before `t` (scanning backwards).
fn producing(b: &BlockBuilder, t: TupleId) -> Option<TupleId> {
    let block = b.clone().finish_unchecked();
    (0..=t.index())
        .rev()
        .map(|i| TupleId(i as u32))
        .find(|&i| block.tuple(i).op.produces_value())
}

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

/// An exhaustive-search config (no curtailment, no lower-bound early stop)
/// so every certificate closes its root node and tampering with any prune
/// record breaks coverage.
fn exhaustive(bound: BoundKind, equivalence: EquivalenceMode) -> SearchConfig {
    SearchConfig {
        lambda: u64::MAX,
        bound,
        equivalence,
        terminate_on_lower_bound: false,
        ..SearchConfig::default()
    }
}

fn prove_on(block: &BasicBlock, machine: &Machine, cfg: &SearchConfig) -> (u32, Certificate) {
    let dag = DepDag::build(block);
    let ctx = SchedContext::new(block, &dag, machine);
    let (out, cert) = prove(&ctx, cfg);
    assert!(out.optimal);
    (out.nops, cert)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every certificate the instrumented search emits — under either
    /// bound and every sound equivalence mode — is checker-accepted, with
    /// the certified μ equal to the search's.
    #[test]
    fn real_certificates_are_accepted(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for equivalence in [EquivalenceMode::Off, EquivalenceMode::Paper,
                                EquivalenceMode::Structural] {
                let (nops, cert) = prove_on(&block, machine, &exhaustive(bound, equivalence));
                let check = check_certificate(&block, machine, &cert);
                prop_assert!(
                    check.is_certified(),
                    "{bound:?}/{equivalence:?} rejected on {}:\n{}\n{}",
                    machine.name, block, check.report
                );
                prop_assert_eq!(check.verdict, ProofVerdict::OptimalCertified { nops });
            }
        }
        // The lower-bound early-stop path (a terminal ProvedByBound event)
        // must also certify.
        let cfg = SearchConfig { lambda: u64::MAX, ..SearchConfig::default() };
        let (_, cert) = prove_on(&block, machine, &cfg);
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(check.is_certified(), "{}", check.report);
    }

    /// The NDJSON round trip preserves both the digest and acceptance.
    #[test]
    fn ndjson_round_trip_is_lossless(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, cert) = prove_on(&block, machine, &cfg);
        let text = cert.to_ndjson();
        let back = Certificate::from_ndjson(&text).expect("round trip parses");
        prop_assert_eq!(back.digest(), cert.digest());
        prop_assert!(check_certificate(&block, machine, &back).is_certified());
    }

    /// Dropping any single prune record leaves that subtree uncovered:
    /// the checker must report `A0402 ProofCoverageGap`.
    #[test]
    fn dropped_prune_is_a_coverage_gap(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e,
                ProofEvent::LegalityPrune { .. }
                | ProofEvent::EquivalencePrune { .. }
                | ProofEvent::BoundPrune { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        cert.events.remove(prunes[victim % prunes.len()]);

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::ProofCoverageGap),
            "expected A0402, got:\n{}", check.report
        );
    }

    /// Lowering any bound-prune's recorded bound breaks the re-derived
    /// arithmetic: the checker must report `A0403 BoundArithmeticMismatch`.
    #[test]
    fn lowered_bound_is_an_arithmetic_mismatch(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
        bound_sel in 0usize..2,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let bound = [BoundKind::AlphaBeta, BoundKind::CriticalPath][bound_sel];
        let cfg = exhaustive(bound, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e, ProofEvent::BoundPrune { bound, .. } if *bound > 0))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        let i = prunes[victim % prunes.len()];
        if let ProofEvent::BoundPrune { bound, .. } = &mut cert.events[i] {
            *bound -= 1;
        }

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::BoundArithmeticMismatch),
            "expected A0403, got:\n{}", check.report
        );
    }

    /// Swapping an equivalence prune's (candidate, witness) pair cites a
    /// witness that was never placed at that node: the checker must report
    /// `A0405 StaleEquivalenceWitness`.
    #[test]
    fn swapped_witness_pair_is_stale(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
        mode_sel in 0usize..2,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let equivalence = [EquivalenceMode::Paper, EquivalenceMode::Structural][mode_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, equivalence);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e, ProofEvent::EquivalencePrune { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        let i = prunes[victim % prunes.len()];
        if let ProofEvent::EquivalencePrune { candidate, witness } = &mut cert.events[i] {
            std::mem::swap(candidate, witness);
        }

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::StaleEquivalenceWitness),
            "expected A0405, got:\n{}", check.report
        );
    }

    /// Inflating the trailer's claimed μ (understating quality would need a
    /// schedule that does not exist; overstating must also be caught) is an
    /// incumbent regression.
    #[test]
    fn tampered_trailer_nops_is_a_regression(
        script in proptest::collection::vec(any::<u8>(), 3..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);
        cert.trailer.nops += 1;
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::IncumbentRegression),
            "expected A0406, got:\n{}", check.report
        );
    }

    /// Certificates recorded under the paper's *unrestricted* rule [5c]
    /// are held to the restricted interchangeability condition: the checker
    /// either accepts (when the block has no distinguishing successors) or
    /// rejects specifically with `A0405` — and the search itself may have
    /// lost the optimum, which is exactly why the verdict matters.
    #[test]
    fn unrestricted_rule_certificates_never_pass_unsoundly(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::UnrestrictedPaper);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, machine);
        let (out, cert) = prove(&ctx, &cfg);
        prop_assert!(out.optimal); // "optimal" by its own (unsound) lights
        let check = check_certificate(&block, machine, &cert);
        if check.is_certified() {
            // Acceptance is only possible when every unrestricted prune
            // happened to satisfy the restricted condition too — in which
            // case the certified μ must be the true optimum.
            let sound = search(&ctx, &exhaustive(BoundKind::CriticalPath, EquivalenceMode::Off));
            prop_assert_eq!(check.verdict, ProofVerdict::OptimalCertified { nops: sound.nops });
        } else {
            prop_assert!(
                check.report.has_code(DiagCode::StaleEquivalenceWitness),
                "expected A0405, got:\n{}", check.report
            );
        }
    }

    /// `Certificate::by_bound` — the shortcut certificate the service's
    /// heuristic tiers emit when a schedule meets the global lower bound —
    /// is accepted exactly when the claimed μ really equals that bound.
    #[test]
    fn by_bound_certificates_check(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, machine);
        let out = search(&ctx, &SearchConfig { lambda: u64::MAX, ..SearchConfig::default() });
        prop_assert!(out.optimal);
        let lb = global_lower_bound(&ctx);
        prop_assume!(out.nops == lb);
        let order: Vec<u32> = out.order.iter().map(|t| t.0).collect();
        let cert = Certificate::by_bound(block.len() as u32, order, out.nops, lb);
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(check.is_certified(), "{}", check.report);

        // ... and overstating the bound by one is an A0408.
        let order: Vec<u32> = out.order.iter().map(|t| t.0).collect();
        let forged = Certificate::by_bound(block.len() as u32, order, out.nops, lb + 1);
        let check = check_certificate(&block, machine, &forged);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::LowerBoundMismatch),
            "expected A0408, got:\n{}", check.report
        );
    }
}

/// Corpus blocks (paper simulation machine) whose serial proof records
/// heads-and-tails terms: searches past the term's switch-on, on blocks
/// large enough for its gate. Returns each block with its certificate.
fn term_certificates(want: usize) -> Vec<(BasicBlock, Certificate)> {
    let spec = pipesched_synth::CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let mut found = Vec::new();
    for k in 0.. {
        assert!(
            k < 4_000,
            "only {} corpus blocks record a term",
            found.len()
        );
        let block = spec.block(k);
        if block.len() < 20 {
            continue;
        }
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (out, cert) = prove(&ctx, &SearchConfig::default());
        let terms = cert
            .events
            .iter()
            .filter(|e| matches!(e, ProofEvent::BoundPrune { term: Some(_), .. }))
            .count();
        if out.optimal && terms > 0 {
            let check = check_certificate(&block, &machine, &cert);
            assert!(check.is_certified(), "{}", check.report);
            found.push((block, cert));
            if found.len() == want {
                return found;
            }
        }
    }
    unreachable!()
}

/// Where the term-bearing bound prunes of `cert` are.
fn term_prunes(cert: &Certificate) -> Vec<usize> {
    cert.events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, ProofEvent::BoundPrune { term: Some(_), .. }))
        .map(|(i, _)| i)
        .collect()
}

/// A heads-and-tails value raised by one is not the value the checker's
/// own Jackson schedule reaches where the search stopped: `A0403`.
#[test]
fn raised_heads_and_tails_term_is_an_arithmetic_mismatch() {
    let machine = presets::paper_simulation();
    for (block, cert) in term_certificates(3) {
        let prunes = term_prunes(&cert);
        for &i in [
            prunes[0],
            prunes[prunes.len() / 2],
            prunes[prunes.len() - 1],
        ]
        .iter()
        {
            let mut forged = cert.clone();
            if let ProofEvent::BoundPrune { term: Some(t), .. } = &mut forged.events[i] {
                *t += 1;
            }
            let check = check_certificate(&block, &machine, &forged);
            assert!(!check.is_certified(), "event {i} accepted raised");
            assert!(
                check.report.has_code(DiagCode::BoundArithmeticMismatch),
                "expected A0403, got:\n{}",
                check.report
            );
        }
    }
}

/// A term no Jackson schedule of the prefix reaches — with the bound
/// recomputed from it, so only the term itself is wrong — is rejected
/// with `A0403`.
#[test]
fn unreachable_heads_and_tails_term_is_an_arithmetic_mismatch() {
    let machine = presets::paper_simulation();
    for (block, cert) in term_certificates(3) {
        let slack = block.len() as i64 - 1;
        for i in term_prunes(&cert) {
            let mut forged = cert.clone();
            if let ProofEvent::BoundPrune {
                term: Some(t),
                bound,
                ..
            } = &mut forged.events[i]
            {
                *t += 1_000;
                *bound = (*t - slack) as u32;
            }
            let check = check_certificate(&block, &machine, &forged);
            assert!(!check.is_certified(), "event {i} accepted unreachable");
            assert!(
                check.report.has_code(DiagCode::BoundArithmeticMismatch),
                "expected A0403, got:\n{}",
                check.report
            );
        }
    }
}

/// The whole-block bound without its heads-and-tails term — the chain
/// and resource terms alone, re-derived here from the tails — is not the
/// bound a `ProvedByBound` must cite: `A0408`, while the full bound on
/// the same schedule is accepted.
#[test]
fn proved_by_bound_without_the_root_term_is_rejected() {
    let spec = pipesched_synth::CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let mut forged_some = 0;
    for k in 0..2_000 {
        let block = spec.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let n = block.len() as i64;
        let lb = ctx.lower_bound();
        let chain = block
            .ids()
            .filter(|&t| ctx.preds[t.index()].is_empty())
            .map(|t| lb.tail(t))
            .max()
            .unwrap_or(0);
        let resource = (0..machine.pipeline_count())
            .map(|p| {
                let k = block
                    .ids()
                    .filter(|&t| ctx.sigma(t).is_some_and(|u| u.index() == p))
                    .count() as i64;
                i64::from(ctx.pipe_enqueue[p]) * (k - 1)
            })
            .max()
            .unwrap_or(0);
        let cheap = (chain.max(resource).max(n - 1) - (n - 1)).max(0) as u32;
        let full = global_lower_bound(&ctx);
        assert!(cheap <= full);
        if cheap == full {
            continue;
        }
        let out = search(&ctx, &SearchConfig::default());
        if !out.optimal || out.nops != full {
            continue;
        }
        let order: Vec<u32> = out.order.iter().map(|t| t.0).collect();
        let honest = Certificate::by_bound(block.len() as u32, order.clone(), out.nops, full);
        let check = check_certificate(&block, &machine, &honest);
        assert!(check.is_certified(), "{}", check.report);
        let forged = Certificate::by_bound(block.len() as u32, order, out.nops, cheap);
        let check = check_certificate(&block, &machine, &forged);
        assert!(!check.is_certified());
        assert!(
            check.report.has_code(DiagCode::LowerBoundMismatch),
            "expected A0408, got:\n{}",
            check.report
        );
        forged_some += 1;
        if forged_some == 20 {
            break;
        }
    }
    assert!(
        forged_some >= 5,
        "only {forged_some} blocks gain from the root term"
    );
}

/// Corpus blocks (paper simulation machine) whose serial proof records
/// dominance prunes, each with its certificate, which the checker accepts.
fn dominance_certificates(want: usize) -> Vec<(BasicBlock, Certificate)> {
    let spec = pipesched_synth::CorpusSpec::paper_default();
    let machine = presets::paper_simulation();
    let mut found = Vec::new();
    for k in 0.. {
        assert!(
            k < 4_000,
            "only {} corpus blocks prune by dominance",
            found.len()
        );
        let block = spec.block(k);
        if block.len() < 20 {
            continue;
        }
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (out, cert) = prove(&ctx, &SearchConfig::default());
        if out.optimal && !dominance_prunes(&cert).is_empty() {
            let check = check_certificate(&block, &machine, &cert);
            assert!(check.is_certified(), "{}", check.report);
            found.push((block, cert));
            if found.len() == want {
                return found;
            }
        }
    }
    unreachable!()
}

/// Where the dominance prunes of `cert` are.
fn dominance_prunes(cert: &Certificate) -> Vec<usize> {
    cert.events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, ProofEvent::DominancePrune { .. }))
        .map(|(i, _)| i)
        .collect()
}

/// What the transcript says at event `at`: how many nodes were entered,
/// the open nodes' numbers, and every closed node's number and prefix.
struct Replayed {
    entered: u64,
    open: Vec<u64>,
    prefix: Vec<TupleId>,
    closed: Vec<(u64, Vec<TupleId>)>,
}

fn replay_to(cert: &Certificate, at: usize) -> Replayed {
    let mut r = Replayed {
        entered: 0,
        open: vec![0],
        prefix: Vec::new(),
        closed: Vec::new(),
    };
    for ev in &cert.events[..at] {
        match *ev {
            ProofEvent::Enter { candidate } => {
                r.entered += 1;
                r.open.push(r.entered);
                r.prefix.push(TupleId(candidate));
            }
            ProofEvent::Leave | ProofEvent::Complete { .. } | ProofEvent::Improve { .. } => {
                let id = r.open.pop().expect("an open node");
                r.closed.push((id, r.prefix.clone()));
                r.prefix.pop();
            }
            _ => {}
        }
    }
    r
}

/// The dominance state of `prefix` replayed from a cold boundary.
fn state_of(
    block: &BasicBlock,
    machine: &Machine,
    prefix: &[TupleId],
) -> pipesched_core::dominance::DominanceState {
    let dag = DepDag::build(block);
    let ctx = SchedContext::new(block, &dag, machine);
    let mut engine = pipesched_core::TimingEngine::new(&ctx);
    for &t in prefix {
        engine.push_default(t);
    }
    pipesched_core::dominance::DominanceState::of(&ctx, &engine, false)
}

fn set_of(prefix: &[TupleId]) -> Vec<TupleId> {
    let mut set = prefix.to_vec();
    set.sort_unstable();
    set
}

/// Re-point the dominance prune at `i` to `back` and expect `A0409`.
fn expect_a0409(block: &BasicBlock, machine: &Machine, cert: &Certificate, i: usize, back: u64) {
    let mut forged = cert.clone();
    if let ProofEvent::DominancePrune { back: b, .. } = &mut forged.events[i] {
        *b = back;
    }
    let check = check_certificate(block, machine, &forged);
    assert!(
        !check.is_certified(),
        "event {i} accepted with witness {back} back"
    );
    assert!(
        check.report.has_code(DiagCode::UnjustifiedDominancePrune),
        "expected A0409, got:\n{}",
        check.report
    );
}

/// A dominance prune citing no node at all, or a node still open, is
/// rejected with `A0409`: only a closed node's subtree met the incumbent.
#[test]
fn dominance_prune_without_a_closed_witness_is_rejected() {
    let machine = presets::paper_simulation();
    for (block, cert) in dominance_certificates(2) {
        for i in dominance_prunes(&cert).into_iter().take(8) {
            let r = replay_to(&cert, i);
            // No witness: further back than the stream's first node.
            expect_a0409(&block, &machine, &cert, i, r.entered + 1);
            // The node whose candidates are being dispositioned, and the
            // root, are open.
            let open = *r.open.last().expect("an open node");
            expect_a0409(&block, &machine, &cert, i, r.entered - open);
            expect_a0409(&block, &machine, &cert, i, r.entered);
        }
    }
}

/// A witness that placed a different set of instructions, or the same
/// set in a state later than the candidate's in some slot, is rejected
/// with `A0409`.
#[test]
fn dominance_prune_with_a_wrong_witness_is_rejected() {
    let machine = presets::paper_simulation();
    let (mut other_set, mut later_state) = (0, 0);
    for (block, cert) in dominance_certificates(3) {
        for i in dominance_prunes(&cert) {
            let ProofEvent::DominancePrune { candidate, .. } = cert.events[i] else {
                unreachable!()
            };
            let r = replay_to(&cert, i);
            let mut prefix = r.prefix.clone();
            prefix.push(TupleId(candidate));
            let set = set_of(&prefix);
            let state = state_of(&block, &machine, &prefix);
            for (id, witness) in r.closed.iter().rev().take(64) {
                if set_of(witness) != set {
                    if other_set < 24 {
                        expect_a0409(&block, &machine, &cert, i, r.entered - id);
                        other_set += 1;
                    }
                } else if !state_of(&block, &machine, witness).at_most(&state) && later_state < 24 {
                    expect_a0409(&block, &machine, &cert, i, r.entered - id);
                    later_state += 1;
                }
            }
        }
    }
    assert!(other_set > 0, "no closed node of another set was tried");
    assert!(
        later_state > 0,
        "no closed node of the same set in a later state was tried"
    );
}

/// The pool's merged certificate carries dominance prunes whose witnesses
/// sit in the same part, and the checker accepts it.
#[test]
fn pooled_certificates_with_dominance_prunes_are_accepted() {
    let machine = presets::paper_simulation();
    let mut pooled = 0;
    for (block, _) in dominance_certificates(3) {
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let par = pipesched_core::ParallelConfig::with_threads(2);
        let (out, proof) = pipesched_core::parallel_prove(&ctx, &SearchConfig::default(), &par);
        let cert = proof.merge();
        let check = check_certificate(&block, &machine, &cert);
        assert!(check.is_certified(), "{}", check.report);
        assert_eq!(
            check.verdict,
            ProofVerdict::OptimalCertified { nops: out.nops }
        );
        pooled += dominance_prunes(&cert).len();
    }
    assert!(pooled > 0, "no pooled certificate pruned by dominance");
}
