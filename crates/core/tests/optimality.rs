//! Property tests: the pruned search never sacrifices optimality.
//!
//! For random small blocks (where exhaustive enumeration of all legal
//! topological orders is feasible), the branch-and-bound search must return
//! exactly the brute-force optimum under every combination of pruning
//! devices, and the timing engine's incremental μ must agree with an
//! independent re-evaluation.

use proptest::prelude::*;

use pipesched_core::baselines::enumerate_legal;
use pipesched_core::{search, BoundKind, EquivalenceMode, SchedContext, SearchConfig};
use pipesched_ir::{analysis::verify_schedule, BasicBlock, BlockBuilder, DepDag, Op, TupleId};
use pipesched_machine::{presets, Machine};

/// A random basic block built from a byte script, with at most `max_len`
/// instructions. Every generated block is valid by construction.
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
        // Pick a value-producing tuple for operands; if the chosen tuple is
        // a store (no value), fall back to emitting a load.
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
                let lhs = pick(x);
                let rhs = pick(y);
                // Only reference value-producing tuples.
                let lhs_ok = producing(&b, lhs);
                let rhs_ok = producing(&b, rhs);
                match (lhs_ok, rhs_ok) {
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
    // BlockBuilder doesn't expose tuples; rebuild via clone-finish.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The pruned search equals brute force for every pruning configuration.
    #[test]
    fn bnb_is_optimal(script in proptest::collection::vec(any::<u8>(), 0..30),
                      machine_sel in 0usize..4) {
        let block = block_from_script(&script, 8);
        let dag = DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);
        let brute = enumerate_legal(&ctx, u64::MAX);
        prop_assert!(!brute.truncated);

        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for equivalence in [EquivalenceMode::Off, EquivalenceMode::Paper,
                                EquivalenceMode::Structural] {
                let cfg = SearchConfig { bound, equivalence, lambda: u64::MAX,
                                         ..SearchConfig::default() };
                let out = search(&ctx, &cfg);
                prop_assert!(out.optimal);
                prop_assert_eq!(
                    out.nops, brute.best_nops,
                    "pruning {:?}/{:?} lost the optimum on\n{}",
                    bound, equivalence, block
                );
                verify_schedule(&block, &dag, &out.order).unwrap();
                // The reported etas must sum to the reported μ.
                prop_assert_eq!(out.etas.iter().sum::<u32>(), out.nops);
            }
        }
    }

    /// μ is monotone under prefix extension (the α-β soundness argument).
    #[test]
    fn mu_is_monotone_under_extension(script in proptest::collection::vec(any::<u8>(), 0..36)) {
        let block = block_from_script(&script, 10);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let order = pipesched_core::list_schedule(&dag, &ctx.analysis);
        let mut engine = pipesched_core::TimingEngine::new(&ctx);
        let mut prev = 0;
        for &t in &order {
            engine.push_default(t);
            let mu = engine.total_nops();
            prop_assert!(mu >= prev, "μ decreased: {} -> {}", prev, mu);
            prev = mu;
        }
    }

    /// Push/pop leaves the engine exactly where it was (checked via replay).
    #[test]
    fn engine_undo_is_exact(script in proptest::collection::vec(any::<u8>(), 0..36),
                            probe in 0usize..8) {
        let block = block_from_script(&script, 10);
        let dag = DepDag::build(&block);
        let machine = presets::deep_pipeline();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let order = pipesched_core::list_schedule(&dag, &ctx.analysis);
        let k = probe % (order.len() + 1);

        // Reference: straight-line evaluation.
        let (ref_etas, _) = pipesched_core::timing::evaluate_schedule(&ctx, &order);

        // Perturbed: at position k, push/pop every later instruction whose
        // preds happen to be placed, then continue.
        let mut engine = pipesched_core::TimingEngine::new(&ctx);
        for (i, &t) in order.iter().enumerate() {
            if i == k {
                for &probe_t in &order[i..] {
                    let ready = ctx.preds[probe_t.index()]
                        .iter()
                        .all(|p| engine.issue_time(TupleId(p.from)).is_some());
                    if ready {
                        engine.push_default(probe_t);
                        engine.pop();
                    }
                }
            }
            let eta = engine.push_default(t);
            prop_assert_eq!(eta, ref_etas[i], "divergence at position {}", i);
        }
    }

    /// The greedy baseline and list schedule are never better than B&B.
    #[test]
    fn heuristics_never_beat_optimal(script in proptest::collection::vec(any::<u8>(), 0..30)) {
        let block = block_from_script(&script, 8);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        prop_assert!(out.optimal);
        let (_, greedy_nops) = pipesched_core::baselines::greedy_schedule(&ctx);
        prop_assert!(greedy_nops >= out.nops);
        prop_assert!(out.initial_nops >= out.nops);
    }
}

/// Regression: the paper's rule [5c] *as printed* (skip swapping any two
/// σ=∅ ∧ ρ=∅ instructions) prunes the true optimum on this block — found
/// by the brute-force property suite. Two constants feed *different*
/// consumers, so their order decides which instructions become ready at
/// intermediate depths; on the functional-units machine that difference is
/// worth one NOP. Our restricted rule (identical successor sets) must get
/// the exact optimum.
#[test]
fn rule_5c_counterexample_regression() {
    use pipesched_ir::BlockBuilder;

    // 1: Const 0        (feeds Add, Mul@1@3)
    // 2: Add @1, @1
    // 3: Const 0        (feeds Mul@3@3, Mul@1@3)
    // 4: Mul @3, @3
    // 5: Mul @1, @3
    // 6: Load #a
    // 7: Load #a
    let mut b = BlockBuilder::new("cex");
    let c1 = b.constant(0);
    let _add = b.add(c1, c1);
    let c3 = b.constant(0);
    let _m1 = b.mul(c3, c3);
    let _m2 = b.mul(c1, c3);
    b.load("a");
    b.load("a");
    let block = b.finish().unwrap();
    let dag = DepDag::build(&block);

    let mut some_machine_rejects = false;
    for machine in machines() {
        let ctx = SchedContext::new(&block, &dag, &machine);
        let brute = enumerate_legal(&ctx, u64::MAX);
        assert!(!brute.truncated);
        for equivalence in [EquivalenceMode::Paper, EquivalenceMode::Structural] {
            let cfg = SearchConfig {
                equivalence,
                lambda: u64::MAX,
                ..SearchConfig::default()
            };
            let out = search(&ctx, &cfg);
            assert_eq!(
                out.nops, brute.best_nops,
                "{equivalence:?} lost the optimum on {}",
                machine.name
            );

            // The sound rules' searches also certify: the checker accepts
            // their transcripts and confirms the brute-force μ.
            let (out, cert) = pipesched_core::prove(&ctx, &cfg);
            assert!(out.optimal);
            let check = pipesched_proof::check_certificate(&block, &machine, &cert);
            assert!(
                check.is_certified(),
                "{equivalence:?} certificate rejected on {}:\n{}",
                machine.name,
                check.report
            );
            assert_eq!(
                check.verdict,
                pipesched_proof::ProofVerdict::OptimalCertified {
                    nops: brute.best_nops
                }
            );
        }

        // The paper's rule [5c] *as printed* must not sneak an optimality
        // certificate past the checker. On machines where the unrestricted
        // swap is harmless here, its prunes still satisfy the restricted
        // condition and the certificate checks; where it over-prunes, the
        // checker rejects with A0405 (stale equivalence witness). It must
        // never certify a μ above the brute-force optimum.
        let cfg = SearchConfig {
            equivalence: EquivalenceMode::UnrestrictedPaper,
            lambda: u64::MAX,
            ..SearchConfig::default()
        };
        let (_, forged) = pipesched_core::prove(&ctx, &cfg);
        let check = pipesched_proof::check_certificate(&block, &machine, &forged);
        match check.verdict {
            pipesched_proof::ProofVerdict::OptimalCertified { nops } => {
                assert_eq!(
                    nops, brute.best_nops,
                    "unrestricted rule certified a non-optimum on {}",
                    machine.name
                );
            }
            pipesched_proof::ProofVerdict::Rejected => {
                some_machine_rejects = true;
                assert!(
                    check
                        .report
                        .has_code(pipesched_analyze::DiagCode::StaleEquivalenceWitness),
                    "expected A0405 on {}:\n{}",
                    machine.name,
                    check.report
                );
            }
        }
    }
    // The counterexample earns its name: at least one machine's
    // unrestricted-rule certificate must actually be rejected.
    assert!(some_machine_rejects);
}

/// The per-device prune counters account for every visited node: each Ω
/// call either descends (a new node) or is cut by the bound test, so a
/// completed fixed-σ search satisfies
/// `nodes_visited == 1 + omega_calls - pruned_bound`.
#[test]
fn prune_counters_sum_to_nodes_visited() {
    for (seed, machine) in machines().into_iter().enumerate() {
        let script: Vec<u8> = (0..30u16)
            .map(|i| (i * 37 + seed as u16 * 11) as u8)
            .collect();
        let block = block_from_script(&script, 8);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let out = search(&ctx, &cfg);
        assert!(out.optimal && !out.stats.truncated);
        assert_eq!(
            out.stats.nodes_visited,
            1 + out.stats.omega_calls - out.stats.pruned_bound - out.stats.pruned_dominance,
            "counter identity broken on {}: {:?}",
            machine.name,
            out.stats
        );
    }
}
