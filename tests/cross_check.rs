//! The tier-1 soundness net: the exact backends against ground truth, and
//! every term of the pruning bound against the completions it bounds.
//!
//! * **Differential.** On small random blocks and every machine preset,
//!   exhaustive enumeration, the serial branch-and-bound, the two-worker
//!   pool and the SAT backend must find the same optimal NOP count. The
//!   certifier replays every schedule, the proof checker replays the
//!   serial and the pooled certificates, and the SAT answer passes its
//!   audit.
//! * **Admissibility.** Random place/undo walks visit partial schedules
//!   from a cold and from a carried boundary, with pipeline selection off
//!   and on. At every node, each term of the critical-path bound — chain,
//!   resource and heads-and-tails, the last evaluated in full whatever its
//!   gate says — must be at most the best completion of that node, found
//!   by exhaustive search from it. An inadmissible term prunes optima
//!   silently; this is where it shows.
//! * **Dominance.** The same walks check the lemma the dominance table
//!   rests on: of two visited prefixes of one instruction set, the one
//!   whose state is at most the other's in every slot has a best
//!   completion no worse, and costs no more along a random completion.
//!   The differential runs the kernel with `switch_on: 0`, so the table
//!   prunes from the first Ω.
//! * **Windows.** A windowed schedule must certify, with no fewer NOPs
//!   than the optimum and no more than the list schedule. Unless it gave
//!   way to the list schedule, every window must reach the least NOPs any
//!   legal arrangement of its members reaches from the prefix the earlier
//!   windows committed, found by exhaustive search. A window bound that
//!   counted chains into later windows would fail here.

use pipesched::analyze::{certify, certify_scheduled, Claim};
use pipesched::core::baselines::enumerate_legal;
use pipesched::core::bounds::term_bounds;
use pipesched::core::dominance::DominanceState;
use pipesched::core::{
    list_schedule, parallel_prove, prove, search, windowed_schedule, windowed_schedule_bounded,
    BoundaryState, ParallelConfig, SchedContext, SearchConfig, TimingEngine,
};
use pipesched::ir::{BasicBlock, DepDag, TupleId};
use pipesched::machine::{presets, PipelineId};
use pipesched::proof::{check_certificate, ProofVerdict};
use pipesched::solve::{audit_outcome, solve_schedule, SolveConfig};
use pipesched::synth::{generate_block, GeneratorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generated blocks of 3–8 instructions, small enough to enumerate.
fn small_blocks(count: u64) -> Vec<BasicBlock> {
    (0..)
        .map(|seed| generate_block(&GeneratorConfig::new(2 + seed as usize % 3, 3, 2, seed)))
        .filter(|b| (3..=8).contains(&b.len()))
        .take(count as usize)
        .collect()
}

#[test]
fn exact_backends_agree_and_every_answer_checks() {
    // Every gate open from the first Ω: the heads-and-tails term prices
    // every placement its gate admits, and the dominance table prunes,
    // with the whole-block bound ending searches early and without it.
    let pair = ParallelConfig::with_threads(2);
    let mut dominance = 0;
    for (terminate_on_lower_bound, block) in small_blocks(16)
        .into_iter()
        .flat_map(|b| [(true, b.clone()), (false, b)])
    {
        let exact = SearchConfig {
            lambda: u64::MAX,
            switch_on: 0,
            terminate_on_lower_bound,
            ..SearchConfig::default()
        };
        let dag = DepDag::build(&block);
        for machine in presets::all_presets() {
            let ctx = SchedContext::new(&block, &dag, &machine);
            let tag = format!("{} instructions on {}:\n{block}", block.len(), machine.name);
            let truth = enumerate_legal(&ctx, u64::MAX);
            assert!(!truth.truncated, "{tag}");
            let optimum = truth.best_nops;

            let serial = search(&ctx, &exact);
            let (proved, cert) = prove(&ctx, &exact);
            let (pooled, proof) = parallel_prove(&ctx, &exact, &pair);
            assert_eq!(
                proved.stats, serial.stats,
                "prove and search differ on {tag}"
            );
            dominance += serial.stats.pruned_dominance;
            for (name, out) in [("serial", &serial), ("prove", &proved), ("pool", &pooled)] {
                assert!(out.optimal, "{name} truncated on {tag}");
                assert_eq!(out.nops, optimum, "{name} misses the optimum on {tag}");
                let certified = certify_scheduled(&block, &machine, out);
                assert!(
                    certified.is_certified(),
                    "{name} on {tag}\n{}",
                    certified.report
                );
            }
            for (name, cert) in [("serial", cert), ("pooled", proof.merge())] {
                let check = check_certificate(&block, &machine, &cert);
                assert_eq!(
                    check.verdict,
                    ProofVerdict::OptimalCertified { nops: optimum },
                    "{name} certificate on {tag}\n{}",
                    check.report
                );
            }

            let sat = solve_schedule(&ctx, &SolveConfig::default());
            assert!(sat.optimal, "SAT undecided on {tag}");
            assert_eq!(sat.nops, optimum, "SAT misses the optimum on {tag}");
            let audit = audit_outcome(&block, &machine, &sat);
            assert!(!audit.has_errors(), "SAT audit on {tag}\n{audit}");
        }
    }
    assert!(dominance > 0, "the dominance table never pruned");
}

/// The fewest NOPs any completion of `engine`'s partial schedule needs,
/// trying every ready instruction next and, under `selection`, every unit
/// it may run on. Prunes only where μ (monotone under extension) already
/// matches the best found, so the answer is exact.
fn best_completion(
    ctx: &SchedContext<'_>,
    engine: &mut TimingEngine<'_, '_>,
    selection: bool,
    best: &mut u32,
) {
    if engine.total_nops() >= *best {
        return;
    }
    if engine.placed() == ctx.len() {
        *best = engine.total_nops();
        return;
    }
    for t in ctx.block.ids() {
        let placed = |u: TupleId| engine.issue_time(u).is_some();
        if placed(t) || !ctx.preds[t.index()].iter().all(|d| placed(TupleId(d.from))) {
            continue;
        }
        let units: Vec<Option<PipelineId>> = if selection && ctx.allowed[t.index()].len() > 1 {
            ctx.allowed[t.index()].iter().copied().map(Some).collect()
        } else {
            vec![ctx.sigma(t)]
        };
        for unit in units {
            engine.push(t, unit);
            best_completion(ctx, engine, selection, best);
            engine.pop();
        }
    }
}

#[test]
fn every_bound_term_is_at_most_the_best_completion() {
    let mut rng = StdRng::seed_from_u64(0xad31_55b1);
    let mut nodes = 0;
    let mut tight = 0;
    for block in small_blocks(12) {
        let dag = DepDag::build(&block);
        for machine in presets::all_presets() {
            let ctx = SchedContext::new(&block, &dag, &machine);
            for selection in [false, true] {
                for carried in [false, true] {
                    let mut boundary = BoundaryState::cold(machine.pipeline_count());
                    if carried {
                        for age in &mut boundary.pipe_age {
                            *age = rng.gen_bool(0.7).then(|| rng.gen_range(0..4));
                        }
                    }
                    let mut engine = TimingEngine::with_boundary(&ctx, &boundary);
                    let mut placed: Vec<TupleId> = Vec::new();
                    for step in 0..2 * block.len() {
                        let ready: Vec<TupleId> = ctx
                            .block
                            .ids()
                            .filter(|&t| {
                                engine.issue_time(t).is_none()
                                    && ctx.preds[t.index()]
                                        .iter()
                                        .all(|d| engine.issue_time(TupleId(d.from)).is_some())
                            })
                            .collect();
                        // Undo a third of the time (always once complete).
                        if !placed.is_empty() && (ready.is_empty() || rng.gen_range(0..3) == 0) {
                            placed.pop();
                            engine.pop();
                        } else if !ready.is_empty() {
                            let t = ready[rng.gen_range(0..ready.len())];
                            let units = &ctx.allowed[t.index()];
                            let unit = if selection && units.len() > 1 {
                                Some(units[rng.gen_range(0..units.len())])
                            } else {
                                ctx.sigma(t)
                            };
                            engine.push(t, unit);
                            placed.push(t);
                        }
                        let terms = term_bounds(&ctx, &engine, selection);
                        let mut best = u32::MAX;
                        best_completion(&ctx, &mut engine, selection, &mut best);
                        let tag = format!(
                            "{} on {}, selection {selection}, carried {carried}, step {step}, \
                             prefix {placed:?}: {terms:?} against the best completion {best}\n{block}",
                            block.name, machine.name
                        );
                        assert!(terms.chain <= best, "chain term: {tag}");
                        assert!(terms.resource <= best, "resource term: {tag}");
                        assert!(terms.heads_tails <= best, "heads-and-tails term: {tag}");
                        nodes += 1;
                        tight += usize::from(terms.heads_tails == best && best > 0);
                    }
                }
            }
        }
    }
    // The walks must reach nodes where the term is exact, or an
    // inflated term could slip through unseen.
    assert!(nodes > 2_000, "only {nodes} nodes checked");
    assert!(tight > 200, "the term was tight at only {tight} nodes");
}

/// The lemma of `pipesched::core::dominance`, on prefixes the random
/// walks visit: for two prefixes of one instruction set with A ≤ B in
/// every slot of the state, A's best completion is no worse than B's, and
/// μ(A·C) ≤ μ(B·C) along a random completion C.
#[test]
fn a_dominating_state_completes_no_worse() {
    type Prefix = Vec<(TupleId, Option<PipelineId>)>;
    let mut rng = StdRng::seed_from_u64(0xd0_5717);
    let mut pairs = 0;
    let mut strict = 0;
    for block in small_blocks(12) {
        let dag = DepDag::build(&block);
        for machine in presets::all_presets() {
            let ctx = SchedContext::new(&block, &dag, &machine);
            for selection in [false, true] {
                for carried in [false, true] {
                    let mut boundary = BoundaryState::cold(machine.pipeline_count());
                    if carried {
                        for age in &mut boundary.pipe_age {
                            *age = rng.gen_bool(0.7).then(|| rng.gen_range(0..4));
                        }
                    }
                    let replay = |prefix: &Prefix| {
                        let mut engine = TimingEngine::with_boundary(&ctx, &boundary);
                        for &(t, unit) in prefix {
                            engine.push(t, unit);
                        }
                        engine
                    };
                    // Visited prefixes by placed set, with state and best
                    // completion.
                    let mut seen: Vec<(Vec<bool>, Prefix, DominanceState, u32)> = Vec::new();
                    let mut placed: Prefix = Vec::new();
                    for _ in 0..6 * block.len() {
                        let mut engine = replay(&placed);
                        let ready = ready_units(&ctx, &engine, selection);
                        if !placed.is_empty() && (ready.is_empty() || rng.gen_range(0..3) == 0) {
                            placed.pop();
                            continue;
                        }
                        let (t, units) = &ready[rng.gen_range(0..ready.len())];
                        placed.push((*t, units[rng.gen_range(0..units.len())]));
                        engine = replay(&placed);
                        let set: Vec<bool> = block
                            .ids()
                            .map(|u| engine.issue_time(u).is_some())
                            .collect();
                        let state = DominanceState::of(&ctx, &engine, selection);
                        let mut best = u32::MAX;
                        best_completion(&ctx, &mut engine, selection, &mut best);
                        seen.push((set, placed.clone(), state, best));
                    }
                    for (i, a) in seen.iter().enumerate() {
                        for b in &seen[i + 1..] {
                            let (a, b) = if a.2.at_most(&b.2) { (a, b) } else { (b, a) };
                            if a.0 != b.0 || !a.2.at_most(&b.2) {
                                continue;
                            }
                            let tag = format!(
                                "{} on {}, selection {selection}, carried {carried}: \
                                 {:?} ≤ {:?}\n{block}",
                                block.name, machine.name, a.1, b.1
                            );
                            assert!(a.3 <= b.3, "best completion: {tag}");
                            // One random completion, replayed after both.
                            let (mut ea, mut eb) = (replay(&a.1), replay(&b.1));
                            loop {
                                let ready = ready_units(&ctx, &ea, selection);
                                let Some((t, units)) =
                                    ready.get(rng.gen_range(0..ready.len().max(1)))
                                else {
                                    break;
                                };
                                let unit = units[rng.gen_range(0..units.len())];
                                ea.push(*t, unit);
                                eb.push(*t, unit);
                            }
                            assert!(ea.total_nops() <= eb.total_nops(), "completion: {tag}");
                            pairs += 1;
                            strict += usize::from(a.2 != b.2);
                        }
                    }
                }
            }
        }
    }
    assert!(pairs > 500, "only {pairs} dominating pairs checked");
    assert!(strict > 50, "only {strict} pairs differ in state");
}

/// The ready tuples of `engine`'s prefix, each with the units it may run
/// on: every allowed unit under `selection`, its default unit otherwise.
fn ready_units(
    ctx: &SchedContext<'_>,
    engine: &TimingEngine<'_, '_>,
    selection: bool,
) -> Vec<(TupleId, Vec<Option<PipelineId>>)> {
    let placed = |u: TupleId| engine.issue_time(u).is_some();
    ctx.block
        .ids()
        .filter(|&t| !placed(t) && ctx.preds[t.index()].iter().all(|d| placed(TupleId(d.from))))
        .map(|t| {
            let units = &ctx.allowed[t.index()];
            let units = if selection && units.len() > 1 {
                units.iter().copied().map(Some).collect()
            } else {
                vec![ctx.sigma(t)]
            };
            (t, units)
        })
        .collect()
}

/// The fewest NOPs any legal arrangement of `members` reaches after
/// `engine`'s partial schedule, which must hold every predecessor of a
/// member outside `members`.
fn best_arrangement(
    ctx: &SchedContext<'_>,
    engine: &mut TimingEngine<'_, '_>,
    members: &[TupleId],
    best: &mut u32,
) {
    if engine.total_nops() >= *best {
        return;
    }
    let placed = |engine: &TimingEngine<'_, '_>, u: TupleId| engine.issue_time(u).is_some();
    if members.iter().all(|&t| placed(engine, t)) {
        *best = engine.total_nops();
        return;
    }
    for &t in members {
        if placed(engine, t)
            || !ctx.preds[t.index()]
                .iter()
                .all(|d| placed(engine, TupleId(d.from)))
        {
            continue;
        }
        engine.push_default(t);
        best_arrangement(ctx, engine, members, best);
        engine.pop();
    }
}

#[test]
fn every_window_reaches_its_exhaustive_optimum() {
    let exact = SearchConfig::with_lambda(u64::MAX);
    let mut tally = Tally::default();
    let grid = (2..=5).flat_map(|s| (2..=4).flat_map(move |v| (1..=3).map(move |c| (s, v, c))));
    for (statements, variables, constants) in grid {
        for seed in 0..10 {
            let config = GeneratorConfig::new(statements, variables, constants, seed);
            windows_of(&generate_block(&config), &exact, &mut tally);
        }
    }
    let Tally {
        windows,
        better,
        gave_way,
    } = tally;
    assert!(windows > 20_000, "only {windows} windows checked");
    assert!(
        better > 50 * gave_way.max(10),
        "{gave_way} windowed schedules gave way to the list schedule, {better} beat it"
    );
}

/// What [`windows_of`] saw: windows checked, and windowed schedules that
/// beat the list schedule or gave way to it.
#[derive(Default)]
struct Tally {
    windows: usize,
    better: usize,
    gave_way: usize,
}

/// Check the windows of `block` on every preset at windows 2 to 5.
fn windows_of(block: &BasicBlock, exact: &SearchConfig, tally: &mut Tally) {
    let dag = DepDag::build(block);
    for machine in presets::all_presets() {
        let ctx = SchedContext::new(block, &dag, &machine);
        let optimum = search(&ctx, exact).nops;
        for window in [2, 3, 4, 5] {
            let w = windowed_schedule(&ctx, window, u64::MAX);
            let tag = format!("{} on {}, window {window}", block.name, machine.name);
            assert!(!w.stats.truncated, "{tag}: truncated");
            assert!(!w.stats.proved_by_bound, "{tag}: claims the block");
            let certified = certify(
                block,
                &machine,
                Claim {
                    order: &w.order,
                    etas: Some(&w.etas),
                    nops: Some(w.nops),
                    ..Claim::default()
                },
            );
            assert!(certified.is_certified(), "{tag}\n{}", certified.report);
            assert!(optimum <= w.nops, "{tag}: beats the optimum {optimum}");
            assert!(
                w.nops <= w.initial_nops,
                "{tag}: worse than the list schedule"
            );
            tally.better += usize::from(w.nops < w.initial_nops);
            // An improved window changes the order for good, so a schedule
            // in list order after an improvement gave way to the list.
            if w.stats.improvements > 0 && w.order == list_schedule(&dag, &ctx.analysis) {
                tally.gave_way += 1;
                continue;
            }

            let mut engine = TimingEngine::new(&ctx);
            for (start, members) in (0..).step_by(window).zip(w.order.chunks(window)) {
                let mut best = u32::MAX;
                best_arrangement(&ctx, &mut engine, members, &mut best);
                for &t in members {
                    engine.push_default(t);
                }
                assert_eq!(
                    engine.total_nops(),
                    best,
                    "{tag}: the window at position {start} is not optimal\n{block}"
                );
                tally.windows += 1;
            }
        }
    }
}

#[test]
fn windowed_schedule_past_its_deadline_keeps_list_order() {
    let block = generate_block(&GeneratorConfig::new(12, 8, 4, 5));
    let dag = DepDag::build(&block);
    let machine = presets::paper_simulation();
    let ctx = SchedContext::new(&block, &dag, &machine);
    let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let w = windowed_schedule_bounded(&ctx, 4, u64::MAX, Some(past));
    assert!(w.windows > 1, "{} instructions", block.len());
    assert_eq!(w.order, list_schedule(&dag, &ctx.analysis));
    assert_eq!(w.nops, w.initial_nops);
    assert_eq!(w.stats.omega_calls, 0);
    assert!(w.stats.truncated && w.stats.deadline_hit);
}
