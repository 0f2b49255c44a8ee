//! Deterministic forced-steal stress for the work-stealing pool.
//!
//! `split_depth >= block length` turns *every* placement into a
//! stealable task, maximizing deque traffic and contention on the
//! shared incumbent/stop/pending protocol — the configuration the
//! model-checked harnesses in `crates/check/tests/model_*.rs` explore
//! at small scale, here driven end-to-end at 8 threads. The assertions
//! are the pool's shutdown contract: the scope joins (no wedged
//! worker), the result is exactly the serial optimum, and the merged
//! stats account for every split.
//!
//! The pool starts its helper threads only once a search passes
//! `HELPER_THRESHOLD` Ω, so the small blocks below cover the path on
//! which worker 0 runs alone; the `paper_exact()` blocks run well past
//! the threshold, and the tests assert that helpers stole on them.

use pipesched_core::parallel::{parallel_prove, parallel_search, ParallelConfig};
use pipesched_core::{search, SchedContext, SearchConfig};
use pipesched_ir::BasicBlock;
use pipesched_machine::{presets, Machine};
use pipesched_proof::check_certificate;
use pipesched_synth::{generate_block, GeneratorConfig};

/// Every placement a task, fixed 8-thread pool.
fn forced_steal(threads: usize, n: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        split_depth: n,
    }
}

/// Blocks whose `paper_exact()` search runs 8k–23k Ω, well past the
/// helper threshold, with the machine that makes each hard.
fn past_the_threshold() -> Vec<(BasicBlock, Machine)> {
    vec![
        (
            generate_block(&GeneratorConfig::new(8, 3, 2, 3)),
            presets::paper_simulation(),
        ),
        (
            generate_block(&GeneratorConfig::new(10, 3, 2, 3)),
            presets::paper_simulation(),
        ),
    ]
}

fn exact() -> SearchConfig {
    SearchConfig {
        lambda: u64::MAX,
        ..SearchConfig::paper_exact()
    }
}

/// The 6-statement blocks at `seeds` under the default configuration,
/// then the blocks past the threshold under `paper_exact()`.
fn cases(seeds: &[u64]) -> Vec<(BasicBlock, Machine, SearchConfig)> {
    let small = seeds.iter().map(|&seed| {
        let block = generate_block(&GeneratorConfig::new(6, 3, 2, seed));
        let cfg = SearchConfig::with_lambda(u64::MAX);
        (block, presets::paper_simulation(), cfg)
    });
    let hard = past_the_threshold()
        .into_iter()
        .map(|(block, machine)| (block, machine, exact()));
    small.chain(hard).collect()
}

#[test]
fn forced_steal_pool_shuts_down_clean_at_8_threads() {
    let mut steals = 0;
    for (block, machine, cfg) in cases(&[11, 23, 47]) {
        let dag = pipesched_ir::DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);

        let serial = search(&ctx, &cfg);
        assert!(serial.optimal);

        let par = parallel_search(&ctx, &cfg, &forced_steal(8, ctx.len()));
        assert!(par.optimal, "forced-steal pool truncated on\n{block}");
        assert_eq!(par.nops, serial.nops, "disagrees with serial on\n{block}");
        pipesched_ir::analysis::verify_schedule(&block, &dag, &par.order).unwrap();
        // Shutdown accounting: whenever the pool actually explored (the
        // seed can prove optimality outright, skipping it), maximal
        // splitting must have produced subtree tasks; and the η
        // decomposition of the returned schedule is consistent.
        assert!(
            par.stats.nodes_visited == 0 || par.stats.splits > 0,
            "split_depth = n produced no subtree tasks over {} nodes",
            par.stats.nodes_visited
        );
        assert_eq!(par.etas.iter().sum::<u32>(), par.nops);
        steals += par.stats.steals;
    }
    assert!(steals > 0, "no helper stole a task past the threshold");
}

#[test]
fn forced_steal_prover_still_certifies() {
    let block = generate_block(&GeneratorConfig::new(5, 3, 2, 31));
    let dag = pipesched_ir::DepDag::build(&block);
    let machine = presets::deep_pipeline();
    let ctx = SchedContext::new(&block, &dag, &machine);

    let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
    let (out, proof) = parallel_prove(
        &ctx,
        &SearchConfig::with_lambda(u64::MAX),
        &forced_steal(8, ctx.len()),
    );
    assert!(out.optimal);
    assert_eq!(out.nops, serial.nops);
    let check = check_certificate(&block, &machine, &proof.merge());
    assert!(
        check.is_certified(),
        "forced-steal certificate rejected:\n{}",
        check.report
    );

    // Past the threshold the prover's phase 1 runs with its helpers.
    let (block, machine) = past_the_threshold().swap_remove(0);
    let dag = pipesched_ir::DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    let serial = search(&ctx, &exact());
    let mut steals = 0;
    for _ in 0..5 {
        let (out, proof) = parallel_prove(&ctx, &exact(), &forced_steal(8, ctx.len()));
        assert!(out.optimal);
        assert_eq!(out.nops, serial.nops);
        let check = check_certificate(&block, &machine, &proof.merge());
        assert!(
            check.is_certified(),
            "forced-steal certificate rejected past the threshold:\n{}",
            check.report
        );
        steals += out.stats.steals;
        if steals > 0 {
            break;
        }
    }
    assert!(steals > 0, "no helper stole a task while proving");
}

/// The threads=1 counter-exactness contract survives maximal splitting:
/// with LIFO pops the task order is the serial DFS order, so node and Ω
/// counters match the serial kernel bit for bit.
#[test]
fn forced_steal_single_thread_is_counter_exact() {
    // Past the threshold the one worker draws λ in many batches.
    for (block, machine, cfg) in cases(&[3, 17]) {
        let dag = pipesched_ir::DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);

        let serial = search(&ctx, &cfg);
        let par = parallel_search(&ctx, &cfg, &forced_steal(1, ctx.len()));
        assert_eq!(par.nops, serial.nops);
        assert_eq!(
            par.stats.omega_calls, serial.stats.omega_calls,
            "Ω counter drift at threads=1 on\n{block}"
        );
        assert_eq!(
            par.stats.nodes_visited, serial.stats.nodes_visited,
            "node counter drift at threads=1 on\n{block}"
        );
    }
}
