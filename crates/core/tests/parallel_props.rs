//! Differential property suite for the work-stealing parallel search.
//!
//! Three independent exact engines — the serial branch-and-bound, the
//! parallel pool at every thread count, and the SAT/B&B race — must agree
//! on the optimal NOP count of every random block on every machine
//! preset. When the parallel prover runs, its per-worker transcripts must
//! merge into one certificate the independent checker accepts, and the
//! race's SAT outcome must survive the full audit.
//!
//! The random blocks mostly settle under the pool's `HELPER_THRESHOLD`,
//! so they cover the path on which worker 0 runs alone; the fixed
//! `paper_exact()` blocks run well past it, and there the helpers must
//! steal.

use proptest::prelude::*;

use pipesched_core::parallel::{parallel_prove, parallel_search, HELPER_THRESHOLD};
use pipesched_core::{search, ParallelConfig, SchedContext, SearchConfig};
use pipesched_ir::BasicBlock;
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_solve::audit::audit_outcome;
use pipesched_solve::{race, RaceConfig};
use pipesched_synth::{generate_block, GeneratorConfig};

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The pool at every thread count finds the serial optimum `nops` with a
/// legal schedule. Returns the pools' steals.
fn pool_matches(
    block: &BasicBlock,
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    nops: u32,
) -> Result<u64, TestCaseError> {
    let mut steals = 0;
    for threads in THREADS {
        let par = parallel_search(ctx, cfg, &ParallelConfig::with_threads(threads));
        prop_assert!(par.optimal, "parallel({threads}) truncated on\n{block}");
        prop_assert_eq!(
            par.nops,
            nops,
            "parallel({}) disagrees with serial on\n{}",
            threads,
            block
        );
        pipesched_ir::analysis::verify_schedule(block, ctx.dag, &par.order).unwrap();
        prop_assert_eq!(par.etas.iter().sum::<u32>(), par.nops);
        steals += par.stats.steals;
    }
    Ok(steals)
}

/// The prover at `threads` workers proves the serial optimum `nops`, and
/// its merged certificate passes the independent checker at exactly that
/// optimum. Returns the prover's steals.
fn merged_certificate_checks(
    block: &BasicBlock,
    machine: &Machine,
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    threads: usize,
    nops: u32,
) -> Result<u64, TestCaseError> {
    let (out, proof) = parallel_prove(ctx, cfg, &ParallelConfig::with_threads(threads));
    prop_assert!(out.optimal);
    prop_assert_eq!(out.nops, nops, "prover disagrees on\n{}", block);

    let cert = proof.merge();
    let check = check_certificate(block, machine, &cert);
    prop_assert!(
        check.is_certified(),
        "merged certificate rejected on\n{}\n{}",
        block,
        check.report
    );
    prop_assert_eq!(check.verdict, ProofVerdict::OptimalCertified { nops });
    Ok(out.stats.steals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial, parallel (at every thread count), and the race agree.
    #[test]
    fn parallel_agrees_with_serial_and_race(seed in 0u64..10_000,
                                            statements in 1usize..7,
                                            machine_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let cfg = SearchConfig::with_lambda(u64::MAX);
        let serial = search(&ctx, &cfg);
        prop_assert!(serial.optimal);
        pool_matches(&block, &ctx, &cfg, serial.nops)?;

        // Third opinion: the SAT/B&B race, independently audited.
        let raced = race(&ctx, &RaceConfig::default());
        prop_assert!(!raced.disagreement);
        prop_assert!(raced.optimal());
        prop_assert_eq!(raced.nops(), serial.nops, "race disagrees on\n{}", block);
        let report = audit_outcome(&block, machine, &raced.sat);
        prop_assert!(!report.has_errors(), "audit rejected honest run on\n{}\n{:?}",
                     block, report);
    }

    /// The merged multi-worker certificate passes the independent checker
    /// and certifies exactly the serial optimum.
    #[test]
    fn merged_certificate_is_checker_clean(seed in 0u64..10_000,
                                           statements in 1usize..7,
                                           machine_sel in 0usize..4,
                                           threads_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let cfg = SearchConfig::with_lambda(u64::MAX);
        let serial = search(&ctx, &cfg);
        prop_assert!(serial.optimal);
        merged_certificate_checks(&block, machine, &ctx, &cfg, THREADS[threads_sel], serial.nops)?;
    }
}

/// `(statements, seed, machine)` of synth blocks whose `paper_exact()`
/// search runs 4k–21k Ω, well past the helper threshold.
const PAST_THE_THRESHOLD: [(usize, u64, usize); 3] = [(8, 7, 1), (9, 3, 1), (10, 3, 0)];

/// Both properties past the threshold, where the helpers run and steal.
#[test]
fn helpers_agree_with_serial_and_certify() {
    let cfg = SearchConfig {
        lambda: u64::MAX,
        ..SearchConfig::paper_exact()
    };
    let mut steals = 0;
    for (statements, seed, machine_sel) in PAST_THE_THRESHOLD {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let serial = search(&ctx, &cfg);
        assert!(serial.optimal);
        assert!(serial.stats.omega_calls >= 4 * HELPER_THRESHOLD);
        steals += pool_matches(&block, &ctx, &cfg, serial.nops).unwrap();
        for threads in THREADS {
            steals += merged_certificate_checks(&block, machine, &ctx, &cfg, threads, serial.nops)
                .unwrap();
        }
    }
    assert!(steals > 0, "no helper stole a task past the threshold");
}
