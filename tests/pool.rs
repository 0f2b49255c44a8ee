//! The pool's helper threshold, end to end.
//!
//! The calling thread is the pool's worker 0; the other workers are
//! helper threads it starts only once a search passes
//! `HELPER_THRESHOLD` Ω. Below the threshold a multi-worker pool must be
//! indistinguishable from the one-worker pool. Above it the helpers must
//! really run (steal) and the answer must still be exact and certified.
//! λ stays a hard pool-wide cap throughout.

use pipesched::analyze::certify_scheduled;
use pipesched::core::parallel::{HELPER_THRESHOLD, LAMBDA_BATCH};
use pipesched::core::{
    parallel_prove, parallel_search, search, ParallelConfig, ProofEvent, SchedContext,
    SearchConfig, SearchOutcome,
};
use pipesched::ir::{analysis::verify_schedule, BasicBlock, DepDag};
use pipesched::machine::{presets, Machine};
use pipesched::proof::{check_certificate, ProofVerdict};
use pipesched::synth::{generate_block, CorpusSpec, GeneratorConfig};

/// Synth blocks of 15–16 instructions whose `paper_exact()` search runs
/// 8k–37k Ω, each with the machine that makes it hard.
fn hard_blocks() -> Vec<(BasicBlock, Machine)> {
    vec![
        (
            generate_block(&GeneratorConfig::new(8, 3, 2, 3)),
            presets::paper_simulation(),
        ),
        (
            generate_block(&GeneratorConfig::new(9, 3, 2, 3)),
            presets::deep_pipeline(),
        ),
        (
            generate_block(&GeneratorConfig::new(10, 3, 2, 3)),
            presets::paper_simulation(),
        ),
    ]
}

fn exact(lambda: u64) -> SearchConfig {
    SearchConfig {
        lambda,
        ..SearchConfig::paper_exact()
    }
}

fn assert_same_outcome(a: &SearchOutcome, b: &SearchOutcome, tag: &str) {
    assert_eq!(a.order, b.order, "{tag}: order");
    assert_eq!(a.assignment, b.assignment, "{tag}: assignment");
    assert_eq!(a.etas, b.etas, "{tag}: etas");
    assert_eq!(a.nops, b.nops, "{tag}: nops");
    assert_eq!(a.initial_order, b.initial_order, "{tag}: initial order");
    assert_eq!(a.initial_nops, b.initial_nops, "{tag}: initial nops");
    assert_eq!(a.optimal, b.optimal, "{tag}: optimal");
    assert_eq!(a.stats, b.stats, "{tag}: stats");
}

/// A search that ends under the threshold starts no helper, so two
/// workers give exactly the one-worker pool's outcome and certificate.
#[test]
fn below_the_threshold_two_workers_are_one() {
    let machine = presets::paper_simulation();
    let corpus = CorpusSpec::paper_default();
    let one = ParallelConfig::with_threads(1);
    let two = ParallelConfig::with_threads(2);
    let mut compared = 0;
    for k in 0..48 {
        let block = corpus.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        for cfg in [SearchConfig::default(), SearchConfig::paper_exact()] {
            // A serial search capped at the threshold skips the hard
            // blocks cheaply; the pool's own count decides.
            let capped = SearchConfig {
                lambda: HELPER_THRESHOLD,
                ..cfg
            };
            if !search(&ctx, &capped).optimal {
                continue;
            }
            let solo = parallel_search(&ctx, &cfg, &one);
            if solo.stats.omega_calls == 0 || solo.stats.omega_calls >= HELPER_THRESHOLD {
                continue;
            }
            let tag = format!("corpus block {k}");
            let pooled = parallel_search(&ctx, &cfg, &two);
            assert_same_outcome(&pooled, &solo, &tag);
            assert_eq!(pooled.stats.steals, 0, "{tag}: no helper, no steal");

            let (solo_out, solo_proof) = parallel_prove(&ctx, &cfg, &one);
            let (pooled_out, pooled_proof) = parallel_prove(&ctx, &cfg, &two);
            assert_same_outcome(&pooled_out, &solo_out, &tag);
            assert_eq!(
                pooled_proof.merge().digest(),
                solo_proof.merge().digest(),
                "{tag}: certificate digest"
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 10,
        "only {compared} searches ran under the threshold"
    );
}

/// Past the threshold the helpers start, steal, and the pool still finds
/// the serial optimum with a schedule and a merged certificate that the
/// independent checkers accept. A helper that the OS schedules late may
/// find nothing left to steal, so a worker count gets a few rounds.
#[test]
fn above_the_threshold_helpers_steal_and_certify() {
    let cfg = exact(u64::MAX);
    for threads in [2usize, 4] {
        let par = ParallelConfig::with_threads(threads);
        let mut steals = 0;
        for round in 0.. {
            assert!(round < 5, "no helper stole a task at {threads} workers");
            if steals > 0 {
                break;
            }
            for (block, machine) in hard_blocks() {
                let dag = DepDag::build(&block);
                let ctx = SchedContext::new(&block, &dag, &machine);
                let serial = search(&ctx, &cfg);
                assert!(serial.optimal);
                assert!(
                    serial.stats.omega_calls >= 8 * HELPER_THRESHOLD,
                    "{} Ω is not well past the threshold",
                    serial.stats.omega_calls
                );

                let (out, proof) = parallel_prove(&ctx, &cfg, &par);
                let tag = format!(
                    "{} instructions on {} at {threads} workers",
                    block.len(),
                    machine.name
                );
                assert!(out.optimal, "{tag}: truncated");
                assert_eq!(out.nops, serial.nops, "{tag}: not the serial optimum");
                verify_schedule(&block, &dag, &out.order).unwrap();
                let certified = certify_scheduled(&block, &machine, &out);
                assert!(certified.is_certified(), "{tag}:\n{}", certified.report);
                let check = check_certificate(&block, &machine, &proof.merge());
                assert_eq!(
                    check.verdict,
                    ProofVerdict::OptimalCertified { nops: serial.nops },
                    "{tag}:\n{}",
                    check.report
                );
                steals += out.stats.steals;
            }
        }
    }
}

/// Past the switch-on under the default configuration, the pooled
/// certificate records the heads-and-tails term and dominance prunes: at
/// the root candidates and in every phase-2 part, which count on from the
/// Ω phase 1 ran, after helpers that priced the term and kept tables from
/// their first Ω. The independent checker re-derives each recorded term
/// and each dominance witness, and certifies the serial optimum.
#[test]
fn past_the_switch_on_pooled_certificates_carry_the_term() {
    // The first corpus block of at least 20 instructions whose default
    // serial search runs at least 4 × `switch_on` Ω and ends by
    // exhaustion: 34 instructions, about 15.3k Ω.
    let block = CorpusSpec::paper_default().block(554);
    let machine = presets::paper_simulation();
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    let cfg = SearchConfig::with_lambda(u64::MAX);
    let serial = search(&ctx, &cfg);
    assert!(serial.optimal && !serial.stats.proved_by_bound && block.len() >= 20);
    assert!(
        serial.stats.omega_calls >= 4 * cfg.switch_on,
        "{} Ω is not well past the switch-on",
        serial.stats.omega_calls
    );
    for threads in [2usize, 4] {
        let par = ParallelConfig::with_threads(threads);
        let mut steals = 0;
        for round in 0.. {
            assert!(round < 5, "no helper stole a task at {threads} workers");
            if steals > 0 {
                break;
            }
            let (out, proof) = parallel_prove(&ctx, &cfg, &par);
            assert!(out.optimal, "truncated at {threads} workers");
            assert_eq!(out.nops, serial.nops, "not the serial optimum");
            let cert = proof.merge();
            assert!(
                cert.events
                    .iter()
                    .any(|e| matches!(e, ProofEvent::BoundPrune { term: Some(_), .. })),
                "no heads-and-tails term recorded at {threads} workers"
            );
            assert!(
                cert.events
                    .iter()
                    .any(|e| matches!(e, ProofEvent::DominancePrune { .. })),
                "no dominance prune recorded at {threads} workers"
            );
            let check = check_certificate(&block, &machine, &cert);
            assert_eq!(
                check.verdict,
                ProofVerdict::OptimalCertified { nops: serial.nops },
                "{threads} workers:\n{}",
                check.report
            );
            steals += out.stats.steals;
        }
    }
}

/// Under default splitting past the switch-on, the one-worker pool is the
/// serial kernel counter for counter, dominance prunes included: its
/// tasks pop in the serial DFS order, and a split node is stored when its
/// last child task finishes, where the serial kernel stores it.
#[test]
fn one_worker_pool_is_the_serial_kernel_past_the_switch_on() {
    let block = CorpusSpec::paper_default().block(554);
    let machine = presets::paper_simulation();
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    let cfg = SearchConfig {
        lambda: u64::MAX,
        terminate_on_lower_bound: false,
        ..SearchConfig::default()
    };
    let serial = search(&ctx, &cfg);
    let solo = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(1));
    assert!(serial.stats.pruned_dominance > 0);
    assert_eq!(solo.nops, serial.nops);
    let without_splits = |out: &SearchOutcome| pipesched::core::SearchStats {
        splits: 0,
        ..out.stats
    };
    assert_eq!(without_splits(&solo), without_splits(&serial));
}

/// λ is a hard cap: one worker truncates after exactly λ Ω, as the
/// serial kernel does, and two workers never run more than λ and stop at
/// most one helper's unused batch short of it.
#[test]
fn lambda_caps_the_pool() {
    let (block, machine) = hard_blocks().swap_remove(0);
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);
    for lambda in [1, 100, LAMBDA_BATCH, LAMBDA_BATCH + 1, 3 * HELPER_THRESHOLD] {
        let cfg = exact(lambda);
        let serial = search(&ctx, &cfg);
        let solo = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(1));
        for out in [&serial, &solo] {
            assert!(out.stats.truncated && !out.optimal, "λ = {lambda}");
            assert_eq!(out.stats.omega_calls, lambda, "λ = {lambda}");
            verify_schedule(&block, &dag, &out.order).unwrap();
        }
        let duo = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(2));
        assert!(duo.stats.truncated, "λ = {lambda}");
        assert!(duo.stats.omega_calls <= lambda, "λ = {lambda}");
        assert!(
            duo.stats.omega_calls + LAMBDA_BATCH >= lambda,
            "λ = {lambda}: stopped at {} Ω",
            duo.stats.omega_calls
        );
        verify_schedule(&block, &dag, &duo.order).unwrap();
    }
}
