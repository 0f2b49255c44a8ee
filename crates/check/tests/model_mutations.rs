//! Mutation suite: tamper-tests for the checker itself, in the style of
//! the certificate/witness tamper tests in PRs 3/5/6. Each test seeds a
//! deliberate protocol bug — the exact bug class the harnesses guard the
//! pool against — and pins the `A07xx` code the exploration must reject
//! it with. A checker that stays green on any of these is broken.

use std::sync::Arc;

use pipesched_check::model::cell::RaceCell;
use pipesched_check::model::sync::{AtomicBool, AtomicU32, AtomicUsize, Mutex, Ordering};
use pipesched_check::model::{explore, thread, Builder};
use pipesched_check::ViolationCode;

/// Mutation 1 — dropped Release fence (pinned: A0701 + A0704).
///
/// The stop protocol from `model_stop.rs`, but the stopper publishes
/// `stop` with a Relaxed store. The worker's Acquire load then
/// synchronizes with nothing: reading the reason cell is a data race
/// (A0701), and the useless acquire is flagged as misuse (A0704).
#[test]
fn dropped_release_fence_is_a0701_and_a0704() {
    let report = explore(&Builder::default(), || {
        let stop = Arc::new(AtomicBool::new(false));
        let reason = Arc::new(RaceCell::named("stop-reason", 0u32));
        let (s2, r2) = (Arc::clone(&stop), Arc::clone(&reason));
        let stopper = thread::spawn(move || {
            r2.set(1);
            // BUG: must be Ordering::Release to publish the reason.
            s2.store(true, Ordering::Relaxed);
        });
        if stop.load(Ordering::Acquire) {
            let _why = reason.get();
        }
        stopper.join();
    });
    assert_eq!(
        report.first_code(),
        Some(ViolationCode::DataRace),
        "expected the reason read to race: {:?}",
        report.violations
    );
    assert!(
        report.has_code(ViolationCode::AcquireMisuse),
        "expected the A0704 advisory on the acquire load: {:?}",
        report.advisories
    );
    let race = &report.violations[0];
    assert!(
        race.message.contains("stop-reason"),
        "race must name the cell: {}",
        race.message
    );
    assert!(!race.trace.is_empty(), "race report carries the trace");
}

/// Mutation 2 — reordered/unguarded incumbent store (pinned: A0705).
///
/// The incumbent protocol from `model_incumbent.rs`, but the improver
/// skips the under-lock recheck and stores its payload unconditionally
/// after winning its own fetch_min. On schedules where the worse
/// improver locks last, the payload regresses to a stale incumbent and
/// the quiescence assertion fires.
#[test]
fn unguarded_incumbent_store_is_a0705() {
    let report = explore(&Builder::default(), || {
        let best_nops = Arc::new(AtomicU32::new(10));
        let best = Arc::new(Mutex::named("best", (0u32, 10u32)));
        let mut improvers = Vec::new();
        for (id, nops) in [(1u32, 5u32), (2, 3)] {
            let (bn, b) = (Arc::clone(&best_nops), Arc::clone(&best));
            improvers.push(thread::spawn(move || {
                let prev = bn.fetch_min(nops, Ordering::SeqCst);
                if nops < prev {
                    // BUG: no recheck under the lock — a stale improver
                    // can overwrite a better payload published between
                    // its fetch_min and its lock acquisition.
                    *b.lock() = (id, nops);
                }
            }));
        }
        for t in improvers {
            t.join();
        }
        let g = best.lock();
        assert_eq!(
            g.1,
            best_nops.load(Ordering::Relaxed),
            "payload and published bound must agree at quiescence"
        );
    });
    assert_eq!(
        report.first_code(),
        Some(ViolationCode::InvariantViolated),
        "expected the stale-incumbent assertion to fire: {:?}",
        report.violations
    );
    assert!(
        report.violations[0].message.contains("agree at quiescence"),
        "violation must carry the harness assertion: {}",
        report.violations[0].message
    );
}

/// Mutation 3 — skipped transcript registration (pinned: A0705).
///
/// The merge protocol from `model_merge.rs`, but one prover "forgets"
/// to register the transcript for subtree 1. The merge-completeness
/// assertion must reject the run as not certifiable.
#[test]
fn skipped_transcript_registration_is_a0705() {
    const SUBTREES: usize = 3;
    let report = explore(&Builder::default(), || {
        let next = Arc::new(AtomicUsize::new(0));
        let slots: Arc<Vec<Mutex<Option<u32>>>> =
            Arc::new((0..SUBTREES).map(|_| Mutex::new(None)).collect());
        let provers: Vec<_> = (0..2)
            .map(|_| {
                let (n, s) = (Arc::clone(&next), Arc::clone(&slots));
                thread::spawn(move || loop {
                    let i = n.fetch_add(1, Ordering::Relaxed);
                    if i >= SUBTREES {
                        return;
                    }
                    // BUG: subtree 1's transcript is never registered.
                    if i != 1 {
                        *s[i].lock() = Some(i as u32);
                    }
                })
            })
            .collect();
        for p in provers {
            p.join();
        }
        for (i, slot) in slots.iter().enumerate() {
            assert!(
                slot.lock().is_some(),
                "subtree {i} transcript missing: run is not certifiable"
            );
        }
    });
    assert_eq!(
        report.first_code(),
        Some(ViolationCode::InvariantViolated),
        "expected merge completeness to fail: {:?}",
        report.violations
    );
    assert!(
        report.violations[0].message.contains("not certifiable"),
        "violation must carry the completeness assertion: {}",
        report.violations[0].message
    );
}

/// Mutation 4 — inverted lock order (pinned: A0703 + A0702).
///
/// Two pool-style locks taken in opposite orders by two threads: some
/// schedule deadlocks (A0703) and the accumulated edge graph has the
/// cycle (A0702).
#[test]
fn inverted_lock_order_is_a0703_and_a0702() {
    let report = explore(&Builder::default(), || {
        let stats = Arc::new(Mutex::named("stats", 0u32));
        let best = Arc::new(Mutex::named("best", 0u32));
        let (s2, b2) = (Arc::clone(&stats), Arc::clone(&best));
        let t = thread::spawn(move || {
            let _g1 = s2.lock();
            let _g2 = b2.lock();
        });
        // BUG: opposite acquisition order.
        let _g1 = best.lock();
        let _g2 = stats.lock();
        drop(_g2);
        drop(_g1);
        t.join();
    });
    assert_eq!(report.first_code(), Some(ViolationCode::Deadlock));
    assert!(
        report.has_code(ViolationCode::LockOrderCycle),
        "edge graph must expose the cycle: {:?}",
        report.lock_edges
    );
}

/// Mutation 5 — transcript guard leaked across worker exit (pinned:
/// A0706). A worker that finishes while holding the merge lock would
/// wedge every later merger.
#[test]
fn guard_leak_at_worker_exit_is_a0706() {
    let report = explore(&Builder::default(), || {
        let merge = Arc::new(Mutex::named("merge", ()));
        let m2 = Arc::clone(&merge);
        let t = thread::spawn(move || {
            // BUG: guard forgotten instead of dropped.
            std::mem::forget(m2.lock());
        });
        t.join();
    });
    assert_eq!(report.first_code(), Some(ViolationCode::LockLeaked));
}

/// Mutation 6 — unclamped λ reservation (pinned: A0705).
///
/// The batched budget protocol from `model_stop.rs`, but a reservation
/// grants a whole batch whenever any of λ remains, instead of clamping
/// the grant to the remainder. The batch that straddles λ overruns it,
/// and the budget assertion fires.
#[test]
fn unclamped_lambda_reservation_is_a0705() {
    const LAMBDA: u32 = 3;
    const BATCH: u32 = 2;
    let report = explore(&Builder::default(), || {
        let omega_used = Arc::new(AtomicU32::new(0));
        let ran = Arc::new(AtomicU32::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (used, ran) = (Arc::clone(&omega_used), Arc::clone(&ran));
                thread::spawn(move || {
                    for _ in 0..2 {
                        let start = used.fetch_add(BATCH, Ordering::Relaxed);
                        // BUG: must be BATCH.min(LAMBDA.saturating_sub(start)).
                        let granted = if start < LAMBDA { BATCH } else { 0 };
                        if granted == 0 {
                            return;
                        }
                        ran.fetch_add(granted, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran <= LAMBDA, "the workers ran {ran} Ω past λ = {LAMBDA}");
    });
    assert_eq!(
        report.first_code(),
        Some(ViolationCode::InvariantViolated),
        "expected the budget assertion to fire: {:?}",
        report.violations
    );
    assert!(
        report.violations[0].message.contains("past λ"),
        "violation must carry the budget assertion: {}",
        report.violations[0].message
    );
}

/// The mutation detectors must themselves be deterministic: the same
/// seeded bug yields the same first violation on every exploration.
#[test]
fn mutation_detection_is_deterministic() {
    let run = || {
        explore(&Builder::default(), || {
            let c = Arc::new(RaceCell::named("shared", 0u32));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || c2.set(1));
            c.set(2);
            t.join();
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.first_code(), b.first_code());
    assert_eq!(a.interleavings, b.interleavings);
    assert_eq!(
        a.violations[0].trace, b.violations[0].trace,
        "the offending interleaving replays identically"
    );
}
