//! Protocol harness 3: batched λ reservation and stop monotonicity.
//!
//! Mirrors the pool's budget and global-stop protocols
//! (`Budget`/`Shared::reserve`/`note_stop` in
//! `crates/core/src/parallel.rs`). A worker draws λ from the shared
//! counter in batches — one `fetch_add` of [`BATCH`], granted only up to
//! what remains of λ — and runs an Ω only on a unit it reserved. A
//! worker that finds λ fully reserved stops the pool: it records the
//! cause in a flag and publishes `stop` with a Release store. So does a
//! stopper thread, which records *why* (deadline hit, bound proved) in
//! plain data. Workers poll `stop` with an Acquire load. Explored
//! invariants:
//!
//! * the Ω all workers run never exceed λ, however the reservations
//!   interleave (the unclamped reservation is the A0705 mutation in
//!   `model_mutations.rs`);
//! * the reason data is fully visible to any observer of the stopper's
//!   `stop` (Release/Acquire message passing — the race detector proves
//!   the edge is required: see the dropped-Release mutation in
//!   `model_mutations.rs`);
//! * `stop` is monotone: once set it stays set;
//! * a helper that starts after `pending` has reached 0 exits at once
//!   instead of waiting for work that will never come.

use std::collections::VecDeque;
use std::sync::atomic::AtomicUsize as Tally;
use std::sync::Arc;

use pipesched_check::model::cell::RaceCell;
use pipesched_check::model::sync::{AtomicBool, AtomicU32, Mutex, Ordering};
use pipesched_check::model::{explore, thread, Builder};

/// The pool-wide curtail point.
const LAMBDA: u32 = 5;
/// Ω per reservation (the pool's `LAMBDA_BATCH`, scaled down).
const BATCH: u32 = 2;
/// Ω each worker would run unbudgeted: together more than λ.
const WANT: u32 = 3;

struct Pool {
    stop: AtomicBool,
    /// Why the stopper stopped: 0 = running, 1 = deadline, 2 = proved.
    /// Deliberately unsynchronized data — only the Release/Acquire pair
    /// on `stop` makes reading it safe.
    reason: RaceCell<u32>,
    /// A worker found λ fully reserved (`note_stop`'s cause flag).
    truncated: AtomicBool,
    /// The λ reservation counter.
    omega_used: AtomicU32,
    /// Ω the workers ran, summed as they exit.
    ran: AtomicU32,
}

/// The next batch: at most [`BATCH`] Ω, clamped to what remains of λ.
fn reserve(pool: &Pool) -> u32 {
    let start = pool.omega_used.fetch_add(BATCH, Ordering::Relaxed);
    BATCH.min(LAMBDA.saturating_sub(start))
}

/// Stop the pool as λ-truncated: the cause flag, then the Release.
fn note_truncated(pool: &Pool) {
    pool.truncated.store(true, Ordering::Relaxed);
    pool.stop.store(true, Ordering::Release);
}

fn worker(pool: &Pool) {
    let mut ran = 0;
    // `Budget::ready`: a unit is reserved before the first Ω.
    let mut left = reserve(pool);
    if left == 0 {
        note_truncated(pool);
    }
    while left > 0 && ran < WANT {
        if pool.stop.load(Ordering::Acquire) {
            // A stop that is not the truncation is the stopper's, and
            // its Release made the reason visible.
            if !pool.truncated.load(Ordering::Relaxed) {
                let why = pool.reason.get();
                assert!(why != 0, "observed stop but reason not yet visible");
            }
            break;
        }
        ran += 1;
        // `Budget::charge`: the unit is spent; the last one refills.
        left -= 1;
        if left == 0 {
            left = reserve(pool);
            if left == 0 {
                note_truncated(pool);
            }
        }
    }
    pool.ran.fetch_add(ran, Ordering::Relaxed);
}

#[test]
fn stop_is_monotone_and_omega_is_bounded() {
    let builder = Builder::with_cap(5000);
    let report = explore(&builder, || {
        let pool = Arc::new(Pool {
            stop: AtomicBool::new(false),
            reason: RaceCell::named("stop-reason", 0),
            truncated: AtomicBool::new(false),
            omega_used: AtomicU32::new(0),
            ran: AtomicU32::new(0),
        });

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pool);
                thread::spawn(move || worker(&p))
            })
            .collect();

        let stopper = {
            let p = Arc::clone(&pool);
            thread::spawn(move || {
                p.reason.set(1);
                p.stop.store(true, Ordering::Release);
            })
        };

        for w in workers {
            w.join();
        }
        stopper.join();

        assert!(
            pool.stop.load(Ordering::Acquire),
            "stop must stay set once published"
        );
        let ran = pool.ran.load(Ordering::Relaxed);
        assert!(ran <= LAMBDA, "the workers ran {ran} Ω past λ = {LAMBDA}");
    });
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        report.advisories.is_empty(),
        "release/acquire pairing must be clean: {:?}",
        report.advisories
    );
    assert!(
        report.interleavings >= 1000,
        "interleaving floor: got {}",
        report.interleavings
    );
}

/// Interleavings in which a helper's first look found the tree exhausted.
static LATE_EXITS: Tally = Tally::new(0);

/// Idle looks a helper makes while `pending` says work is in flight. The
/// pool's helpers spin without bound; the checker has no fairness, so an
/// unbounded spin would have it enumerate ever-longer ones.
const SPINS: u32 = 3;

/// Worker 0's deque, mirrored on the instrumented mutex as in
/// `model_deque.rs`: the owner pops the newest task, a thief the oldest.
type Tasks = Mutex<VecDeque<u32>>;

/// One pool worker's loop (`worker_loop`): pop its own deque, else steal
/// from `peer`, else exit once `pending` reads 0, looking at most `spins`
/// times while it does not. Tasks are leaves. Returns the tasks run and
/// the idle looks made.
fn pool_worker(
    own: Option<&Tasks>,
    peer: Option<&Tasks>,
    pending: &AtomicU32,
    spins: u32,
) -> (u32, u32) {
    let (mut ran, mut waited) = (0, 0);
    loop {
        let task = own
            .and_then(|d| d.lock().pop_back())
            .or_else(|| peer.and_then(|d| d.lock().pop_front()));
        if task.is_none() {
            if waited == spins || pending.load(Ordering::Acquire) == 0 {
                return (ran, waited);
            }
            waited += 1;
            thread::yield_now();
            continue;
        }
        ran += 1;
        pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Worker 0 runs the root, splits it into two children and, at its
/// threshold, starts a helper. The helper may race worker 0 for the
/// children or start only after the tree is exhausted. Every task runs
/// exactly once, and a helper whose first look finds `pending` at 0 runs
/// nothing and exits without waiting. Worker 0 leaves its waiting to
/// the join (the pool's worker 0 spins, then the scope joins): the
/// checker schedules the lowest thread id first, so a spinning worker 0
/// would starve the helper it waits for.
#[test]
fn late_helper_exits_once_the_tree_is_exhausted() {
    LATE_EXITS.store(0, std::sync::atomic::Ordering::Relaxed);
    let builder = Builder::with_cap(5000);
    let report = explore(&builder, || {
        let own: Arc<Tasks> = Arc::new(Mutex::named("deque", VecDeque::new()));
        let pending = Arc::new(AtomicU32::new(1));
        // The root: children published before it completes, so
        // `pending` never dips to 0 while work exists.
        pending.fetch_add(2, Ordering::AcqRel);
        own.lock().extend([1, 2]);
        pending.fetch_sub(1, Ordering::AcqRel);

        let helper_ran = Arc::new(AtomicU32::new(0));
        let helper = {
            let (peer, pending) = (Arc::clone(&own), Arc::clone(&pending));
            let helper_ran = Arc::clone(&helper_ran);
            thread::spawn(move || {
                let exhausted = pending.load(Ordering::Acquire) == 0;
                let (ran, waited) = pool_worker(None, Some(&peer), &pending, SPINS);
                helper_ran.store(ran, Ordering::Relaxed);
                if exhausted {
                    assert_eq!(ran, 0, "a helper ran work after the tree was exhausted");
                    assert_eq!(waited, 0, "a helper waited on an exhausted tree");
                    LATE_EXITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };
        let (ran0, _) = pool_worker(Some(&own), None, &pending, 0);
        helper.join();
        assert_eq!(pending.load(Ordering::Acquire), 0, "every task completed");
        assert_eq!(
            1 + ran0 + helper_ran.load(Ordering::Relaxed),
            3,
            "every task ran exactly once"
        );
    });
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        LATE_EXITS.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no interleaving started the helper after the tree was exhausted"
    );
    assert!(
        report.interleavings >= 1000,
        "interleaving floor: got {}",
        report.interleavings
    );
}
