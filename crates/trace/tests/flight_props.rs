//! Property tests for the flight recorder under concurrent writers: the
//! ring never tears (every stored event passes its self-checksum and
//! sequence numbers stay unique and ordered), an anomaly dump is a
//! consistent frozen snapshot that contains its triggering event, the
//! accounting (recorded = stored + evicted) balances exactly, and the
//! sequence number `commit` returns names the caller's own event.
//!
//! Runs as its own integration-test process, so it owns the process-wide
//! recorder; the internal `#[serial]`-style mutex keeps proptest cases
//! from interleaving with each other.

use std::collections::HashMap;

use proptest::prelude::*;

use pipesched_trace::flight::{self, Cache, Outcome, WideEvent, DUMP_WINDOW, OUTLIER_MIN_SAMPLES};

/// The tests in this binary share the process-wide recorder; serialize.
fn locked() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One scripted request a writer thread records.
#[derive(Debug, Clone, Copy)]
struct Req {
    id: i64,
    micros: u16,
    outcome: Outcome,
}

fn decode(thread: usize, idx: usize, raw: u16) -> Req {
    // Most requests are healthy; a slice are anomalous, spread across
    // every trigger kind the classifier knows.
    let outcome = match raw % 17 {
        0 => Outcome::DeadlineMiss,
        1 => Outcome::CertReject,
        2 => Outcome::Disagreement,
        3 => Outcome::AdmissionReject,
        4 => Outcome::BudgetExhausted,
        _ => Outcome::Ok,
    };
    Req {
        id: (thread * 10_000 + idx) as i64,
        micros: raw,
        outcome,
    }
}

/// Build and commit one request's event; returns the sequence number
/// `commit` assigned.
fn record(req: Req) -> Option<u64> {
    flight::begin(req.id);
    flight::update(|ev| {
        (ev.canon, ev.n, ev.machine_fp) = (req.id as u64, 8, 0x5eed);
        (ev.tier, ev.backend, ev.threads, ev.cache) = ("bnb", "bnb", 2, Cache::Miss);
        (ev.nops, ev.optimal) = (3, true);
        (ev.nodes, ev.omega, ev.pruned) = (u64::from(req.micros), 5, 2);
        ev.raise(req.outcome);
    });
    flight::commit(flight::finish(u64::from(req.micros).max(1), 0)?)
}

/// The ring invariants every interleaving must preserve.
fn check_ring(events: &[WideEvent]) -> Result<(), String> {
    let mut last_seq = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if !ev.verify() {
            return Err(format!("event {i} (seq {}) failed its checksum", ev.seq));
        }
        if ev.seq <= last_seq {
            return Err(format!(
                "event {i}: seq {} not strictly after {last_seq}",
                ev.seq
            ));
        }
        last_seq = ev.seq;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn concurrent_writers_never_tear_the_ring(
        scripts in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 1..40),
            4,
        ),
        cap in 4usize..64,
    ) {
        let _l = locked();
        flight::set_enabled(true);
        flight::reset();
        flight::set_capacity(cap);
        std::thread::scope(|scope| {
            for (t, script) in scripts.iter().enumerate() {
                scope.spawn(move || {
                    for (i, &raw) in script.iter().enumerate() {
                        record(decode(t, i, raw));
                    }
                });
            }
        });
        flight::set_enabled(false);

        let total: u64 = scripts.iter().map(|s| s.len() as u64).sum();
        let stats = flight::stats();
        prop_assert_eq!(stats.recorded, total, "every commit lands exactly once");
        prop_assert_eq!(
            stats.stored as u64 + stats.evicted,
            total,
            "stored + evicted balances recorded"
        );
        prop_assert_eq!(stats.stored, (total as usize).min(cap));

        let events = flight::recent(cap + 10);
        prop_assert_eq!(events.len(), stats.stored);
        if let Err(msg) = check_ring(&events) {
            prop_assert!(false, "ring torn: {}", msg);
        }

        // Dumps are consistent frozen snapshots: every event verifies, the
        // trigger is present and last, sequence order holds, and the
        // window never exceeds DUMP_WINDOW.
        for dump in flight::dumps() {
            prop_assert!(dump.events.len() <= DUMP_WINDOW);
            if let Err(msg) = check_ring(&dump.events) {
                prop_assert!(false, "dump {} torn: {}", dump.id, msg);
            }
            let last = dump.events.last().expect("dump is never empty");
            prop_assert_eq!(last.seq, dump.trigger_seq, "trigger event is captured last");
            let anomalous = matches!(
                last.outcome,
                Outcome::DeadlineMiss
                    | Outcome::CertReject
                    | Outcome::Disagreement
                    | Outcome::AdmissionReject
            ) || last.micros >= 1_000;
            prop_assert!(anomalous, "dump {} trigger {:?} is not anomalous", dump.id, last);
        }
        flight::reset();
        flight::set_capacity(flight::DEFAULT_CAPACITY);
    }

    /// A forged wide event — any single field flipped — fails its
    /// self-checksum; restoring the field restores the seal.
    fn tampering_always_breaks_the_seal(raw in any::<u16>(), field in 0usize..8) {
        let _l = locked();
        flight::set_enabled(true);
        flight::reset();
        record(decode(0, 0, raw));
        flight::set_enabled(false);
        let mut ev = flight::recent(1).pop().expect("one event recorded");
        prop_assert!(ev.verify(), "freshly committed event must verify");
        match field {
            0 => ev.req ^= 1,
            1 => ev.canon ^= 1,
            2 => ev.nops ^= 1,
            3 => ev.nodes ^= 1,
            4 => ev.micros ^= 1,
            5 => ev.optimal = !ev.optimal,
            6 => ev.tier = "forged",
            _ => ev.phases_us[3] ^= 1,
        }
        prop_assert!(!ev.verify(), "forged field {} must break the seal", field);
        flight::reset();
    }
}

/// Deterministic companion to the proptests: an outlier-latency trigger
/// captures its own triggering event even while three other threads are
/// committing healthy traffic around it.
#[test]
fn outlier_trigger_captures_the_offender_under_concurrency() {
    let _l = locked();
    flight::set_enabled(true);
    flight::reset();
    flight::set_capacity(flight::DEFAULT_CAPACITY);
    for i in 0..OUTLIER_MIN_SAMPLES as i64 {
        record(Req {
            id: i,
            micros: 120,
            outcome: Outcome::Ok,
        });
    }
    std::thread::scope(|scope| {
        for t in 1..4 {
            scope.spawn(move || {
                for i in 0..50 {
                    record(Req {
                        id: (t * 1_000 + i) as i64,
                        micros: 100,
                        outcome: Outcome::Ok,
                    });
                }
            });
        }
        scope.spawn(|| {
            record(Req {
                id: 666,
                micros: 60_000,
                outcome: Outcome::Ok,
            });
        });
    });
    flight::set_enabled(false);
    let dump = flight::dumps()
        .into_iter()
        .find(|d| d.anomaly == "latency_outlier")
        .expect("the 60 ms request trips the outlier trigger");
    let last = dump.events.last().unwrap();
    assert_eq!(last.req, 666);
    assert_eq!(last.seq, dump.trigger_seq);
    assert!(dump.events.iter().all(WideEvent::verify));
    flight::reset();
}

/// `commit` returns the sequence number it assigned to the caller's own
/// event — never the ring's newest event, which under concurrent commits
/// often belongs to another writer.
#[test]
fn commit_returns_the_callers_own_sequence_number() {
    const WRITERS: usize = 4;
    const COMMITS: usize = 200;
    let _l = locked();
    flight::set_enabled(true);
    flight::set_capacity(WRITERS * COMMITS);
    for round in 0..10 {
        flight::reset();
        let returned: Vec<(u64, i64)> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    scope.spawn(move || {
                        (0..COMMITS)
                            .map(|i| {
                                let req = Req {
                                    id: (t * 10_000 + i) as i64,
                                    micros: 100,
                                    outcome: Outcome::Ok,
                                };
                                (record(req).expect("the recorder is on"), req.id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let req_of: HashMap<u64, i64> = flight::recent(WRITERS * COMMITS)
            .iter()
            .map(|ev| (ev.seq, ev.req))
            .collect();
        for (seq, req) in returned {
            assert_eq!(
                req_of.get(&seq),
                Some(&req),
                "round {round}: commit returned seq {seq}, which is not request {req}'s event"
            );
        }
    }
    flight::set_enabled(false);
    flight::set_capacity(flight::DEFAULT_CAPACITY);
    flight::reset();
}
