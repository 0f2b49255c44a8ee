//! Process-wide ring of recently completed traces.
//!
//! [`crate::end`] publishes each finished trace here; `GET /trace/<id>`
//! and `pipesched trace` read them back. The ring keeps the most recent
//! [`DEFAULT_CAPACITY`] traces (override with `PIPESCHED_TRACE_CAP`) —
//! old entries fall off the front, matching the service's "recent
//! requests are the interesting ones" access pattern. Evictions are
//! counted and exported as `pipesched_trace_evicted_total`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Trace;

/// Completed traces retained for lookup unless `PIPESCHED_TRACE_CAP`
/// (or [`set_capacity`]) overrides it.
pub const DEFAULT_CAPACITY: usize = 128;

static STORE: Mutex<VecDeque<Trace>> = Mutex::new(VecDeque::new());
/// Resolved capacity; 0 means "read `PIPESCHED_TRACE_CAP` on first use".
static CAP: AtomicUsize = AtomicUsize::new(0);
static EVICTED: AtomicU64 = AtomicU64::new(0);

fn store() -> MutexGuard<'static, VecDeque<Trace>> {
    STORE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The ring's current capacity, resolving `PIPESCHED_TRACE_CAP` (any
/// positive integer) on first call.
pub fn capacity() -> usize {
    // relaxed-ok: capacity is a standalone configuration value with no
    // dependent data; a racing first-use just resolves the same number.
    let cap = CAP.load(Ordering::Relaxed);
    if cap != 0 {
        return cap;
    }
    let resolved = crate::capacity_from_env("PIPESCHED_TRACE_CAP", DEFAULT_CAPACITY);
    // relaxed-ok: see above — idempotent lazy init of a plain value.
    CAP.store(resolved, Ordering::Relaxed);
    resolved
}

/// Override the capacity (tests and the CLI; production uses
/// `PIPESCHED_TRACE_CAP`). Trims the ring if it shrank.
pub fn set_capacity(cap: usize) {
    let cap = cap.max(1);
    let mut s = store();
    // relaxed-ok: plain configuration store, readers need no ordering.
    CAP.store(cap, Ordering::Relaxed);
    while s.len() > cap {
        s.pop_front();
        // relaxed-ok: monotonic counter, read only for reporting.
        EVICTED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Traces evicted off the ring's front since process start.
pub fn evicted_total() -> u64 {
    EVICTED.load(Ordering::Relaxed)
}

/// Traces currently retained.
pub fn len() -> usize {
    store().len()
}

/// Add a completed trace, evicting the oldest past [`capacity`].
pub fn put(trace: Trace) {
    let cap = capacity();
    let mut s = store();
    while s.len() >= cap {
        s.pop_front();
        // relaxed-ok: monotonic counter, read only for reporting.
        EVICTED.fetch_add(1, Ordering::Relaxed);
    }
    s.push_back(trace);
}

/// Look up a retained trace by id.
pub fn get(id: u64) -> Option<Trace> {
    store().iter().find(|t| t.id == id).cloned()
}

/// Ids of retained traces, oldest first.
pub fn recent_ids() -> Vec<u64> {
    store().iter().map(|t| t.id).collect()
}

/// Drop every retained trace (tests and long-lived servers). The
/// eviction counter is left alone — dropped-on-purpose is not evicted.
pub fn clear() {
    store().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(id: u64) -> Trace {
        Trace {
            id,
            label: "t".into(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_traces() {
        let _l = crate::test_lock();
        clear();
        set_capacity(DEFAULT_CAPACITY);
        for id in 1..=(DEFAULT_CAPACITY as u64 + 5) {
            put(fake(id));
        }
        let ids = recent_ids();
        assert_eq!(ids.len(), DEFAULT_CAPACITY);
        assert_eq!(ids[0], 6); // 1..=5 evicted
        assert!(get(3).is_none());
        assert_eq!(get(6).map(|t| t.id), Some(6));
        clear();
        assert!(recent_ids().is_empty());
    }

    #[test]
    fn capacity_is_configurable_and_evictions_are_counted() {
        let _l = crate::test_lock();
        clear();
        set_capacity(4);
        let before = evicted_total();
        for id in 1..=10 {
            put(fake(id));
        }
        assert_eq!(len(), 4);
        assert_eq!(evicted_total() - before, 6);
        assert_eq!(recent_ids(), vec![7, 8, 9, 10]);
        // Shrinking trims and counts the trimmed traces too.
        set_capacity(2);
        assert_eq!(len(), 2);
        assert_eq!(evicted_total() - before, 8);
        assert_eq!(recent_ids(), vec![9, 10]);
        clear();
        set_capacity(DEFAULT_CAPACITY);
    }
}
