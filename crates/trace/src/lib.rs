//! First-party structured tracing for the pipesched stack.
//!
//! The workspace builds offline, so this crate vendors the small slice of
//! observability machinery the service and CLI need instead of pulling in
//! `tracing`: spans and point events with nanosecond timestamps, parent
//! links, and per-request trace ids, buffered in a thread-local ring so the
//! hot path takes no locks.
//!
//! The design follows the proof logger's `Option`-gated hook (PR 3): when
//! tracing is globally disabled — the default — every entry point is a
//! single relaxed atomic load and an early return, keeping the disabled
//! path within the measured <2% budget (`repro observe` gates this).
//!
//! ```
//! pipesched_trace::set_enabled(true);
//! let id = pipesched_trace::begin("request");
//! {
//!     let _outer = pipesched_trace::span("parse");
//!     pipesched_trace::point("bytes", 117);
//! }
//! let trace = pipesched_trace::end().unwrap();
//! assert_eq!(trace.id, id);
//! assert_eq!(trace.events.len(), 3); // enter, point, exit
//! pipesched_trace::set_enabled(false);
//! ```
//!
//! A trace is recorded by exactly one thread; completed traces land in the
//! process-wide [`store`] where `GET /trace/<id>` and the CLI read them
//! back. [`render`] reconstructs span trees, NDJSON dumps, and folded
//! flamegraph stacks; [`prom`] writes Prometheus text exposition;
//! [`flight`] keeps one wide event per served request, timed phase by
//! phase, and [`hist`] is the latency histogram both the service's SLOs
//! and the flight recorder's outlier trigger read.

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod prom;
pub mod render;
pub mod store;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel parent id carried by root spans and span-less points.
pub const NO_PARENT: u32 = u32::MAX;

/// Hard cap on buffered enter/point events per trace. Exits are always
/// recorded so enter/exit stay matched; a full buffer drops new spans and
/// points and counts them in [`Trace::dropped`] instead of reallocating
/// without bound.
pub const MAX_EVENTS: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (anchored on first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Globally switch tracing on or off. Off is the default; when off,
/// [`begin`] / [`span`] / [`point`] are single-atomic-load no-ops.
pub fn set_enabled(on: bool) {
    // relaxed-ok: a pure on/off toggle with no dependent data — readers
    // act only on the flag value itself, so no ordering is needed.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is globally enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the current thread is actively recording: tracing is enabled
/// *and* a trace opened by [`begin`] is still collecting on this thread.
/// Instrumented code uses this to decide whether computing expensive
/// trace-only values (per-depth search profiles) is worth it.
pub fn active() -> bool {
    enabled() && ACTIVE.with(|a| a.borrow().is_some())
}

/// What a buffered [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter,
    /// A span closed.
    Exit,
    /// An instantaneous measurement inside the innermost open span.
    Point,
}

/// One buffered trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event class.
    pub kind: EventKind,
    /// Static name; `&'static str` keeps recording allocation-free.
    pub name: &'static str,
    /// Span id: its own id for enter/exit, the enclosing span for points.
    pub span: u32,
    /// Parent span id, or [`NO_PARENT`] for roots and points.
    pub parent: u32,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// Caller-supplied argument ([`span_with`] / [`point2`]), else 0.
    pub arg: i64,
    /// Point value; 0 on enter/exit events.
    pub value: i64,
}

/// A completed trace: the events one [`begin`]..[`end`] window recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Process-unique trace id, counting from 1 (0 means "not traced").
    pub id: u64,
    /// Caller-supplied label, e.g. `"request"`.
    pub label: String,
    /// Buffered events in record order; timestamps are nondecreasing.
    pub events: Vec<Event>,
    /// Enter/point events discarded after the buffer filled.
    pub dropped: u64,
}

struct ActiveTrace {
    id: u64,
    label: String,
    events: Vec<Event>,
    next_span: u32,
    /// Open spans, innermost last: (span id, name, parent id).
    stack: Vec<(u32, &'static str, u32)>,
    dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Open a new trace on this thread and return its id (0 when tracing is
/// disabled). Any trace already open on the thread is discarded — the
/// serve path opens one trace per request, so a leftover trace means the
/// previous request errored out before [`end`].
pub fn begin(label: &str) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(ActiveTrace {
            id,
            label: label.to_string(),
            events: Vec::with_capacity(64),
            next_span: 0,
            stack: Vec::new(),
            dropped: 0,
        });
    });
    id
}

/// Close this thread's trace, publish it to the [`store`], and return it.
/// Spans still open (guards alive across the `end` call) are force-exited
/// so the recorded trace always has matched enter/exit events.
pub fn end() -> Option<Trace> {
    let mut active = ACTIVE.with(|a| a.borrow_mut().take())?;
    let t = now_ns();
    while let Some((span, name, parent)) = active.stack.pop() {
        active.events.push(Event {
            kind: EventKind::Exit,
            name,
            span,
            parent,
            t_ns: t,
            arg: 0,
            value: 0,
        });
    }
    let trace = Trace {
        id: active.id,
        label: active.label,
        events: active.events,
        dropped: active.dropped,
    };
    store::put(trace.clone());
    Some(trace)
}

/// RAII handle for an open span; the span closes when the guard drops.
/// `!Send` by construction — a span's enter and exit must land in the same
/// thread-local buffer.
#[must_use = "a span closes when its guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    trace: u64,
    span: u32,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn disarmed() -> Self {
        SpanGuard {
            trace: 0,
            span: 0,
            armed: false,
            _not_send: PhantomData,
        }
    }
}

/// Open a span. The guard is a disarmed no-op when tracing is disabled, no
/// trace is open on this thread, or the trace's event buffer is full.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, 0)
}

/// Like [`span`], with an integer argument recorded on the enter event
/// (e.g. a window index or block length).
pub fn span_with(name: &'static str, arg: i64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed();
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(active) = slot.as_mut() else {
            return SpanGuard::disarmed();
        };
        if active.events.len() >= MAX_EVENTS {
            active.dropped += 1;
            return SpanGuard::disarmed();
        }
        let span = active.next_span;
        active.next_span += 1;
        let parent = active.stack.last().map_or(NO_PARENT, |&(s, _, _)| s);
        active.events.push(Event {
            kind: EventKind::Enter,
            name,
            span,
            parent,
            t_ns: now_ns(),
            arg,
            value: 0,
        });
        active.stack.push((span, name, parent));
        SpanGuard {
            trace: active.id,
            span,
            armed: true,
            _not_send: PhantomData,
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(active) = slot.as_mut() else {
                return; // trace already ended; end() force-exited us
            };
            if active.id != self.trace {
                return; // a new trace replaced ours while the guard lived
            }
            let t = now_ns();
            // Pop to (and including) this guard's span, force-exiting any
            // child span whose guard escaped its scope. Exits bypass the
            // MAX_EVENTS cap so enter/exit always stay matched.
            while let Some((span, name, parent)) = active.stack.pop() {
                active.events.push(Event {
                    kind: EventKind::Exit,
                    name,
                    span,
                    parent,
                    t_ns: t,
                    arg: 0,
                    value: 0,
                });
                if span == self.span {
                    break;
                }
            }
        });
    }
}

/// Record an instantaneous value on the innermost open span.
pub fn point(name: &'static str, value: i64) {
    point2(name, 0, value);
}

/// Like [`point`], with an extra integer argument — the B&B profile uses
/// it as the depth index of per-depth node/prune counts.
pub fn point2(name: &'static str, arg: i64, value: i64) {
    if !enabled() {
        return;
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(active) = slot.as_mut() else {
            return;
        };
        if active.events.len() >= MAX_EVENTS {
            active.dropped += 1;
            return;
        }
        let span = active.stack.last().map_or(NO_PARENT, |&(s, _, _)| s);
        active.events.push(Event {
            kind: EventKind::Point,
            name,
            span,
            parent: NO_PARENT,
            t_ns: now_ns(),
            arg,
            value,
        });
    });
}

/// A ring capacity from the environment variable `var`: any positive
/// integer, else `default`.
pub(crate) fn capacity_from_env(var: &str, default: usize) -> usize {
    let cap = std::env::var(var).ok().and_then(|v| v.parse().ok());
    cap.filter(|&n| n > 0).unwrap_or(default)
}

/// Tests in this binary share the global `ENABLED` flag and trace store;
/// serialize the ones that touch either.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _l = locked();
        set_enabled(false);
        assert_eq!(begin("off"), 0);
        let _g = span("ignored");
        point("ignored", 1);
        assert!(!active());
        assert!(end().is_none());
    }

    #[test]
    fn spans_nest_and_points_attach() {
        let _l = locked();
        set_enabled(true);
        let id = begin("t");
        assert!(id > 0);
        assert!(active());
        {
            let _a = span("outer");
            point("p", 42);
            {
                let _b = span_with("inner", 7);
            }
        }
        let trace = end().expect("trace was open");
        set_enabled(false);
        assert_eq!(trace.id, id);
        assert_eq!(trace.dropped, 0);
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Enter, // outer
                EventKind::Point, // p
                EventKind::Enter, // inner
                EventKind::Exit,  // inner
                EventKind::Exit,  // outer
            ]
        );
        let inner = &trace.events[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.arg, 7);
        assert_eq!(inner.parent, 0); // outer's span id
        assert_eq!(trace.events[1].span, 0); // point inside outer
        assert!(trace.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn end_force_exits_open_spans() {
        let _l = locked();
        set_enabled(true);
        begin("t");
        let guard = span("leaky");
        let trace = end().expect("trace was open");
        set_enabled(false);
        drop(guard); // trace ended first; the late drop must be a no-op
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[1].kind, EventKind::Exit);
        assert_eq!(trace.events[1].name, "leaky");
    }

    #[test]
    fn full_buffer_drops_spans_but_keeps_exits_matched() {
        let _l = locked();
        set_enabled(true);
        begin("t");
        let mut guards = Vec::new();
        // Overfill: each span is one enter event.
        for _ in 0..MAX_EVENTS + 10 {
            guards.push(span("s"));
        }
        drop(guards);
        let trace = end().expect("trace was open");
        set_enabled(false);
        assert_eq!(trace.dropped, 10);
        let enters = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Enter)
            .count();
        let exits = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Exit)
            .count();
        assert_eq!(enters, MAX_EVENTS);
        assert_eq!(enters, exits);
    }

    #[test]
    fn begin_replaces_an_open_trace() {
        let _l = locked();
        set_enabled(true);
        let first = begin("first");
        let stale = span("stale");
        let second = begin("second");
        assert!(second > first);
        drop(stale); // belongs to the discarded trace; must not pollute
        let _s = span("fresh");
        drop(_s);
        let trace = end().expect("trace was open");
        set_enabled(false);
        assert_eq!(trace.id, second);
        assert_eq!(trace.label, "second");
        assert!(trace.events.iter().all(|e| e.name == "fresh"));
    }
}
