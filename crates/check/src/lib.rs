//! pipesched-check: deterministic concurrency checking for the
//! work-stealing search pool and the service tier.
//!
//! Three layers, mirroring how the rest of the workspace treats
//! correctness (independent re-derivation + tamper tests, per DESIGN.md
//! §16):
//!
//! 1. [`sync`] — the facade production code imports. A normal build
//!    gets std atomics and thin poison-free `Mutex`/`Condvar` wrappers;
//!    `RUSTFLAGS="--cfg model"` swaps in the instrumented types.
//! 2. [`model`] — the loom-style checker: [`model::explore`] runs a
//!    closure once per schedulable interleaving (bounded exhaustive DFS
//!    with a seeded xorshift fallback — no wall clock, no OS entropy),
//!    maintains vector clocks ([`vclock`]), and reports violations with
//!    stable `A07xx` codes.
//! 3. [`lockorder`] — a static `.lock()` scan over the source tree
//!    whose `held -> acquired` edges and cycles back `pipesched lint
//!    --concurrency`, reading the files [`walk`] finds.
//!
//! The `A07xx` codes are registered in `pipesched-analyze`'s diagnostic
//! registry and documented in the README table; `tests/docs_sync.rs`
//! diffs them both ways.

pub mod lockorder;
pub mod model;
pub mod sync;
pub mod vclock;
pub mod walk;

/// Stable codes for concurrency findings. The string forms are part of
/// the repo's diagnostic-code namespace (`pipesched-analyze` registers
/// the same codes with severities and summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationCode {
    /// A0701: two concurrent conflicting accesses to unsynchronized
    /// data (vector clocks incomparable).
    DataRace,
    /// A0702: cycle in the lock-order graph.
    LockOrderCycle,
    /// A0703: an interleaving on which no thread can make progress
    /// (includes lost condvar wakeups).
    Deadlock,
    /// A0704: an acquire load observed a store that published no
    /// release — the load synchronizes with nothing (advisory).
    AcquireMisuse,
    /// A0705: a model-program invariant failed (harness assertion
    /// panicked, or an exploration bound was exceeded).
    InvariantViolated,
    /// A0706: a thread finished while still holding a lock.
    LockLeaked,
}

impl ViolationCode {
    /// The stable diagnostic code string.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationCode::DataRace => "A0701",
            ViolationCode::LockOrderCycle => "A0702",
            ViolationCode::Deadlock => "A0703",
            ViolationCode::AcquireMisuse => "A0704",
            ViolationCode::InvariantViolated => "A0705",
            ViolationCode::LockLeaked => "A0706",
        }
    }
}

impl std::fmt::Display for ViolationCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from an exploration, with the operation trace of the
/// interleaving that produced it (error-class findings only; the trace
/// replays deterministically from the same [`model::Builder`]).
#[derive(Debug, Clone)]
pub struct Violation {
    pub code: ViolationCode,
    pub message: String,
    /// `t<id>: <op>` lines, in schedule order, capped at 256 entries.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if !self.trace.is_empty() {
            write!(f, "\n  trace ({} ops):", self.trace.len())?;
            for line in &self.trace {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}
