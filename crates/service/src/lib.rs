#![warn(missing_docs)]

//! `pipesched-serve`: a batched scheduling service over the pipesched
//! stack — canonical-DAG memoization plus deadline-bounded anytime search.
//!
//! Compilers re-schedule the same few dozen block *shapes* endlessly:
//! inlining, unrolling, and macro expansion stamp out isomorphic blocks
//! that differ only in variable names and tuple numbering. The NOP
//! minimization of §4.2 sees none of those differences, so this crate
//! answers repeat shapes from a cache instead of re-running the search:
//!
//! * [`canon`] reduces a block + machine to a canonical cache key by
//!   iterative label refinement over the dependence DAG (op kind, latency
//!   class, edge structure), with a permutation that replays a cached
//!   schedule onto any isomorphic block. Every hit is re-validated on the
//!   new block, so a hash collision costs a lookup, never a wrong answer.
//! * [`cache`] is a sharded in-memory LRU over canonical entries with
//!   optional JSON persistence, so a warmed cache survives restarts.
//! * [`engine`] escalates each miss through answer tiers — list schedule
//!   (free when the lower bound proves it), windowed search on a budget
//!   slice, then the final exact tier under a node budget and wall-clock
//!   deadline: the paper's branch-and-bound by default, the SAT
//!   portfolio's descending feasibility queries, or a race of the two
//!   ([`EngineConfig::backend`]); answers, cache entries, and metrics all
//!   record which backend produced the schedule. Budget exhaustion still
//!   returns a legal schedule, flagged `optimal: false`; unlimited
//!   budgets reproduce the serial B&B result bit for bit.
//! * [`request`]/[`serve`] speak an NDJSON line protocol over stdin or
//!   TCP through a blocking worker pool — the TCP port also answers HTTP
//!   `GET /metrics` (Prometheus text), `/stats` (JSON) and `/trace/<id>`
//!   (NDJSON span dumps); [`batch`] replays a request file and reports
//!   throughput plus fleet-wide search effort, and [`metrics`] keeps
//!   lock-cheap counters (per-tier answers, hit rates, latency quantiles,
//!   aggregated prune counters with the node identity
//!   `nodes + bound-pruned + dominance-pruned == searches + Ω` re-checked
//!   on the fleet totals).
//!
//! The `pipesched serve` and `pipesched batch` CLI subcommands are thin
//! wrappers over this crate.

pub mod batch;
pub mod cache;
pub mod canon;
pub mod engine;
pub mod metrics;
pub mod request;
pub mod serve;
pub mod slo;

pub use batch::{run_batch, summarize_responses, BatchSummary};

/// Serializes tests that toggle the process-global trace/flight switches
/// or reset the flight recorder, so concurrent tests in this binary never
/// observe them mid-flip.
#[cfg(test)]
pub(crate) fn flight_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
pub use cache::{CacheEntry, ScheduleCache};
pub use canon::{canonicalize, machine_fingerprint, CanonForm, CanonKey};
pub use engine::{Answer, Budget, EngineConfig, ServiceEngine, Tier};
pub use metrics::{LatencyHistogram, Metrics, SearchAggregate};
pub use pipesched_core::Backend;
pub use request::{error_json, parse_request, response_json, Request, Response};
pub use serve::{serve_stream, serve_tcp, ServeConfig};
