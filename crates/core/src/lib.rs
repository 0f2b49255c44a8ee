#![warn(missing_docs)]

//! The optimal pipeline scheduler of Nisar & Dietz (1990).
//!
//! This crate is the paper's primary contribution: a branch-and-bound
//! search over legal instruction orders of a basic block that finds the
//! schedule needing the **minimum number of NOPs** under a multiple-pipeline
//! machine model, pruned aggressively but without ever pruning the optimum
//! (§4.2), with a curtail point `λ` bounding worst-case work (§2.3).
//!
//! Layout:
//!
//! * [`context`] — per-block scheduling context (DAG + machine binding);
//! * [`timing`] — the incremental NOP-insertion algorithm (§4.2.2) with
//!   O(1) undo, the engine every search below shares;
//! * [`list_sched`] — the machine-independent list-scheduling heuristic that
//!   seeds the search with a good incumbent (§3.2);
//! * [`bnb`] — the pruned search procedure itself (§4.2.3), entered
//!   through one front door, [`run`]: a [`Run`] picks the serial kernel
//!   or the pool, a carried boundary, a proof sink and a per-depth
//!   profile, and a combination without meaning returns a [`RunError`];
//! * [`bounds`] — the paper's α-β bound plus an optional admissible
//!   critical-path strengthening (extension);
//! * [`dominance`] — the history-based dominance table the strengthened
//!   bound's searches keep past their switch-on (extension);
//! * [`baselines`] — exhaustive search, legality-only-pruned search, and a
//!   Gross-style greedy scheduler, used by the paper's Table 1 comparison;
//! * [`parallel`] — the work-stealing pool [`run`] uses for
//!   `Run::parallel` (extension), sharing an atomic incumbent across
//!   threads and merging per-subtree certificate parts;
//! * [`profile`] — per-depth search profiling (nodes, prune counts, time),
//!   attached through `Run::profile` like the proof logger;
//! * [`windowed`] — §5.3's future-work feature: locally-optimal scheduling
//!   of very large blocks by partitioning the list schedule into windows,
//!   each searched by the [`bnb`] kernel;
//! * [`sequence`] — footnote 1's block-interaction machinery: scheduling a
//!   straight-line sequence of blocks with pipeline state carried across
//!   each boundary;
//! * [`seed`] — the shared search prologue (heuristic incumbent + global
//!   lower bound) every exact backend starts from;
//! * [`proof`] — recording-side types for machine-checkable optimality
//!   certificates (the independent checker lives in `pipesched-proof`);
//! * [`api`] — the high-level [`Scheduler`](api::Scheduler) facade.

pub mod api;
pub mod baselines;
pub mod bnb;
pub mod bounds;
pub mod context;
pub mod dominance;
pub mod list_sched;
pub mod parallel;
pub mod profile;
pub mod proof;
pub mod seed;
pub mod sequence;
pub mod timing;
pub mod windowed;

pub use api::{Backend, Scheduler};
pub use bnb::{
    prove, run, search, BoundKind, EquivalenceMode, InitialHeuristic, Run, RunError, SearchConfig,
    SearchOutcome, SearchStats,
};
pub use bounds::global_lower_bound;
pub use context::SchedContext;
pub use list_sched::list_schedule;
pub use parallel::{parallel_prove, parallel_search, ParallelConfig, ParallelProof};
pub use profile::{DepthStats, SearchProfile};
pub use proof::{
    trailer_for, Certificate, CertificateHeader, CertificateTrailer, ProofEvent, ProofLogger,
    ProofOutput,
};
pub use seed::{seed_incumbent, SearchSeed};
pub use sequence::{schedule_sequence, ScheduledRegion, SequenceOutcome};
pub use timing::{BoundaryState, TimingEngine};
pub use windowed::{windowed_schedule, windowed_schedule_bounded, WindowedOutcome};
