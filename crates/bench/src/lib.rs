#![warn(missing_docs)]

//! Experiment harness for the `pipesched` reproduction.
//!
//! Every table and figure of the paper's evaluation (§2.3, §5) has a
//! regenerator here; the `repro` binary drives them and writes text + CSV
//! into a results directory. EXPERIMENTS.md records paper-vs-measured.
//!
//! | Paper artifact | Module | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (search-space pruning) | [`experiments::table1`] | `table1` |
//! | Table 7 (16,000-run summary) | [`experiments::sweep`] | `table7` |
//! | Figure 1 (Ω calls vs block size) | [`experiments::sweep`] | `fig1` |
//! | Figure 4 (initial/final NOPs) | [`experiments::sweep`] | `fig4` |
//! | Figure 5 (block-size distribution) | [`experiments::sweep`] | `fig5` |
//! | Figure 6 (runtime vs block size) | [`experiments::sweep`] | `fig6` |
//! | Figure 7 (% optimal vs block size) | [`experiments::sweep`] | `fig7` |
//! | Ablations (ours) | [`experiments::ablation`] | `ablation` |

pub mod alloc_count;
pub mod experiments;
pub mod ledger;
pub mod report;

pub use experiments::sweep::{run_sweep, RunRecord, SweepConfig, SweepResult};
