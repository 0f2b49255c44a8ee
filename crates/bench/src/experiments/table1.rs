//! Table 1: search-space size for representative example blocks under the
//! three search regimes — exhaustive (`n!`), legality-only pruning, and the
//! proposed pruning.

use pipesched_core::baselines::{enumerate_legal, exhaustive_calls_approx};
use pipesched_core::{search, SchedContext, SearchConfig};
use pipesched_ir::DepDag;
use pipesched_machine::presets;

use crate::experiments::blocks::block_of_size;
use crate::report::{sci, TextTable};

/// The block sizes of the paper's Table 1, in order (13 and 16 appear
/// multiple times with different blocks).
pub const PAPER_SIZES: [usize; 11] = [8, 11, 13, 13, 14, 16, 16, 16, 20, 21, 22];

/// Cap on the legality-only enumeration, matching the paper's
/// `>9,999,000` entry.
pub const LEGALITY_CAP: u64 = 9_999_000;

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Instructions in the block.
    pub size: usize,
    /// `n!` (approximate for display).
    pub exhaustive: f64,
    /// Complete legal schedules (capped at [`LEGALITY_CAP`]).
    pub legality_calls: u64,
    /// True when the legality enumeration hit the cap.
    pub legality_capped: bool,
    /// Ω calls of the paper-exact proposed search (plain α-β, rule \[5c\]),
    /// capped at [`LEGALITY_CAP`].
    pub paper_calls: u64,
    /// True when the paper-exact search completed within the cap.
    pub paper_optimal: bool,
    /// Ω calls of the library-default search (critical-path bound +
    /// lower-bound termination). Zero means the initial list schedule was
    /// proven optimal without any search.
    pub proposed_calls: u64,
    /// True when the proposed search completed (it should).
    pub proposed_optimal: bool,
}

/// Compute Table 1 for the paper's row sizes.
pub fn run() -> Vec<Table1Row> {
    run_for_sizes(&PAPER_SIZES)
}

/// Compute Table 1 rows for arbitrary sizes. Rows with the same size get
/// different representative blocks (salted by their index).
pub fn run_for_sizes(sizes: &[usize]) -> Vec<Table1Row> {
    let machine = presets::paper_simulation();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let block = block_of_size(size, i as u64 + 1);
            let dag = DepDag::build(&block);
            let ctx = SchedContext::new(&block, &dag, &machine);

            let legality = enumerate_legal(&ctx, LEGALITY_CAP);
            let paper = search(
                &ctx,
                &SearchConfig {
                    lambda: LEGALITY_CAP,
                    ..SearchConfig::paper_exact()
                },
            );
            let proposed = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
            if paper.optimal {
                assert_eq!(
                    paper.nops, proposed.nops,
                    "bound strengthening changed the optimum"
                );
            }
            debug_assert!(
                !legality.truncated || proposed.nops <= legality.best_nops,
                "proposed search must match or beat the capped enumeration"
            );
            if !legality.truncated {
                assert_eq!(
                    proposed.nops, legality.best_nops,
                    "proposed pruning lost the optimum on a size-{size} block"
                );
            }

            Table1Row {
                size,
                exhaustive: exhaustive_calls_approx(size),
                legality_calls: legality.omega_calls,
                legality_capped: legality.truncated,
                paper_calls: paper.stats.omega_calls,
                paper_optimal: paper.optimal,
                proposed_calls: proposed.stats.omega_calls,
                proposed_optimal: proposed.optimal,
            }
        })
        .collect()
}

/// Render rows in the paper's Table 1 layout.
pub fn render(rows: &[Table1Row]) -> TextTable {
    let mut t = TextTable::new([
        "Instructions In Block",
        "Exhaustive Search Calls",
        "Pruning Illegal Calls",
        "Paper Pruning Calls",
        "Proposed (+CP bound) Calls",
    ]);
    for r in rows {
        t.row([
            r.size.to_string(),
            sci(r.exhaustive),
            if r.legality_capped {
                format!(">{}", r.legality_calls)
            } else {
                r.legality_calls.to_string()
            },
            if r.paper_optimal {
                r.paper_calls.to_string()
            } else {
                format!(">{}", r.paper_calls)
            },
            r.proposed_calls.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_hierarchy_holds() {
        // Run a reduced set of sizes to keep the test fast; the shape must
        // match the paper: proposed ≪ legality-only ≪ n!.
        let rows = run_for_sizes(&[8, 11, 13]);
        for r in &rows {
            assert!(r.proposed_optimal, "size {} truncated", r.size);
            assert!(
                (r.legality_calls as f64) < r.exhaustive,
                "legality pruning must beat n! at size {}",
                r.size
            );
            // The proposed search counts incremental placements, the
            // legality baseline complete schedules; the aggregate claim is
            // orders of magnitude, checked loosely per-row.
            assert!(
                (r.proposed_calls as f64) < r.exhaustive / 100.0,
                "proposed pruning barely beats n! at size {}",
                r.size
            );
        }
    }

    #[test]
    fn render_matches_paper_format() {
        let rows = run_for_sizes(&[8]);
        let table = render(&rows);
        let text = table.render();
        assert!(text.contains("Paper Pruning Calls"));
        assert!(text.contains("40320"));
    }
}
