//! Per-depth search profiling.
//!
//! A [`SearchProfile`] breaks a serial run's nodes, Ω calls and prunes
//! (one column per [`Prune`] rule) down by search-tree depth and adds
//! inclusive wall time per depth, answering *where* the branch-and-bound
//! spends its work. Complete schedules and improvements stay whole-run
//! counts.
//!
//! The kernel fills a profile at one site, the wrapper around each `dfs`
//! call: it charges what the run's [`SearchStats`] gained during the call
//! to the call's depth (see `SearchProfile::charge`), so no counter
//! bump in the kernel touches the profile. Whether a run profiles is
//! decided at compile time: plain [`crate::search`] carries no profile
//! code and never reads the clock for one.

use crate::bnb::{Prune, SearchStats};

/// Counters for one search-tree depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthStats {
    /// Nodes visited at this depth (prefix length = depth).
    pub nodes: u64,
    /// Ω calls made while extending prefixes of this length.
    pub omega_calls: u64,
    /// Candidates and placements pruned while extending prefixes of this
    /// length, by rule: `pruned[rule as usize]` for each [`Prune`].
    pub pruned: [u64; Prune::ALL.len()],
    /// Inclusive wall time spent in `dfs` calls at this depth, ns. A
    /// depth-`d+1` call nests in exactly one depth-`d` call, so
    /// `time_ns` is monotonically nonincreasing in `d`.
    pub time_ns: u64,
}

impl DepthStats {
    /// Add `sign` (1, or −1 as a wrapping `u64`) times what the node, Ω
    /// and prune counters gained from `before` to `after`.
    fn add_gain(&mut self, before: &SearchStats, after: &SearchStats, sign: u64) {
        let add = |slot: &mut u64, after: u64, before: u64| {
            *slot = slot.wrapping_add((after - before).wrapping_mul(sign));
        };
        add(&mut self.nodes, after.nodes_visited, before.nodes_visited);
        add(&mut self.omega_calls, after.omega_calls, before.omega_calls);
        for (slot, rule) in self.pruned.iter_mut().zip(Prune::ALL) {
            add(slot, after.pruned(rule), before.pruned(rule));
        }
    }
}

/// Per-depth breakdown of one branch-and-bound run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Stats indexed by depth; grown on demand, so `depths.len()` is one
    /// more than the deepest prefix the search committed.
    pub depths: Vec<DepthStats>,
}

impl SearchProfile {
    /// Empty profile, ready to attach to a search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one `dfs` call at `depth`, which took `time_ns` while the
    /// run's counters went from `before` to `after`. The gain goes to
    /// `depth` and comes back off `depth - 1`, whose call is still open
    /// and charges it again when it returns (its counts may wrap below
    /// zero until then), so each depth keeps exactly its own calls'
    /// nodes, Ω and prunes. A profiled run starts at depth 0.
    pub(crate) fn charge(
        &mut self,
        depth: usize,
        before: &SearchStats,
        after: &SearchStats,
        time_ns: u64,
    ) {
        if depth >= self.depths.len() {
            self.depths.resize(depth + 1, DepthStats::default());
        }
        let own = &mut self.depths[depth];
        own.time_ns += time_ns;
        own.add_gain(before, after, 1);
        if let Some(enclosing) = depth.checked_sub(1) {
            self.depths[enclosing].add_gain(before, after, u64::MAX);
        }
    }

    /// Total nodes across depths; equals the run's
    /// [`crate::SearchStats::nodes_visited`].
    pub fn total_nodes(&self) -> u64 {
        self.depths.iter().map(|d| d.nodes).sum()
    }

    /// *Self* time of a depth: its inclusive time minus the inclusive time
    /// of the next depth (every depth-`d+1` call nests in a depth-`d`
    /// call, so the difference is the time spent at exactly this level).
    pub fn self_time_ns(&self, depth: usize) -> u64 {
        let own = self.depths.get(depth).map_or(0, |d| d.time_ns);
        let nested = self.depths.get(depth + 1).map_or(0, |d| d.time_ns);
        own.saturating_sub(nested)
    }

    /// The per-depth counters as trace points `(name, depth, value)`:
    /// `bnb_depth_nodes`, `bnb_depth_omega` and `bnb_depth_pruned_bound`
    /// for each depth, so every emitter names them the same way.
    pub fn points(&self) -> impl Iterator<Item = (&'static str, usize, u64)> + '_ {
        let bound = Prune::Bound as usize;
        self.depths.iter().enumerate().flat_map(move |(depth, d)| {
            [
                ("bnb_depth_nodes", depth, d.nodes),
                ("bnb_depth_omega", depth, d.omega_calls),
                ("bnb_depth_pruned_bound", depth, d.pruned[bound]),
            ]
        })
    }
}
