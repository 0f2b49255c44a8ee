//! History-based dominance (an extension; not in the paper).
//!
//! Two prefixes that place the same set of instructions have the same
//! completions, and what a completion costs depends only on the prefix's
//! *state*. With `t` the issue cycle of the prefix's last instruction:
//!
//! * `t` itself;
//! * per pipeline some unplaced instruction may run on:
//!   `max(last enqueue + enqueue, t + 1)`, counting the state a carried
//!   boundary leaves in the pipe;
//! * per placed producer with an unplaced **flow** consumer:
//!   `max(issue + latency of its unit, t + 1)`.
//!
//! Anti and output edges, and producers with no unit, delay a consumer by
//! one cycle, which `t + 1` covers. Every slot is determined by the placed
//! set, so two prefixes of one set have the same slots.
//!
//! **Lemma.** Take prefixes A and B of one set whose states satisfy
//! A ≤ B in every slot. Along any completion C, each instruction of C
//! issues under A no later than under B: its issue cycle is a maximum of
//! slots the state holds, and placing it keeps the new state ordered
//! (induction over C). Since μ = t_last + 1 − n, μ(A·C) ≤ μ(B·C).
//!
//! **Rule.** A prefix is *closed* when its subtree returned with no stop
//! (λ, deadline, proved-by-bound or a pool stop). Then every completion
//! of it has μ at least the incumbent of that moment, which is at least
//! the incumbent now; so a prefix B whose set and state a closed A
//! dominates holds no strict improvement, and the kernel prunes it. The
//! improvements the search finds are the same ones, in the same order, so
//! a search that completes keeps its schedule, and a λ-truncated one can
//! only get further.
//!
//! The kernel keeps the closed prefixes in a `Dominance` table, keyed by
//! a Zobrist hash of the placed set and compared against the exact set:
//! a hash match alone never prunes. The table is built only once a search
//! has run [`crate::SearchConfig::switch_on`] Ω, from the prefix of that
//! moment; before, a placement pays one comparison. A lookup builds the
//! candidate's state only when its set already has entries, each set
//! keeps at most [`PER_SET`] entries as an antichain, and the table stops
//! storing at [`DOMINANCE_BYTES`]. Each of these loses prunes, never
//! soundness.

use pipesched_ir::TupleId;

use crate::context::SchedContext;
use crate::timing::TimingEngine;

/// Bytes one search's table may hold: set keys, states and the hash
/// index. At the cap the table stops storing new sets. The largest table
/// a search of the 16,000-block corpus builds (λ = 50,000) holds 179 KiB,
/// so the cap only binds on far larger searches.
pub const DOMINANCE_BYTES: usize = 4 << 20;

/// Entries one placed set keeps. A closed prefix dominated by a kept
/// entry is not stored, and a new entry replaces the entries it
/// dominates; past `PER_SET` it replaces the oldest. A bounded scan keeps
/// a lookup's cost flat on the blocks whose sets collect many
/// incomparable states.
pub const PER_SET: usize = 4;

/// Largest slack a state slot holds in a byte: an issue cycle is at most
/// `t`, so a slot's slack over `t + 1` stays below the machine's largest
/// latency or enqueue time. A machine with a larger one keeps no table.
const MAX_SLACK: u32 = u8::MAX as u32;

/// The state of one prefix: `t` and each slot's slack above `t + 1`.
/// Only prefixes of one placed set compare, slot by slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominanceState {
    t: i64,
    slack: Vec<u8>,
}

impl DominanceState {
    /// The state of `engine`'s partial schedule, as a search with pipeline
    /// `selection` compares it.
    pub fn of(ctx: &SchedContext<'_>, engine: &TimingEngine<'_, '_>, selection: bool) -> Self {
        let shape = Shape::new(ctx, selection);
        let mut placed = vec![0u64; shape.words];
        for t in ctx.block.ids() {
            if engine.issue_time(t).is_some() {
                placed[t.index() / 64] |= 1 << (t.index() % 64);
            }
        }
        let mut slack = Vec::new();
        let t = shape.state(ctx, engine, &placed, &mut slack);
        DominanceState { t, slack }
    }

    /// True when this state is at most `other` in every slot (both must
    /// belong to prefixes of one placed set).
    pub fn at_most(&self, other: &DominanceState) -> bool {
        self.slack.len() == other.slack.len() && le(self.t, &self.slack, other.t, &other.slack)
    }
}

/// `(ta, a) ≤ (tb, b)` slot by slot: `ta ≤ tb` and `ta + a[i] ≤ tb + b[i]`.
#[inline]
fn le(ta: i64, a: &[u8], tb: i64, b: &[u8]) -> bool {
    let d = tb - ta;
    if d < 0 {
        return false;
    }
    if d >= i64::from(u8::MAX) {
        return true;
    }
    let d = d as u8;
    a.iter().zip(b).all(|(&x, &y)| x <= y.saturating_add(d))
}

/// What the state of a prefix reads from the block: which tuples may run
/// on each pipe, and each tuple's flow consumers, as bit masks.
struct Shape {
    words: usize,
    /// `uses[p * words..]`: tuples that may run on pipe `p`.
    uses: Vec<u64>,
    /// `consumers[u * words..]`: flow consumers of `u` (empty when `u`
    /// has no unit, whose value is ready a cycle after it issues).
    consumers: Vec<u64>,
}

impl Shape {
    fn new(ctx: &SchedContext<'_>, selection: bool) -> Self {
        let n = ctx.len();
        let words = n.div_ceil(64).max(1);
        let pipes = ctx.machine.pipeline_count();
        let mut uses = vec![0u64; pipes * words];
        let mut consumers = vec![0u64; n * words];
        for t in ctx.block.ids() {
            let (i, bit) = (t.index(), 1u64 << (t.index() % 64));
            let units: &[_] = if selection {
                &ctx.allowed[i]
            } else {
                ctx.sigma[i].as_slice()
            };
            for p in units {
                uses[p.index() * words + i / 64] |= bit;
            }
            if ctx.allowed[i].is_empty() {
                continue;
            }
            for e in ctx.dag.succs(t) {
                if e.kind == pipesched_ir::DepKind::Flow {
                    let to = e.to.index();
                    consumers[i * words + to / 64] |= 1 << (to % 64);
                }
            }
        }
        Shape {
            words,
            uses,
            consumers,
        }
    }

    /// True when `mask` has a member outside `placed`.
    #[inline]
    fn open(mask: &[u64], placed: &[u64]) -> bool {
        mask.iter().zip(placed).any(|(&m, &p)| m & !p != 0)
    }

    /// Write the slacks of `engine`'s prefix, whose placed set is
    /// `placed`, into `slack` and return `t`.
    fn state(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        placed: &[u64],
        slack: &mut Vec<u8>,
    ) -> i64 {
        let w = self.words;
        let t = i64::from(engine.total_nops()) + engine.placed() as i64 - 1;
        let over = |x: i64| (x - (t + 1)).clamp(0, i64::from(MAX_SLACK)) as u8;
        slack.clear();
        for (p, mask) in self.uses.chunks_exact(w).enumerate() {
            if Self::open(mask, placed) {
                let free = engine.pipe_free(Some(pipesched_machine::PipelineId(p as u32)));
                slack.push(over(free));
            }
        }
        for (k, &word) in placed.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if Self::open(&self.consumers[u * w..(u + 1) * w], placed) {
                    let at = TupleId(u as u32);
                    let issue = engine.issue_time(at).expect("a placed tuple has issued");
                    let latency = engine
                        .assigned_pipeline(at)
                        .map_or(1, |p| i64::from(ctx.latency(p)));
                    slack.push(over(issue + latency));
                }
            }
        }
        t
    }
}

/// One placed set's record: its hash, where its key and entries live.
struct SetRec {
    hash: u64,
    /// Slots per state.
    width: usize,
    /// Entries kept, at most [`PER_SET`].
    len: usize,
    /// The entry the next store past [`PER_SET`] replaces.
    oldest: usize,
}

/// One kept state: `t`, the node that closed with it (the witness a
/// certificate cites) and, in `Table::slacks`, its slots.
#[derive(Clone, Copy, Default)]
struct Entry {
    t: i64,
    node: u64,
}

/// The table proper, built when a search crosses the switch-on.
struct Table {
    shape: Shape,
    zobrist: Vec<u64>,
    /// The current prefix's placed set and its hash.
    placed: Vec<u64>,
    hash: u64,
    /// Open-addressing index: set id + 1, 0 empty.
    index: Vec<u32>,
    sets: Vec<SetRec>,
    /// `keys[s * words..]`: set `s`'s placed set.
    keys: Vec<u64>,
    /// `entries[s * PER_SET..]` and `slacks[s * PER_SET * width..]`: set
    /// `s`'s states; a set's slacks start at `slack_at[s]`.
    entries: Vec<Entry>,
    slack_at: Vec<usize>,
    slacks: Vec<u8>,
    /// The candidate's state, built on demand.
    scratch: Vec<u8>,
    bytes: usize,
}

/// splitmix64: the Zobrist value of tuple `i`.
fn zobrist(i: u64) -> u64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Table {
    fn new(ctx: &SchedContext<'_>, selection: bool) -> Self {
        let shape = Shape::new(ctx, selection);
        let words = shape.words;
        Table {
            zobrist: (0..ctx.len() as u64).map(zobrist).collect(),
            placed: vec![0; words],
            hash: 0,
            index: vec![0; 1024],
            sets: Vec::new(),
            keys: Vec::new(),
            entries: Vec::new(),
            slack_at: Vec::new(),
            slacks: Vec::new(),
            scratch: Vec::new(),
            bytes: 1024 * 4 + (shape.uses.len() + shape.consumers.len()) * 8,
            shape,
        }
    }

    fn flip(&mut self, t: TupleId) {
        let i = t.index();
        self.placed[i / 64] ^= 1 << (i % 64);
        self.hash ^= self.zobrist[i];
    }

    fn sync(&mut self, prefix: &[TupleId]) {
        self.placed.fill(0);
        self.hash = 0;
        for &t in prefix {
            self.flip(t);
        }
    }

    /// The set id of the current placed set, if it has one.
    fn find(&self) -> Option<usize> {
        let w = self.shape.words;
        let mask = self.index.len() - 1;
        let mut i = self.hash as usize & mask;
        loop {
            let s = self.index[i].checked_sub(1)? as usize;
            if self.sets[s].hash == self.hash && self.keys[s * w..(s + 1) * w] == self.placed[..] {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Add the current placed set with states of `width` slots; `None`
    /// at the byte cap.
    fn insert(&mut self, width: usize) -> Option<usize> {
        let w = self.shape.words;
        let grow = 2 * (self.sets.len() + 1) > self.index.len();
        let cost = w * 8
            + PER_SET * (std::mem::size_of::<Entry>() + width)
            + std::mem::size_of::<SetRec>()
            + std::mem::size_of::<usize>()
            + if grow { self.index.len() * 4 } else { 0 };
        if self.bytes + cost > DOMINANCE_BYTES {
            return None;
        }
        self.bytes += cost;
        if grow {
            self.index = vec![0; self.index.len() * 2];
            for (s, rec) in self.sets.iter().enumerate() {
                Self::place(&mut self.index, rec.hash, s);
            }
        }
        let s = self.sets.len();
        Self::place(&mut self.index, self.hash, s);
        self.sets.push(SetRec {
            hash: self.hash,
            width,
            len: 0,
            oldest: 0,
        });
        self.keys.extend_from_slice(&self.placed);
        self.entries
            .extend(std::iter::repeat_n(Entry::default(), PER_SET));
        self.slack_at.push(self.slacks.len());
        self.slacks.extend(std::iter::repeat_n(0, PER_SET * width));
        Some(s)
    }

    fn place(index: &mut [u32], hash: u64, s: usize) {
        let mask = index.len() - 1;
        let mut i = hash as usize & mask;
        while index[i] != 0 {
            i = (i + 1) & mask;
        }
        index[i] = s as u32 + 1;
    }

    /// Entry `k` of set `s`: its record and slots.
    fn entry(&self, s: usize, k: usize) -> (Entry, &[u8]) {
        let width = self.sets[s].width;
        let at = self.slack_at[s] + k * width;
        (self.entries[s * PER_SET + k], &self.slacks[at..at + width])
    }

    /// A kept entry of the current set at most `(t, scratch)`.
    fn witness(&self, s: usize, t: i64) -> Option<u64> {
        (0..self.sets[s].len).find_map(|k| {
            let (e, slack) = self.entry(s, k);
            le(e.t, slack, t, &self.scratch).then_some(e.node)
        })
    }
}

/// A search's dominance table: empty (and allocation-free) until the
/// search crosses the switch-on. The pool keeps one per worker across its
/// tasks; a pooled proof's phase 2 starts each part with a fresh one.
#[derive(Default)]
pub(crate) struct Dominance {
    table: Option<Box<Table>>,
}

impl Dominance {
    /// True once the table is built.
    #[inline]
    pub(crate) fn built(&self) -> bool {
        self.table.is_some()
    }

    /// Build the table with `prefix` as the current prefix. A machine
    /// whose latency or enqueue time does not fit a slot keeps none.
    #[cold]
    pub(crate) fn build(&mut self, ctx: &SchedContext<'_>, selection: bool, prefix: &[TupleId]) {
        let fits = ctx
            .pipe_latency
            .iter()
            .chain(&ctx.pipe_enqueue)
            .all(|&c| c <= MAX_SLACK + 1);
        if fits {
            let mut table = Box::new(Table::new(ctx, selection));
            table.sync(prefix);
            self.table = Some(table);
        }
    }

    /// Make `prefix` the current prefix of a built table (a pool task's
    /// start).
    pub(crate) fn sync(&mut self, prefix: &[TupleId]) {
        if let Some(table) = &mut self.table {
            table.sync(prefix);
        }
    }

    /// Add `t` to (or, placed, remove it from) the current prefix.
    #[inline]
    pub(crate) fn flip(&mut self, t: TupleId) {
        if let Some(table) = &mut self.table {
            table.flip(t);
        }
    }

    /// The node of a closed prefix that dominates `engine`'s, whose placed
    /// set is the current prefix's. The state is built only when the set
    /// has entries.
    pub(crate) fn dominated(
        &mut self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
    ) -> Option<u64> {
        let table = self.table.as_mut()?;
        let s = table.find()?;
        if table.sets[s].len == 0 {
            return None;
        }
        let mut scratch = std::mem::take(&mut table.scratch);
        let t = table.shape.state(ctx, engine, &table.placed, &mut scratch);
        table.scratch = scratch;
        table.witness(s, t)
    }

    /// Store `engine`'s prefix, closed as `node`, whose placed set is the
    /// current prefix's.
    pub(crate) fn store(
        &mut self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        node: u64,
    ) {
        let Some(table) = self.table.as_mut() else {
            return;
        };
        let mut scratch = std::mem::take(&mut table.scratch);
        let t = table.shape.state(ctx, engine, &table.placed, &mut scratch);
        table.scratch = scratch;
        let Some(s) = table.find().or_else(|| table.insert(table.scratch.len())) else {
            return;
        };
        if table.witness(s, t).is_some() {
            return;
        }
        // Drop the entries the new state dominates, keeping the rest
        // packed at the front.
        let width = table.sets[s].width;
        let base = table.slack_at[s];
        let mut k = 0;
        while k < table.sets[s].len {
            let (e, slack) = table.entry(s, k);
            if le(t, &table.scratch, e.t, slack) {
                let last = table.sets[s].len - 1;
                table.entries[s * PER_SET + k] = table.entries[s * PER_SET + last];
                table.slacks.copy_within(
                    base + last * width..base + (last + 1) * width,
                    base + k * width,
                );
                table.sets[s].len = last;
            } else {
                k += 1;
            }
        }
        let rec = &mut table.sets[s];
        let k = if rec.len < PER_SET {
            rec.len += 1;
            rec.len - 1
        } else {
            let k = rec.oldest;
            rec.oldest = (rec.oldest + 1) % PER_SET;
            k
        };
        table.entries[s * PER_SET + k] = Entry { t, node };
        table.slacks[base + k * width..base + (k + 1) * width].copy_from_slice(&table.scratch);
    }
}
