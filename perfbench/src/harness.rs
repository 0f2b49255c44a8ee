//! Closed-loop timed rounds, and the end-to-end report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{Failure, Failures};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, percentile, ratio, samples_beyond};

/// Set-ups timed before the measured phase, and after it in an end-to-end
/// run; `setup_s` is the median of them all. The host's other tenants slow
/// it down for stretches of seconds, so set-ups at both ends of the run
/// sample two stretches, not one.
pub const SETUPS_BEFORE: usize = 2;
/// See [`SETUPS_BEFORE`].
pub const SETUPS_AFTER: usize = 3;

/// Percentile of the units' latencies reported as the tail: p99, with 1% of
/// the inputs (41 to 160 samples) beyond it. A rarer percentile rests on a
/// handful of the longest units, which a slow stretch of the host hits
/// in every pass, and spread up to 0.27 of its median between runs.
pub const TAIL_PCT: f64 = 99.0;

/// How a unit's latency is taken from its complete rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum UnitCost {
    /// The fastest round: for units whose work is the same in every round.
    #[default]
    Fastest,
    /// The median round: for units whose work differs between rounds, as
    /// the pool splits a block differently each time.
    Median,
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One round of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Units run.
    pub units: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Peak resident memory of the process (MiB) once the round's results
    /// were handled.
    pub peak_rss_mb: f64,
}

/// A round's results by unit index: the unit's output, or why it failed.
pub type RoundResults<R> = Vec<(usize, Result<R, Failure>)>;

/// Run one closed-loop client per tracer over unit indices `0, 1, 2, …`,
/// in rounds of `round_units`, for `seconds` of summed round time and at
/// least until every index below `min_units` is done. Each client sends
/// its next unit only when its previous one returned. `unit` runs one index
/// on the client's tracer; a panic inside it comes back as `Err`. After
/// each round, `after` gets the round's results in index order, outside
/// the timed interval, so the answers held for checking stay bounded.
pub fn run_rounds<R: Send>(
    tracers: &mut [Tracer],
    seconds: f64,
    min_units: usize,
    round_units: usize,
    unit: &(dyn Fn(usize, &mut Tracer) -> R + Sync),
    after: &mut dyn FnMut(RoundResults<R>),
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut elapsed = 0.0;
    let mut next = 0usize;
    loop {
        let budget = seconds - elapsed;
        if budget <= 0.0 && next >= min_units {
            break;
        }
        let end = next + round_units;
        let counter = AtomicUsize::new(next);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(budget.max(0.0));
        let mut results: RoundResults<R> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .map(|tr| {
                    let counter = &counter;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = counter.fetch_add(1, Ordering::Relaxed);
                            if i >= end || (i >= min_units && Instant::now() >= deadline) {
                                break;
                            }
                            tr.set_unit(i as u64);
                            let r = catch_unwind(AssertUnwindSafe(|| unit(i, tr)));
                            out.push((i, r.map_err(|_| Failure::Error)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads catch unit panics"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        elapsed += secs;
        results.sort_by_key(|r| r.0);
        let ran = results.len();
        next = results.last().map_or(next, |r| r.0 + 1);
        after(results);
        rounds.push(Round {
            units: ran,
            secs,
            peak_rss_mb: peak_rss_mb(),
        });
        if ran < round_units && next >= min_units {
            break;
        }
    }
    rounds
}

/// Time `n` (at least one) set-ups, keep the last, and return it with the
/// seconds of each.
pub fn timed_setups<S>(n: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Everything a workload measured in an end-to-end run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Units per round: one pass over the workload's inputs, so every
    /// complete round does the same work.
    pub round_units: usize,
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// Wall-clock latency of each timed unit. Reserved up front, so the
    /// benchmark's own memory grows by 4 bytes per unit, not in doublings.
    pub latencies_ns: Vec<u32>,
    /// How a unit's latency is taken from its complete rounds.
    pub unit_cost: UnitCost,
    /// Answers whose NOPs and optimality count towards quality.
    pub quality_units: u64,
    /// Their summed NOPs.
    pub quality_nops: u64,
    /// Of them, answered provably optimal.
    pub quality_optimal: u64,
    /// Units attempted.
    pub attempted: u64,
    /// Failed units by reason.
    pub failures: Failures,
}

impl Outcome {
    /// An empty outcome of `clients` closed-loop clients over rounds of
    /// `round_units`, taking each unit's latency by `unit_cost`.
    pub fn new(clients: usize, round_units: usize, unit_cost: UnitCost) -> Self {
        Outcome {
            clients,
            round_units,
            unit_cost,
            latencies_ns: Vec::with_capacity(1 << 21),
            ..Outcome::default()
        }
    }

    /// Record a timed unit's latency.
    pub fn push_latency(&mut self, ns: u64) {
        self.latencies_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Record a checked answer's result.
    pub fn record(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = result {
            self.failures.add(f);
        }
    }

    /// Timed seconds.
    pub fn timed_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.secs).sum()
    }

    /// Latencies (ns) of each complete round, or of the whole timed part
    /// when no round completed.
    fn complete_rounds(&self) -> Vec<&[u32]> {
        let mut out = Vec::new();
        let mut offset = 0;
        let n = self.latencies_ns.len();
        for r in &self.rounds {
            // A failed unit has no latency, so its round is not complete.
            let end = (offset + r.units).min(n);
            if end - offset == self.round_units {
                out.push(&self.latencies_ns[offset..end]);
            }
            offset = end;
        }
        if out.is_empty() {
            out.push(&self.latencies_ns[..]);
        }
        out
    }

    /// Each unit's latency (µs), in run order: the fastest or the median
    /// ([`UnitCost`]) of the complete rounds at its position. Every complete
    /// round runs the same inputs in the same order, so a position is one
    /// input. The host's other tenants only ever slow a pass down, for
    /// seconds at a time, so the fastest pass is the steadiest estimate of
    /// what a unit of fixed work costs; a unit whose work varies takes its
    /// median pass, as its fastest is a lucky split.
    pub fn unit_latencies_us(&self) -> Vec<f64> {
        let rounds = self.complete_rounds();
        let len = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
        let mut column = Vec::with_capacity(rounds.len());
        (0..len)
            .map(|j| {
                column.clear();
                column.extend(rounds.iter().map(|r| f64::from(r[j])));
                let ns = match self.unit_cost {
                    UnitCost::Fastest => column.iter().copied().fold(f64::INFINITY, f64::min),
                    UnitCost::Median => median(&column),
                };
                ns / 1e3
            })
            .collect()
    }

    /// Units per second that the clients complete at the units' latencies
    /// ([`Outcome::unit_latencies_us`]): a closed loop of `clients` clients
    /// completes `clients ÷ mean latency` units per second.
    pub fn throughput(&self) -> f64 {
        let us = self.unit_latencies_us();
        let mean_s = ratio(us.iter().sum::<f64>(), us.len() as f64) / 1e6;
        ratio(self.clients as f64, mean_s)
    }

    /// Units per second of the clients' busy time, from every timed unit's
    /// own latency. Unlike [`Outcome::throughput`], it takes no fastest
    /// pass, so it suits a single traced pass.
    pub fn busy_throughput(&self) -> f64 {
        let busy_ns: f64 = self.latencies_ns.iter().map(|&ns| f64::from(ns)).sum();
        ratio(
            (self.clients * self.latencies_ns.len()) as f64,
            busy_ns / 1e9,
        )
    }

    /// Peak resident memory (MiB) over the set-up and the first round, one
    /// pass over the inputs. Later passes repeat the same inputs, and
    /// allocator fragmentation grows with their number, which depends on
    /// the host's speed rather than on the program.
    pub fn first_pass_rss_mb(&self) -> f64 {
        self.rounds
            .first()
            .map_or_else(peak_rss_mb, |r| r.peak_rss_mb)
    }

    /// End-to-end metrics, by name, with units. Throughput and the latency
    /// percentiles come from the units' latencies
    /// ([`Outcome::unit_latencies_us`]).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut us = self.unit_latencies_us();
        us.sort_by(f64::total_cmp);
        let failed = self.failures.total() as f64;
        vec![
            ("setup_s", self.setup_s, "s"),
            ("throughput_per_s", self.throughput(), "1/s"),
            ("latency_us_p50", percentile(&us, 50.0), "us"),
            ("latency_us_tail", percentile(&us, TAIL_PCT), "us"),
            (
                "nops_per_block",
                ratio(self.quality_nops as f64, self.quality_units as f64),
                "count",
            ),
            (
                "optimal_frac",
                ratio(self.quality_optimal as f64, self.quality_units as f64),
                "fraction",
            ),
            (
                "ok_frac",
                1.0 - ratio(failed, self.attempted as f64),
                "fraction",
            ),
            ("peak_rss_mb", self.first_pass_rss_mb(), "MiB"),
        ]
    }

    /// Human-readable lines: the rounds, the tail's percentile and sample
    /// counts, the failure share and its reasons.
    pub fn notes(&self) -> Vec<String> {
        let complete = self
            .rounds
            .iter()
            .filter(|r| r.units == self.round_units)
            .count();
        let mut out = vec![
            format!(
                "timed {:.3} s, {} units; each unit's latency is its {} of {} complete rounds of {} units",
                self.timed_s(),
                self.latencies_ns.len(),
                match self.unit_cost {
                    UnitCost::Fastest => "fastest",
                    UnitCost::Median => "median",
                },
                complete,
                self.round_units
            ),
            format!(
                "round throughputs (1/s): {}",
                self.rounds
                    .iter()
                    .map(|r| format!("{:.0}", ratio(r.units as f64, r.secs)))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "latency_us_tail is p{TAIL_PCT} of the units' latencies ({} samples beyond it)",
                samples_beyond(self.round_units, TAIL_PCT)
            ),
            format!(
                "failed_frac {} ({} of {} attempted)",
                ratio(self.failures.total() as f64, self.attempted as f64),
                self.failures.total(),
                self.attempted
            ),
        ];
        for (f, k) in &self.failures.kinds {
            out.push(format!("failed[{}] {}", f.name(), k));
        }
        out
    }
}

/// Size bucket of a block, following the paper's Fig 6 split.
pub fn bucket(size: usize) -> &'static str {
    match size {
        0..=16 => "core.bnb.us_p50.le16",
        17..=32 => "core.bnb.us_p50.17to32",
        _ => "core.bnb.us_p50.ge33",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_takes_its_fastest_or_median_complete_round() {
        let mut out = Outcome::new(2, 3, UnitCost::Fastest);
        // Three complete rounds of three units, then an incomplete one.
        for ns in [
            4_000, 1_000, 9_000, 2_000, 3_000, 5_000, 3_000, 2_000, 7_000, 1,
        ] {
            out.push_latency(ns);
        }
        for units in [3, 3, 3, 1] {
            out.rounds.push(Round {
                units,
                secs: 1.0,
                peak_rss_mb: 0.0,
            });
        }
        assert_eq!(out.unit_latencies_us(), vec![2.0, 1.0, 5.0]);
        // Two clients at a mean latency of 8/3 µs.
        assert!((out.throughput() - 2.0 / (8.0 / 3.0 / 1e6)).abs() < 1e-6);
        out.unit_cost = UnitCost::Median;
        assert_eq!(out.unit_latencies_us(), vec![3.0, 2.0, 7.0]);
    }
}
