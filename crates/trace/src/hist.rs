//! Log₂-bucketed latency histogram with an exact sparse tail — the one
//! latency type behind the service's `/metrics` and `/slo` and the flight
//! recorder's outlier trigger.
//!
//! Every counter is a relaxed atomic, so recording never takes a lock
//! below the tail floor. Latency lands in a fixed log₂-bucketed histogram
//! (1 µs … ~17 min), from which quantiles are estimated at dump time by
//! midpoint interpolation inside the winning bucket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const BUCKETS: usize = 30; // bucket b covers [2^b, 2^(b+1)) microseconds

/// Observations at or above this land in the sparse exact tail as well as
/// their log₂ bucket, so tail quantiles (p99, p99.9) and SLO burn-rate
/// math answer exact values instead of bucket midpoints. 8192 µs is the
/// floor of bucket 13 — cheap requests (the overwhelming majority) never
/// touch the tail's mutex.
pub const TAIL_FLOOR_MICROS: u64 = 8_192;

/// Log₂-bucketed latency histogram over microseconds, with a sparse
/// high-resolution tail: every observation ≥ [`TAIL_FLOOR_MICROS`] is
/// also counted exactly, so quantiles that land in the tail are exact.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    /// Exact value → count for observations ≥ [`TAIL_FLOOR_MICROS`].
    /// Slow requests are rare by definition, so this mutex is cold.
    tail: Mutex<BTreeMap<u64, u64>>,
}

impl LatencyHistogram {
    /// An empty histogram; `const`, so a `static` can hold one.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            tail: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one observation.
    pub fn record(&self, micros: u64) {
        let b = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        if micros >= TAIL_FLOOR_MICROS {
            let mut tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
            *tail.entry(micros).or_insert(0) += 1;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Estimated `q`-quantile (0 < q ≤ 1) in microseconds. The rank-`r`
    /// observation is placed at the midpoint of its 1/c share of the
    /// winning bucket (`(r − seen − ½)/c` of the way through), so a
    /// single-observation bucket answers its middle rather than its upper
    /// edge — the upper-edge answer overstated p50/p99 by up to 2×.
    /// Returns 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let tail_bucket = TAIL_FLOOR_MICROS.trailing_zeros() as usize;
        let below_tail: u64 = self.buckets[..tail_bucket]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        if rank > below_tail {
            // The rank lands in the tail: answer the exact observation.
            let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
            let mut seen = below_tail;
            for (&micros, &c) in tail.iter() {
                seen += c;
                if seen >= rank {
                    return micros;
                }
            }
            // A concurrent record() bumped a bucket before its tail entry
            // landed; fall through to the bucket estimate.
        }
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if seen + c >= rank {
                let lo = 1u64 << b;
                let width = lo; // bucket spans [lo, 2*lo)
                let into = ((rank - seen) as f64 - 0.5) / c.max(1) as f64;
                return lo + (width as f64 * into) as u64;
            }
            seen += c;
        }
        1u64 << (BUCKETS - 1)
    }

    /// Observations at or below `micros`: exact above the tail floor,
    /// linearly prorated inside the one straddled log₂ bucket below it.
    /// This is the SLO burn-rate numerator — "how many requests met the
    /// objective" — so tail exactness matters more than bucket exactness
    /// (objectives sit near the tail by construction).
    pub fn count_at_or_below(&self, micros: u64) -> u64 {
        if micros >= TAIL_FLOOR_MICROS {
            let tail_bucket = TAIL_FLOOR_MICROS.trailing_zeros() as usize;
            let below_tail: u64 = self.buckets[..tail_bucket]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum();
            let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
            let in_tail: u64 = tail.range(..=micros).map(|(_, &c)| c).sum();
            return below_tail + in_tail;
        }
        let cut = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        let mut below: u64 = self.buckets[..cut]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        let straddled = self.buckets[cut].load(Ordering::Relaxed);
        let lo = 1u64 << cut;
        let frac = (micros - lo + 1) as f64 / lo as f64;
        below += (straddled as f64 * frac) as u64;
        below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for micros in [10u64, 20, 30, 40, 1000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_micros(0.5);
        assert!((16..64).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_micros(0.99);
        assert!((512..2048).contains(&p99), "p99 = {p99}");
        assert_eq!(h.mean_micros(), (10 + 20 + 30 + 40 + 1000) / 5);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn interpolated_quantiles_track_exact_quantiles() {
        // Uniform 1..=1000 µs: exact p50 = 500, p90 = 900, p99 = 990.
        // A log₂ histogram cannot be exact, but midpoint interpolation
        // must land within a few percent; the old upper-edge answer gave
        // p50 = 512..768-ish errors up to 2×.
        let h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 500.0), (0.90, 900.0), (0.99, 990.0)] {
            let est = h.quantile_micros(q) as f64;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.05, "q={q}: est {est} vs exact {exact} ({err:.3})");
        }
        // Monotone in q.
        assert!(h.quantile_micros(0.5) <= h.quantile_micros(0.9));
        assert!(h.quantile_micros(0.9) <= h.quantile_micros(0.99));
    }

    #[test]
    fn tail_quantiles_are_exact_above_the_floor() {
        // Uniform 1..=10000 µs: every observation ≥ 8192 also lands in
        // the exact tail, so p99/p99.9 must be *exact*, not bucket
        // midpoints — bucket 13 alone spans 8192..16384 µs, a 2× smear.
        let h = LatencyHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_micros(0.99), 9_900);
        assert_eq!(h.quantile_micros(0.999), 9_990);
        assert_eq!(h.quantile_micros(1.0), 10_000);
        // Below the tail floor the estimate stays interpolated.
        let p50 = h.quantile_micros(0.50);
        assert!((est_err(p50, 5_000.0)) < 0.05, "p50 = {p50}");
    }

    fn est_err(est: u64, exact: f64) -> f64 {
        (est as f64 - exact).abs() / exact
    }

    #[test]
    fn count_at_or_below_is_exact_in_the_tail_and_prorated_below() {
        let h = LatencyHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Above the floor: exact.
        assert_eq!(h.count_at_or_below(9_500), 9_500);
        assert_eq!(h.count_at_or_below(TAIL_FLOOR_MICROS), TAIL_FLOOR_MICROS);
        assert_eq!(h.count_at_or_below(1_000_000), 10_000);
        // Below the floor: prorated within the straddled bucket — exact
        // here because the data is uniform.
        assert_eq!(h.count_at_or_below(4), 4);
        assert_eq!(h.count_at_or_below(1_000), 1_000);
        // Monotone in the threshold.
        let mut last = 0;
        for t in [1u64, 10, 100, 1_000, 8_000, 8_192, 9_000, 20_000] {
            let c = h.count_at_or_below(t);
            assert!(c >= last, "count_at_or_below not monotone at {t}");
            last = c;
        }
    }

    #[test]
    fn single_observation_answers_its_own_bucket_midpoint() {
        let h = LatencyHistogram::default();
        h.record(300); // bucket [256, 512)
        let p50 = h.quantile_micros(0.5);
        assert!((256..512).contains(&p50), "p50 = {p50}");
        // Midpoint, not upper edge.
        assert_eq!(p50, 256 + 128);
    }
}
