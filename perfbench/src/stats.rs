//! Order statistics, the seeded input order, and process memory.

/// Nearest rank of the `p`-th percentile of `n` samples (1-based), immune
/// to `p / 100` not being exact in binary.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for input orders, so
/// inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `0..n` in an order drawn from `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(10_000, 99.9), 10);
    }
}
