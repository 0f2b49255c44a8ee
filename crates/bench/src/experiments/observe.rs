//! Observability-overhead experiment: what does the tracing layer cost?
//!
//! The tentpole claim of the trace crate is that the *disabled* path is
//! free enough to leave compiled in everywhere. This experiment replays
//! the repeated-shapes serving workload (same generator as the `serve`
//! experiment) through a fresh engine three ways per repetition —
//! disabled, disabled again back to back, and with tracing enabled — and
//! takes minima, mirroring the interleaved-min methodology of the `prove`
//! experiment. The delta between the two disabled passes bounds the
//! disabled-path cost plus measurement noise (gate: < 2%); the enabled
//! pass prices what turning tracing on actually buys.
//!
//! A separate metrics pass (tracing off) collects the fleet-wide view:
//! latency quantiles from the service histogram, per-tier answer and Ω
//! counts, and the aggregated
//! `1 + Ω − bound-pruned − dominance-pruned == nodes` identity over all
//! eligible searches. Everything lands in `BENCH_sched.json` so
//! CI can diff runs.

use std::sync::atomic::Ordering;
use std::time::Instant;

use pipesched_json::{json_object, Json};
use pipesched_service::{run_batch, EngineConfig, ServeConfig, ServiceEngine, Tier};

use crate::experiments::serve::workload;
use crate::report::{f, TextTable};

/// Measured outcome of the observability experiment.
#[derive(Debug, Clone)]
pub struct ObserveReport {
    /// Requests replayed per pass.
    pub requests: u64,
    /// Error responses in the metrics pass (must be zero).
    pub errors: u64,
    /// Validated cache hits in the metrics pass.
    pub cache_hits: u64,
    /// Requests per second in the metrics pass.
    pub throughput_rps: f64,
    /// Latency quantiles from the service histogram, microseconds.
    pub p50_micros: u64,
    /// 90th percentile latency, microseconds.
    pub p90_micros: u64,
    /// 99th percentile latency, microseconds.
    pub p99_micros: u64,
    /// Answers per tier, `Tier::index()` order (cache/list/windowed/bnb).
    pub tier_answers: [u64; 4],
    /// Ω calls per tier, same order.
    pub tier_omega: [u64; 4],
    /// Aggregate `1 + Ω − bound-pruned − dominance-pruned == nodes`
    /// identity over all eligible searches (must hold).
    pub identity_ok: bool,
    /// Whole-replay wall clock with tracing disabled, pass 1 (min over
    /// repetitions), microseconds.
    pub disabled_micros: u64,
    /// Disabled pass 2, run back to back with pass 1, microseconds.
    pub disabled_again_micros: u64,
    /// Whole-replay wall clock with tracing enabled, microseconds.
    pub traced_micros: u64,
    /// Whole-replay wall clock with the flight recorder enabled (span
    /// tracing off), microseconds.
    pub flight_micros: u64,
}

impl ObserveReport {
    /// Relative delta between the two disabled passes, percent — the same
    /// code both times, so this bounds the disabled-path cost plus noise.
    pub fn disabled_overhead_pct(&self) -> f64 {
        if self.disabled_micros == 0 {
            return 0.0;
        }
        100.0 * (self.disabled_again_micros as f64 - self.disabled_micros as f64).abs()
            / self.disabled_micros as f64
    }

    /// Cost of tracing *on* relative to the faster disabled pass, percent.
    pub fn traced_overhead_pct(&self) -> f64 {
        let base = self.disabled_micros.min(self.disabled_again_micros);
        if base == 0 {
            return 0.0;
        }
        100.0 * (self.traced_micros as f64 - base as f64) / base as f64
    }

    /// Cost of the flight recorder *on* (one wide event per request into
    /// the ring) relative to the faster disabled pass, percent. The
    /// disabled passes already price the recorder's off path — each
    /// request builds its event for the metrics, untimed and never
    /// pushed — inside the < 2% disabled gate.
    pub fn flight_overhead_pct(&self) -> f64 {
        let base = self.disabled_micros.min(self.disabled_again_micros);
        if base == 0 {
            return 0.0;
        }
        100.0 * (self.flight_micros as f64 - base as f64) / base as f64
    }

    /// Render the experiment as a metric table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "value"]);
        t.row(["requests per pass".to_string(), self.requests.to_string()]);
        t.row(["errors".to_string(), self.errors.to_string()]);
        t.row(["cache hits".to_string(), self.cache_hits.to_string()]);
        t.row(["throughput (req/s)".to_string(), f(self.throughput_rps, 0)]);
        t.row(["latency p50 (µs)".to_string(), self.p50_micros.to_string()]);
        t.row(["latency p90 (µs)".to_string(), self.p90_micros.to_string()]);
        t.row(["latency p99 (µs)".to_string(), self.p99_micros.to_string()]);
        for tier in [Tier::Cache, Tier::List, Tier::Windowed, Tier::Bnb] {
            t.row([
                format!("answers[{}] / Ω", tier.name()),
                format!(
                    "{} / {}",
                    self.tier_answers[tier.index()],
                    self.tier_omega[tier.index()]
                ),
            ]);
        }
        t.row([
            "search identity holds".to_string(),
            self.identity_ok.to_string(),
        ]);
        t.row([
            "disabled pass 1 (ms)".to_string(),
            f(self.disabled_micros as f64 / 1e3, 1),
        ]);
        t.row([
            "disabled pass 2 (ms)".to_string(),
            f(self.disabled_again_micros as f64 / 1e3, 1),
        ]);
        t.row([
            "traced pass (ms)".to_string(),
            f(self.traced_micros as f64 / 1e3, 1),
        ]);
        t.row([
            "flight pass (ms)".to_string(),
            f(self.flight_micros as f64 / 1e3, 1),
        ]);
        t.row([
            "disabled-path delta (%)".to_string(),
            f(self.disabled_overhead_pct(), 2),
        ]);
        t.row([
            "tracing-on overhead (%)".to_string(),
            f(self.traced_overhead_pct(), 2),
        ]);
        t.row([
            "flight-on overhead (%)".to_string(),
            f(self.flight_overhead_pct(), 2),
        ]);
        t
    }

    /// The machine-readable `BENCH_sched.json` document.
    pub fn to_json(&self) -> Json {
        let per_tier = |counts: &[u64; 4]| {
            Json::Object(
                [Tier::Cache, Tier::List, Tier::Windowed, Tier::Bnb]
                    .iter()
                    .map(|t| (t.name().to_string(), Json::Int(counts[t.index()] as i64)))
                    .collect(),
            )
        };
        json_object![
            ("experiment", "observe"),
            ("requests", self.requests as i64),
            ("errors", self.errors as i64),
            ("cache_hits", self.cache_hits as i64),
            ("throughput_rps", self.throughput_rps),
            ("p50_micros", self.p50_micros as i64),
            ("p90_micros", self.p90_micros as i64),
            ("p99_micros", self.p99_micros as i64),
            ("tier_answers", per_tier(&self.tier_answers)),
            ("tier_omega", per_tier(&self.tier_omega)),
            ("identity_ok", self.identity_ok),
            ("disabled_micros", self.disabled_micros as i64),
            ("disabled_again_micros", self.disabled_again_micros as i64),
            ("traced_micros", self.traced_micros as i64),
            ("flight_micros", self.flight_micros as i64),
            ("disabled_overhead_pct", self.disabled_overhead_pct()),
            ("traced_overhead_pct", self.traced_overhead_pct()),
            ("flight_overhead_pct", self.flight_overhead_pct()),
        ]
    }
}

/// One full workload replay through a fresh engine; returns the engine
/// (for its metrics) and the wall clock in microseconds.
fn replay(input: &str, workers: usize) -> (ServiceEngine, u64) {
    let engine = ServiceEngine::new(EngineConfig::default(), 4096, 8);
    let start = Instant::now();
    run_batch(&engine, input, &ServeConfig { workers }, false, false)
        .expect("in-memory batch replay cannot fail on IO");
    (engine, start.elapsed().as_micros() as u64)
}

/// Replay the repeated-shapes workload and price the tracing layer.
pub fn run(requests: usize, shapes: usize, workers: usize) -> ObserveReport {
    // Tracing and the flight recorder must start disabled: an earlier
    // experiment (or test) in the same process may have left them on.
    // With both off, the disabled passes price *all* compiled-in
    // observability — one relaxed load per span site, plus the wide
    // event each request builds for the metrics.
    pipesched_trace::set_enabled(false);
    pipesched_trace::flight::set_enabled(false);
    let input = workload(requests, shapes);

    // Metrics pass: one replay, tracing off, read the fleet-wide view.
    let (engine, wall) = replay(&input, workers);
    let m = engine.metrics();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let report_base = ObserveReport {
        requests: load(&m.requests),
        errors: load(&m.errors),
        cache_hits: load(&m.cache_hits),
        throughput_rps: load(&m.requests) as f64 * 1e6 / wall.max(1) as f64,
        p50_micros: m.latency.quantile_micros(0.50),
        p90_micros: m.latency.quantile_micros(0.90),
        p99_micros: m.latency.quantile_micros(0.99),
        tier_answers: std::array::from_fn(|i| load(&m.tier_answers[i])),
        tier_omega: std::array::from_fn(|i| load(&m.tier_omega[i])),
        identity_ok: m.search.identity_holds(),
        disabled_micros: 0,
        disabled_again_micros: 0,
        traced_micros: 0,
        flight_micros: 0,
    };

    // Timing passes: fresh engine per pass so every repetition does the
    // same searches; the two disabled passes run back to back (the gate
    // is their delta), the traced pass last. Min over repetitions.
    let (mut d1, mut d2, mut tr, mut fl) = (u64::MAX, u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..5 {
        let (_, t) = replay(&input, workers);
        d1 = d1.min(t);
        let (_, t) = replay(&input, workers);
        d2 = d2.min(t);
        pipesched_trace::set_enabled(true);
        let (_, t) = replay(&input, workers);
        pipesched_trace::set_enabled(false);
        tr = tr.min(t);
        pipesched_trace::store::clear();
        pipesched_trace::flight::set_enabled(true);
        let (_, t) = replay(&input, workers);
        pipesched_trace::flight::set_enabled(false);
        fl = fl.min(t);
        pipesched_trace::flight::reset();
    }

    ObserveReport {
        disabled_micros: d1,
        disabled_again_micros: d2,
        traced_micros: tr,
        flight_micros: fl,
        ..report_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_replay_is_clean_and_identity_holds() {
        let r = run(30, 3, 2);
        assert_eq!(r.requests, 30);
        assert_eq!(r.errors, 0);
        assert!(r.cache_hits > 0, "repeated shapes must hit the cache");
        assert!(r.identity_ok, "aggregate search identity must hold");
        assert!(r.tier_answers.iter().sum::<u64>() == 30);
        assert!(r.disabled_micros > 0 && r.traced_micros > 0 && r.flight_micros > 0);
        // Tracing and the flight recorder must stay off for whoever runs
        // next in this process.
        assert!(!pipesched_trace::enabled());
        assert!(!pipesched_trace::flight::enabled());
        let doc = r.to_json();
        assert_eq!(doc.get("errors").and_then(Json::as_i64), Some(0));
        assert_eq!(doc.get("identity_ok").and_then(Json::as_bool), Some(true));
        assert!(r.table().render().contains("disabled-path delta"));
    }
}
