//! Latency SLOs and error-budget burn rates.
//!
//! Each [`Objective`] states "`target_fraction` of requests in `scope`
//! answer within `target_micros`". The error budget is the allowed bad
//! fraction, `1 − target_fraction`; the **burn rate** is how fast the
//! service spends it:
//!
//! ```text
//! burn = bad_fraction / (1 − target_fraction)
//! ```
//!
//! Burn 1.0 means the budget is being consumed exactly as provisioned;
//! above 1.0 the objective is being violated. Good counts come from
//! [`LatencyHistogram::count_at_or_below`], which is *exact* above the
//! sparse-tail floor — precisely where objectives sit — so burn rates are
//! not quantized by the log₂ buckets.
//!
//! Reports surface through `GET /slo`, the `slo` section of
//! `pipesched stats --json`, and `pipesched_slo_*` Prometheus gauges.

use pipesched_json::{json_object, Json};
use pipesched_trace::prom::PromWriter;

use pipesched_core::Backend;

use crate::engine::Tier;
use crate::metrics::{backend_slot, LatencyHistogram, Metrics};

/// What slice of traffic an objective covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every request.
    Total,
    /// Requests answered by one escalation tier.
    Tier(Tier),
    /// Requests answered by one concrete backend.
    Backend(Backend),
}

impl Scope {
    fn histogram<'m>(&self, metrics: &'m Metrics) -> &'m LatencyHistogram {
        match *self {
            Scope::Total => &metrics.latency,
            Scope::Tier(t) => &metrics.tier_latency[t.index()],
            Scope::Backend(b) => &metrics.backend_latency[backend_slot(b)],
        }
    }
}

/// One latency objective: `target_fraction` of `scope` within
/// `target_micros`.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Stable identifier (the `slo` label in Prometheus).
    pub name: &'static str,
    /// Traffic slice.
    pub scope: Scope,
    /// Latency threshold, microseconds.
    pub target_micros: u64,
    /// Fraction of requests that must meet the threshold (0 < f < 1).
    pub target_fraction: f64,
}

/// The service's default objectives. Thresholds follow the tier
/// escalation's cost structure: cache answers are memory lookups, list
/// answers one heuristic pass, windowed answers bounded sub-searches, and
/// exact answers get an order of magnitude more headroom per tier.
pub fn objectives() -> &'static [Objective] {
    const OBJECTIVES: [Objective; 8] = [
        Objective {
            name: "total_p99_10ms",
            scope: Scope::Total,
            target_micros: 10_000,
            target_fraction: 0.99,
        },
        Objective {
            name: "total_p999_100ms",
            scope: Scope::Total,
            target_micros: 100_000,
            target_fraction: 0.999,
        },
        Objective {
            name: "cache_p99_1ms",
            scope: Scope::Tier(Tier::Cache),
            target_micros: 1_000,
            target_fraction: 0.99,
        },
        Objective {
            name: "list_p99_5ms",
            scope: Scope::Tier(Tier::List),
            target_micros: 5_000,
            target_fraction: 0.99,
        },
        Objective {
            name: "windowed_p99_50ms",
            scope: Scope::Tier(Tier::Windowed),
            target_micros: 50_000,
            target_fraction: 0.99,
        },
        Objective {
            name: "bnb_p95_500ms",
            scope: Scope::Tier(Tier::Bnb),
            target_micros: 500_000,
            target_fraction: 0.95,
        },
        Objective {
            name: "backend_bnb_p99_200ms",
            scope: Scope::Backend(Backend::Bnb),
            target_micros: 200_000,
            target_fraction: 0.99,
        },
        Objective {
            name: "backend_sat_p95_500ms",
            scope: Scope::Backend(Backend::Sat),
            target_micros: 500_000,
            target_fraction: 0.95,
        },
    ];
    &OBJECTIVES
}

/// One objective evaluated against live metrics.
#[derive(Debug, Clone, Copy)]
pub struct Status {
    /// The objective.
    pub objective: Objective,
    /// Requests in scope.
    pub count: u64,
    /// Requests that met the threshold.
    pub good: u64,
    /// Error-budget burn rate (0 when no traffic).
    pub burn_rate: f64,
    /// Whether the budget is burning at or under provision (≤ 1.0).
    pub ok: bool,
}

/// Evaluate one objective.
pub fn evaluate(objective: Objective, metrics: &Metrics) -> Status {
    let hist = objective.scope.histogram(metrics);
    let count = hist.count();
    let good = hist.count_at_or_below(objective.target_micros).min(count);
    let burn_rate = if count == 0 {
        0.0
    } else {
        let bad_fraction = (count - good) as f64 / count as f64;
        bad_fraction / (1.0 - objective.target_fraction)
    };
    Status {
        objective,
        count,
        good,
        burn_rate,
        ok: burn_rate <= 1.0,
    }
}

/// Evaluate every default objective.
pub fn report(metrics: &Metrics) -> Vec<Status> {
    objectives().iter().map(|&o| evaluate(o, metrics)).collect()
}

fn scope_json(scope: Scope) -> Json {
    match scope {
        Scope::Total => json_object![("kind", "total")],
        Scope::Tier(t) => json_object![("kind", "tier"), ("tier", t.name())],
        Scope::Backend(b) => json_object![("kind", "backend"), ("backend", b.name())],
    }
}

/// The `/slo` payload: every objective with its live burn rate.
pub fn to_json(metrics: &Metrics) -> Json {
    let statuses = report(metrics);
    let violations = statuses.iter().filter(|s| !s.ok).count();
    let rows: Vec<Json> = statuses
        .iter()
        .map(|s| {
            json_object![
                ("name", s.objective.name),
                ("scope", scope_json(s.objective.scope)),
                ("target_micros", s.objective.target_micros as i64),
                ("target_fraction", s.objective.target_fraction),
                ("count", s.count as i64),
                ("good", s.good as i64),
                ("bad", (s.count - s.good) as i64),
                ("burn_rate", s.burn_rate),
                ("ok", s.ok),
            ]
        })
        .collect();
    json_object![
        ("violations", violations as i64),
        ("objectives", Json::Array(rows)),
    ]
}

/// Append `pipesched_slo_*` gauges to a Prometheus exposition.
pub fn write_prometheus(metrics: &Metrics, w: &mut PromWriter) {
    let statuses = report(metrics);
    w.labeled(
        "pipesched_slo_burn_rate",
        "Error-budget burn rate per latency objective (1.0 = provisioned).",
        "gauge",
        "slo",
        statuses.iter().map(|s| (s.objective.name, s.burn_rate)),
    );
    w.labeled(
        "pipesched_slo_ok",
        "1 when the objective's budget burns at or under provision.",
        "gauge",
        "slo",
        statuses
            .iter()
            .map(|s| (s.objective.name, f64::from(u8::from(s.ok)))),
    );
    w.gauge(
        "pipesched_slo_violations",
        "Objectives currently burning error budget above provision.",
        statuses.iter().filter(|s| !s.ok).count() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::answered;

    #[test]
    fn empty_metrics_burn_nothing() {
        let m = Metrics::new();
        for s in report(&m) {
            assert_eq!(s.count, 0);
            assert_eq!(s.burn_rate, 0.0);
            assert!(s.ok);
        }
        let doc = to_json(&m);
        assert_eq!(doc.get("violations").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn burn_rate_matches_the_budget_arithmetic() {
        let m = Metrics::new();
        // 100 cache answers: 98 fast, 2 over the 1 ms cache objective.
        for _ in 0..98 {
            m.record(&answered(Tier::Cache, Backend::Bnb, true, false, 100, 0));
        }
        for _ in 0..2 {
            m.record(&answered(Tier::Cache, Backend::Bnb, true, false, 9_000, 0));
        }
        let s = report(&m)
            .into_iter()
            .find(|s| s.objective.name == "cache_p99_1ms")
            .unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.good, 98);
        // bad_fraction 0.02 against a 0.01 budget: burning at 2×.
        assert!((s.burn_rate - 2.0).abs() < 1e-9, "burn = {}", s.burn_rate);
        assert!(!s.ok);
        let doc = to_json(&m);
        assert_eq!(doc.get("violations").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn scopes_only_see_their_own_traffic() {
        let m = Metrics::new();
        // A slow exact answer must not burn the cache tier's budget.
        m.record(&answered(
            Tier::Bnb,
            Backend::Sat,
            false,
            false,
            400_000,
            10,
        ));
        let by_name = |n: &str| {
            report(&m)
                .into_iter()
                .find(|s| s.objective.name == n)
                .unwrap()
        };
        assert_eq!(by_name("cache_p99_1ms").count, 0);
        assert_eq!(by_name("bnb_p95_500ms").count, 1);
        assert!(by_name("bnb_p95_500ms").ok);
        assert_eq!(by_name("backend_sat_p95_500ms").count, 1);
        assert_eq!(by_name("backend_bnb_p99_200ms").count, 0);
    }

    #[test]
    fn prometheus_gauges_parse_and_cover_every_objective() {
        let m = Metrics::new();
        m.record(&answered(Tier::List, Backend::Bnb, false, false, 800, 3));
        let mut w = PromWriter::new();
        write_prometheus(&m, &mut w);
        let text = w.finish();
        pipesched_trace::prom::validate(&text).expect("exposition must parse");
        for o in objectives() {
            assert!(
                text.contains(&format!("pipesched_slo_burn_rate{{slo=\"{}\"}}", o.name)),
                "missing burn gauge for {}",
                o.name
            );
            assert!(text.contains(&format!("pipesched_slo_ok{{slo=\"{}\"}}", o.name)));
        }
        assert!(text.contains("pipesched_slo_violations 0"));
    }
}
