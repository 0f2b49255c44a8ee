//! Per-layer metrics: derived from the traced run's spans and counts.
//!
//! Every name is printed on every workload. A layer the workload's path
//! does not reach prints [`NOT_REACHED`], never a value measured on other
//! inputs.

use std::collections::BTreeMap;

use crate::spans::{aggregate, Tracer};
use crate::stats::{median, ratio};

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("synth.generate_us", "us", "lower"),
    ("service.request.parse_us", "us", "lower"),
    ("service.request.respond_us", "us", "lower"),
    ("ir.dag_build_us", "us", "lower"),
    ("core.context_us", "us", "lower"),
    ("service.canon.canonicalize_us", "us", "lower"),
    ("service.cache.get_us", "us", "lower"),
    ("service.cache.insert_us", "us", "lower"),
    ("service.cache.hit_frac", "fraction", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("service.engine.answer_us", "us", "lower"),
    ("service.engine.self_us", "us", "lower"),
    ("service.engine.tier.cache", "count", "higher"),
    ("service.engine.tier.list", "count", "higher"),
    ("service.engine.tier.windowed", "count", "higher"),
    ("service.engine.tier.bnb", "count", "lower"),
    ("core.list.us", "us", "lower"),
    ("core.list.closed_frac", "fraction", "higher"),
    ("core.bounds.global_lb_us", "us", "lower"),
    ("core.windowed.us", "us", "lower"),
    ("core.windowed.omega_calls", "count", "lower"),
    ("core.windowed.closed_frac", "fraction", "higher"),
    ("core.bnb.us", "us", "lower"),
    ("core.bnb.omega_calls", "count", "lower"),
    ("core.bnb.nodes", "count", "lower"),
    ("core.bnb.ns_per_omega", "ns", "lower"),
    ("core.bnb.truncated_frac", "fraction", "lower"),
    ("core.bnb.pruned_bound_frac", "fraction", "higher"),
    ("core.bnb.pruned_legality_frac", "fraction", "lower"),
    ("core.bnb.pruned_equivalence_frac", "fraction", "higher"),
    ("core.bnb.us_p50.le16", "us", "lower"),
    ("core.bnb.us_p50.17to32", "us", "lower"),
    ("core.bnb.us_p50.ge33", "us", "lower"),
    ("core.timing.push_pop_ns", "ns", "lower"),
    ("core.timing.ops", "count", "lower"),
    ("core.parallel.us", "us", "lower"),
    ("core.parallel.omega_calls", "count", "lower"),
    ("core.parallel.steals", "count", "lower"),
    ("core.parallel.splits", "count", "lower"),
    ("core.parallel.work_inflation", "ratio", "lower"),
    ("core.parallel.overhead_1t_frac", "fraction", "lower"),
    ("core.proof.events", "count", "lower"),
    ("core.proof.log_overhead_frac", "fraction", "lower"),
    ("proof.check_us", "us", "lower"),
    ("proof.check_events_per_s", "1/s", "higher"),
    ("proof.rejected", "count", "lower"),
    ("analyze.certify_us", "us", "lower"),
    ("analyze.rejected", "count", "lower"),
    ("sim.validate_us", "us", "lower"),
    ("sim.rejected", "count", "lower"),
    ("bench.trace_overhead_frac", "fraction", "higher"),
    ("bench.trace_mismatches", "count", "lower"),
];

/// Mean self time per call of the span behind each timed metric.
const SPAN_US: [(&str, &str); 17] = [
    ("synth.generate_us", "synth.generate"),
    ("service.request.parse_us", "service.request.parse"),
    ("service.request.respond_us", "service.request.respond"),
    ("ir.dag_build_us", "ir.dag_build"),
    ("core.context_us", "core.context"),
    ("service.canon.canonicalize_us", "service.canon"),
    ("service.cache.get_us", "service.cache.get"),
    ("service.cache.insert_us", "service.cache.insert"),
    ("service.engine.answer_us", "service.engine.answer"),
    ("core.list.us", "core.list"),
    ("core.bounds.global_lb_us", "core.bounds"),
    ("core.windowed.us", "core.windowed"),
    ("core.bnb.us", "core.bnb"),
    ("core.parallel.us", "core.parallel"),
    ("proof.check_us", "proof.check"),
    ("analyze.certify_us", "analyze.certify"),
    ("sim.validate_us", "sim.validate"),
];

/// `metric = count(num) / count(den)`, measured wherever `den` was counted.
const PER_CALL: [(&str, &str, &str); 10] = [
    ("service.cache.hit_frac", "cache.hits", "cache.lookups"),
    ("core.list.closed_frac", "list.closed", "list.attempts"),
    (
        "core.windowed.omega_calls",
        "windowed.omega",
        "windowed.calls",
    ),
    (
        "core.windowed.closed_frac",
        "windowed.closed",
        "windowed.calls",
    ),
    ("core.bnb.omega_calls", "bnb.omega", "bnb.calls"),
    ("core.bnb.nodes", "bnb.nodes", "bnb.calls"),
    ("core.bnb.truncated_frac", "bnb.truncated", "bnb.calls"),
    (
        "core.parallel.omega_calls",
        "parallel.omega",
        "parallel.calls",
    ),
    ("core.parallel.steals", "parallel.steals", "parallel.calls"),
    ("core.parallel.splits", "parallel.splits", "parallel.calls"),
];

/// `metric = count(key)`, reported as summed.
const TOTALS: [(&str, &str); 11] = [
    ("service.engine.tier.cache", "tier.cache"),
    ("service.engine.tier.list", "tier.list"),
    ("service.engine.tier.windowed", "tier.windowed"),
    ("service.engine.tier.bnb", "tier.bnb"),
    ("service.cache.evictions", "cache.evictions"),
    ("proof.rejected", "proof.rejected"),
    ("analyze.rejected", "analyze.rejected"),
    ("sim.rejected", "sim.rejected"),
    ("bench.trace_overhead_frac", "bench.trace_overhead_frac"),
    ("bench.trace_mismatches", "bench.trace_mismatches"),
    ("core.timing.ops", "timing.ops"),
];

/// The metrics `tr` measured. Metrics whose source is absent are left out.
pub fn derive(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let agg = aggregate(&tr.spans);
    let count = |k: &str| tr.counts.get(k).copied();
    let mut m = BTreeMap::new();
    for (metric, span) in SPAN_US {
        if let Some(a) = agg.get(span) {
            m.insert(metric, a.self_us());
        }
    }
    for (metric, num, den) in PER_CALL {
        if let Some(d) = count(den).filter(|&d| d > 0.0) {
            m.insert(metric, count(num).unwrap_or(0.0) / d);
        }
    }
    for (metric, key) in TOTALS {
        if let Some(v) = count(key) {
            m.insert(metric, v);
        }
    }
    if let (Some(a), Some(r)) = (agg.get("service.engine.answer"), agg.get("unit.replay")) {
        let replayed = r.total_ns - r.self_ns;
        m.insert(
            "service.engine.self_us",
            (a.total_ns as f64 - replayed as f64) / a.count as f64 / 1e3,
        );
    }
    if let (Some(a), Some(omega)) = (agg.get("core.bnb"), count("bnb.omega")) {
        if omega > 0.0 {
            m.insert("core.bnb.ns_per_omega", a.total_ns as f64 / omega);
        }
    }
    if let Some(calls) = count("bnb.calls") {
        let pruned = |k| count(k).unwrap_or(0.0);
        let candidates = pruned("bnb.omega")
            + pruned("bnb.pruned_quick")
            + pruned("bnb.pruned_legality")
            + pruned("bnb.pruned_equivalence")
            + pruned("bnb.pruned_symmetry");
        if calls > 0.0 {
            for (metric, k) in [
                ("core.bnb.pruned_bound_frac", "bnb.pruned_bound"),
                ("core.bnb.pruned_legality_frac", "bnb.pruned_legality"),
                ("core.bnb.pruned_equivalence_frac", "bnb.pruned_equivalence"),
            ] {
                m.insert(metric, ratio(pruned(k), candidates));
            }
        }
    }
    for (bucket, samples) in &tr.samples {
        m.insert(bucket, median(samples));
    }
    if let (Some(a), Some(ops)) = (agg.get("core.timing"), count("timing.ops")) {
        m.insert("core.timing.push_pop_ns", ratio(a.total_ns as f64, ops));
    }
    if let (Some(pool), Some(serial)) = (count("cmp.pool_omega"), count("cmp.prove_omega")) {
        m.insert("core.parallel.work_inflation", ratio(pool, serial));
    }
    if let (Some(search), Some(pool1), Some(prove)) = (
        count("cmp.search_ns"),
        count("cmp.pool1_ns"),
        count("cmp.prove_ns"),
    ) {
        m.insert("core.parallel.overhead_1t_frac", ratio(pool1, search) - 1.0);
        m.insert("core.proof.log_overhead_frac", ratio(prove, search) - 1.0);
    }
    if let (Some(events), Some(calls)) = (count("proof.events"), count("parallel.calls")) {
        m.insert("core.proof.events", ratio(events, calls));
        if let Some(check) = agg.get("proof.check") {
            m.insert(
                "proof.check_events_per_s",
                ratio(events, check.total_ns as f64 / 1e9),
            );
        }
    }
    m
}

/// Printed for a metric whose layer the workload does not reach. No
/// measurement takes it: times, counts and shares are never negative, and
/// an overhead fraction (a ratio minus one) is -1 only at zero cost.
pub const NOT_REACHED: f64 = -1.0;

/// Every per-layer metric: the workload's measurement, or [`NOT_REACHED`].
pub fn assemble(tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let m = derive(tr);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, m.get(name).copied().unwrap_or(NOT_REACHED), unit))
        .collect()
}
