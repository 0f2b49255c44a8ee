//! Golden scrape bytes: `Metrics::to_json`, `Metrics::write_prometheus`,
//! `slo::to_json`, and the engine's whole `/metrics` and `/stats`
//! payloads, on an empty snapshot and on a fixed synthetic one. Dashboards
//! and the CI scrape read these names and layouts, so a change to how a
//! counter is declared or rendered must leave them unchanged.
//! `PIPESCHED_PIN_PRINT=1 cargo test -p pipesched-service --test
//! metrics_pin -- --nocapture` prints the values instead of checking them.

use pipesched_core::SearchStats;
use pipesched_service::{slo, Budget, EngineConfig, Metrics, ServiceEngine};
use pipesched_trace::flight::{self, Outcome, WideEvent};
use pipesched_trace::prom::PromWriter;

fn printing() -> bool {
    std::env::var_os("PIPESCHED_PIN_PRINT").is_some()
}

fn check(got: &str, expected: &str) {
    if printing() {
        println!("GOT {got:?}");
        return;
    }
    assert_eq!(got, expected);
}

/// Compare a multi-line rendering line by line.
fn check_lines(got: &str, expected: &[&str]) {
    if printing() {
        for line in got.lines() {
            println!("{line:?},");
        }
        return;
    }
    assert_eq!(got.lines().collect::<Vec<_>>(), expected);
}

/// A committed request's event, read from its NDJSON line so the pin
/// names every tier, backend, cache and outcome value by its wire name.
fn event(
    tier: &str,
    backend: &str,
    cache: &str,
    outcome: &str,
    optimal: bool,
    micros: u64,
    omega: u64,
) -> WideEvent {
    let line = format!(
        "{{\"seq\":1,\"req\":1,\"trace_id\":0,\"canon\":0,\"n\":4,\"machine_fp\":0,\
         \"tier\":\"{tier}\",\"backend\":\"{backend}\",\"threads\":1,\"cache\":\"{cache}\",\
         \"outcome\":\"{outcome}\",\"nops\":0,\"optimal\":{optimal},\"nodes\":0,\
         \"omega\":{omega},\"pruned\":0,\"proof_digest\":0,\"deadline_hit\":false,\
         \"micros\":{micros},\"us_parse\":0,\"us_dag\":0,\"us_canon\":0,\"us_cache\":0,\
         \"us_search\":0,\"us_prove\":0,\"us_respond\":0,\"checksum\":0}}"
    );
    WideEvent::from_ndjson(&line).expect("a request line in the recorder's vocabulary")
}

/// Fold the fixed synthetic traffic into `m`: every tier, both answering
/// backends (a `race` event counts for B&B), hits and misses, an event
/// with no lookup, every outcome, SAT and pool effort, and searches that
/// touch every prune rule, one of them breaking the node identity.
fn load(m: &Metrics) {
    let events = [
        event("cache", "bnb", "hit", "ok", true, 12, 0),
        event("cache", "sat", "hit", "ok", false, 9, 0),
        event("list", "bnb", "miss", "ok", true, 240, 0),
        event("list", "bnb", "-", "ok", false, 310, 0),
        event("windowed", "bnb", "miss", "ok", true, 3_100, 800),
        event(
            "windowed",
            "bnb",
            "miss",
            "budget_exhausted",
            false,
            52_000,
            12_500,
        ),
        event("bnb", "sat", "miss", "ok", true, 410_000, 7),
        event("bnb", "bnb", "miss", "deadline_miss", false, 9_000, 50_000),
        event("bnb", "sat", "miss", "disagreement", true, 700, 3),
        event("bnb", "race", "miss", "cert_reject", true, 1_500, 64),
        event("-", "-", "-", "error", false, 35, 0),
        event("-", "-", "-", "admission_reject", false, 80, 0),
    ];
    for ev in &events {
        m.record(ev);
    }
    for _ in 0..40 {
        m.record(&events[0]);
    }
    m.record_opt_verified();
    m.record_opt_verified();
    m.record_sat_effort(321, 77, 9_001);
    m.record_sat_effort(4, 1, 16);
    m.record_parallel(3, 17);
    let searches = [
        (
            SearchStats {
                nodes_visited: 10,
                omega_calls: 12,
                complete_schedules: 2,
                improvements: 1,
                pruned_quick: 4,
                pruned_legality: 5,
                pruned_bound: 3,
                ..SearchStats::default()
            },
            true,
        ),
        (
            SearchStats {
                nodes_visited: 100,
                omega_calls: 120,
                pruned_equivalence: 9,
                pruned_bound: 16,
                pruned_symmetry: 2,
                pruned_dominance: 5,
                ..SearchStats::default()
            },
            true,
        ),
        (
            SearchStats {
                nodes_visited: 55,
                omega_calls: 60,
                pruned_bound: 1,
                ..SearchStats::default()
            },
            false,
        ),
        (
            SearchStats {
                nodes_visited: 7,
                omega_calls: 99,
                truncated: true,
                ..SearchStats::default()
            },
            true,
        ),
        (
            SearchStats {
                nodes_visited: 5,
                omega_calls: 5,
                pruned_bound: 5,
                ..SearchStats::default()
            },
            true,
        ),
    ];
    for (stats, single) in &searches {
        m.search.record(stats, *single);
    }
}

fn prometheus(m: &Metrics) -> String {
    let mut w = PromWriter::new();
    m.write_prometheus(&mut w);
    w.finish()
}

/// An engine whose configuration does not read the environment, with a
/// two-entry cache.
fn engine() -> ServiceEngine {
    let config = EngineConfig {
        verify_opt: false,
        ..EngineConfig::default()
    };
    ServiceEngine::new(config, 2, 1)
}

/// Give every engine-level counter a distinct value: five block shapes
/// through the two-entry cache (three evictions), five traces through a
/// one-trace store (four evicted), and six committed events, one a
/// deadline miss, through a one-event flight ring (five evicted, one dump).
fn exercise(eng: &ServiceEngine) {
    let machine = pipesched_machine::presets::paper_simulation();
    for chains in 1..=5 {
        let mut b = pipesched_ir::BlockBuilder::new("pin");
        for i in 0..chains {
            let x = b.load(&format!("x{i}"));
            let m = b.mul(x, x);
            b.store(&format!("y{i}"), m);
        }
        eng.answer(&b.finish().unwrap(), &machine, Budget::unlimited());
    }
    pipesched_trace::store::set_capacity(1);
    pipesched_trace::set_enabled(true);
    for _ in 0..5 {
        pipesched_trace::begin("pin");
        pipesched_trace::end();
    }
    pipesched_trace::set_enabled(false);
    pipesched_trace::store::set_capacity(pipesched_trace::store::DEFAULT_CAPACITY);
    flight::set_capacity(1);
    flight::set_enabled(true);
    for req in 0..6 {
        let mut ev = WideEvent::new(req);
        ev.micros = 100;
        if req == 3 {
            ev.raise(Outcome::DeadlineMiss);
        }
        flight::commit(ev);
    }
    flight::set_enabled(false);
}

#[test]
fn empty_snapshot_is_pinned() {
    let m = Metrics::new();
    check(&m.to_json().to_compact(), "{\"requests\":0,\"errors\":0,\"cache_hits\":0,\"cache_misses\":0,\"budget_exhausted\":0,\"opt_verified\":0,\"opt_rejected\":0,\"tier_answers\":{\"cache\":0,\"list\":0,\"windowed\":0,\"bnb\":0},\"tier_omega\":{\"cache\":0,\"list\":0,\"windowed\":0,\"bnb\":0},\"backend_answers\":{\"bnb\":0,\"sat\":0},\"sat\":{\"conflicts\":0,\"decisions\":0,\"propagations\":0},\"parallel\":{\"steals\":0,\"splits\":0},\"latency_micros\":{\"count\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0},\"search\":{\"searches\":0,\"nodes_visited\":0,\"omega_calls\":0,\"complete_schedules\":0,\"improvements\":0,\"pruned_quick\":0,\"pruned_legality\":0,\"pruned_equivalence\":0,\"pruned_bound\":0,\"pruned_symmetry\":0,\"pruned_dominance\":0,\"eligible_searches\":0,\"identity_holds\":true}}");
    check_lines(&prometheus(&m), &[
            "# HELP pipesched_requests_total Scheduling requests received.",
            "# TYPE pipesched_requests_total counter",
            "pipesched_requests_total 0",
            "# HELP pipesched_errors_total Requests that failed to parse or schedule.",
            "# TYPE pipesched_errors_total counter",
            "pipesched_errors_total 0",
            "# HELP pipesched_cache_hits_total Validated schedule-cache hits.",
            "# TYPE pipesched_cache_hits_total counter",
            "pipesched_cache_hits_total 0",
            "# HELP pipesched_cache_misses_total Schedule-cache misses (or failed hit validation).",
            "# TYPE pipesched_cache_misses_total counter",
            "pipesched_cache_misses_total 0",
            "# HELP pipesched_budget_exhausted_total Requests whose node budget or deadline expired.",
            "# TYPE pipesched_budget_exhausted_total counter",
            "pipesched_budget_exhausted_total 0",
            "# HELP pipesched_opt_verified_total Request blocks that passed the optimizer validation gate.",
            "# TYPE pipesched_opt_verified_total counter",
            "pipesched_opt_verified_total 0",
            "# HELP pipesched_opt_rejected_total Request blocks rejected by the translation validator.",
            "# TYPE pipesched_opt_rejected_total counter",
            "pipesched_opt_rejected_total 0",
            "# HELP pipesched_tier_answers_total Answers produced, by escalation tier.",
            "# TYPE pipesched_tier_answers_total counter",
            "pipesched_tier_answers_total{tier=\"cache\"} 0",
            "pipesched_tier_answers_total{tier=\"list\"} 0",
            "pipesched_tier_answers_total{tier=\"windowed\"} 0",
            "pipesched_tier_answers_total{tier=\"bnb\"} 0",
            "# HELP pipesched_tier_omega_total Omega calls spent, by answering tier.",
            "# TYPE pipesched_tier_omega_total counter",
            "pipesched_tier_omega_total{tier=\"cache\"} 0",
            "pipesched_tier_omega_total{tier=\"list\"} 0",
            "pipesched_tier_omega_total{tier=\"windowed\"} 0",
            "pipesched_tier_omega_total{tier=\"bnb\"} 0",
            "# HELP pipesched_backend_answers_total Answers produced, by concrete solving backend.",
            "# TYPE pipesched_backend_answers_total counter",
            "pipesched_backend_answers_total{backend=\"bnb\"} 0",
            "pipesched_backend_answers_total{backend=\"sat\"} 0",
            "# HELP pipesched_sat_conflicts_total CDCL conflicts across every SAT-backend query.",
            "# TYPE pipesched_sat_conflicts_total counter",
            "pipesched_sat_conflicts_total 0",
            "# HELP pipesched_sat_decisions_total CDCL decisions across every SAT-backend query.",
            "# TYPE pipesched_sat_decisions_total counter",
            "pipesched_sat_decisions_total 0",
            "# HELP pipesched_sat_propagations_total CDCL unit propagations across every SAT-backend query.",
            "# TYPE pipesched_sat_propagations_total counter",
            "pipesched_sat_propagations_total 0",
            "# HELP pipesched_parallel_steals_total Subtree tasks stolen by idle workers of the parallel search.",
            "# TYPE pipesched_parallel_steals_total counter",
            "pipesched_parallel_steals_total 0",
            "# HELP pipesched_parallel_splits_total Subtree tasks split off by workers of the parallel search.",
            "# TYPE pipesched_parallel_splits_total counter",
            "pipesched_parallel_splits_total 0",
            "# HELP pipesched_search_nodes_total Search-tree nodes visited across all searches.",
            "# TYPE pipesched_search_nodes_total counter",
            "pipesched_search_nodes_total 0",
            "# HELP pipesched_search_omega_total Omega calls across all searches.",
            "# TYPE pipesched_search_omega_total counter",
            "pipesched_search_omega_total 0",
            "# HELP pipesched_search_pruned_total Candidates pruned, by rule.",
            "# TYPE pipesched_search_pruned_total counter",
            "pipesched_search_pruned_total{rule=\"quick\"} 0",
            "pipesched_search_pruned_total{rule=\"legality\"} 0",
            "pipesched_search_pruned_total{rule=\"equivalence\"} 0",
            "pipesched_search_pruned_total{rule=\"bound\"} 0",
            "pipesched_search_pruned_total{rule=\"symmetry\"} 0",
            "pipesched_search_pruned_total{rule=\"dominance\"} 0",
            "# HELP pipesched_search_identity_ok 1 when the aggregate satisfies nodes + bound-pruned + dominance-pruned == searches + omega.",
            "# TYPE pipesched_search_identity_ok gauge",
            "pipesched_search_identity_ok 1",
            "# HELP pipesched_request_latency_micros Per-request wall-clock latency, microseconds.",
            "# TYPE pipesched_request_latency_micros summary",
            "pipesched_request_latency_micros{quantile=\"0.5\"} 0",
            "pipesched_request_latency_micros{quantile=\"0.9\"} 0",
            "pipesched_request_latency_micros{quantile=\"0.99\"} 0",
            "pipesched_request_latency_micros{quantile=\"0.999\"} 0",
            "pipesched_request_latency_micros_sum 0",
            "pipesched_request_latency_micros_count 0",
        ]);
    check(&slo::to_json(&m).to_compact(), "{\"violations\":0,\"objectives\":[{\"name\":\"total_p99_10ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":10000,\"target_fraction\":0.99,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"total_p999_100ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":100000,\"target_fraction\":0.999,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"cache_p99_1ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"cache\"},\"target_micros\":1000,\"target_fraction\":0.99,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"list_p99_5ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"list\"},\"target_micros\":5000,\"target_fraction\":0.99,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"windowed_p99_50ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"windowed\"},\"target_micros\":50000,\"target_fraction\":0.99,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"bnb_p95_500ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"bnb\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_bnb_p99_200ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"bnb\"},\"target_micros\":200000,\"target_fraction\":0.99,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_sat_p95_500ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"sat\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":0,\"good\":0,\"bad\":0,\"burn_rate\":0.0,\"ok\":true}]}");
}

#[test]
fn loaded_snapshot_is_pinned() {
    let m = Metrics::new();
    load(&m);
    check(&m.to_json().to_compact(), "{\"requests\":52,\"errors\":2,\"cache_hits\":42,\"cache_misses\":8,\"budget_exhausted\":3,\"opt_verified\":2,\"opt_rejected\":1,\"tier_answers\":{\"cache\":42,\"list\":2,\"windowed\":2,\"bnb\":4},\"tier_omega\":{\"cache\":0,\"list\":0,\"windowed\":13300,\"bnb\":50074},\"backend_answers\":{\"bnb\":47,\"sat\":3},\"sat\":{\"conflicts\":325,\"decisions\":78,\"propagations\":9017},\"parallel\":{\"steals\":3,\"splits\":17},\"latency_micros\":{\"count\":50,\"mean\":9547,\"p50\":12,\"p90\":768,\"p99\":410000,\"p999\":410000},\"search\":{\"searches\":5,\"nodes_visited\":177,\"omega_calls\":296,\"complete_schedules\":2,\"improvements\":1,\"pruned_quick\":4,\"pruned_legality\":5,\"pruned_equivalence\":9,\"pruned_bound\":25,\"pruned_symmetry\":2,\"pruned_dominance\":5,\"eligible_searches\":3,\"identity_holds\":false}}");
    check_lines(&prometheus(&m), &[
            "# HELP pipesched_requests_total Scheduling requests received.",
            "# TYPE pipesched_requests_total counter",
            "pipesched_requests_total 52",
            "# HELP pipesched_errors_total Requests that failed to parse or schedule.",
            "# TYPE pipesched_errors_total counter",
            "pipesched_errors_total 2",
            "# HELP pipesched_cache_hits_total Validated schedule-cache hits.",
            "# TYPE pipesched_cache_hits_total counter",
            "pipesched_cache_hits_total 42",
            "# HELP pipesched_cache_misses_total Schedule-cache misses (or failed hit validation).",
            "# TYPE pipesched_cache_misses_total counter",
            "pipesched_cache_misses_total 8",
            "# HELP pipesched_budget_exhausted_total Requests whose node budget or deadline expired.",
            "# TYPE pipesched_budget_exhausted_total counter",
            "pipesched_budget_exhausted_total 3",
            "# HELP pipesched_opt_verified_total Request blocks that passed the optimizer validation gate.",
            "# TYPE pipesched_opt_verified_total counter",
            "pipesched_opt_verified_total 2",
            "# HELP pipesched_opt_rejected_total Request blocks rejected by the translation validator.",
            "# TYPE pipesched_opt_rejected_total counter",
            "pipesched_opt_rejected_total 1",
            "# HELP pipesched_tier_answers_total Answers produced, by escalation tier.",
            "# TYPE pipesched_tier_answers_total counter",
            "pipesched_tier_answers_total{tier=\"cache\"} 42",
            "pipesched_tier_answers_total{tier=\"list\"} 2",
            "pipesched_tier_answers_total{tier=\"windowed\"} 2",
            "pipesched_tier_answers_total{tier=\"bnb\"} 4",
            "# HELP pipesched_tier_omega_total Omega calls spent, by answering tier.",
            "# TYPE pipesched_tier_omega_total counter",
            "pipesched_tier_omega_total{tier=\"cache\"} 0",
            "pipesched_tier_omega_total{tier=\"list\"} 0",
            "pipesched_tier_omega_total{tier=\"windowed\"} 13300",
            "pipesched_tier_omega_total{tier=\"bnb\"} 50074",
            "# HELP pipesched_backend_answers_total Answers produced, by concrete solving backend.",
            "# TYPE pipesched_backend_answers_total counter",
            "pipesched_backend_answers_total{backend=\"bnb\"} 47",
            "pipesched_backend_answers_total{backend=\"sat\"} 3",
            "# HELP pipesched_sat_conflicts_total CDCL conflicts across every SAT-backend query.",
            "# TYPE pipesched_sat_conflicts_total counter",
            "pipesched_sat_conflicts_total 325",
            "# HELP pipesched_sat_decisions_total CDCL decisions across every SAT-backend query.",
            "# TYPE pipesched_sat_decisions_total counter",
            "pipesched_sat_decisions_total 78",
            "# HELP pipesched_sat_propagations_total CDCL unit propagations across every SAT-backend query.",
            "# TYPE pipesched_sat_propagations_total counter",
            "pipesched_sat_propagations_total 9017",
            "# HELP pipesched_parallel_steals_total Subtree tasks stolen by idle workers of the parallel search.",
            "# TYPE pipesched_parallel_steals_total counter",
            "pipesched_parallel_steals_total 3",
            "# HELP pipesched_parallel_splits_total Subtree tasks split off by workers of the parallel search.",
            "# TYPE pipesched_parallel_splits_total counter",
            "pipesched_parallel_splits_total 17",
            "# HELP pipesched_search_nodes_total Search-tree nodes visited across all searches.",
            "# TYPE pipesched_search_nodes_total counter",
            "pipesched_search_nodes_total 177",
            "# HELP pipesched_search_omega_total Omega calls across all searches.",
            "# TYPE pipesched_search_omega_total counter",
            "pipesched_search_omega_total 296",
            "# HELP pipesched_search_pruned_total Candidates pruned, by rule.",
            "# TYPE pipesched_search_pruned_total counter",
            "pipesched_search_pruned_total{rule=\"quick\"} 4",
            "pipesched_search_pruned_total{rule=\"legality\"} 5",
            "pipesched_search_pruned_total{rule=\"equivalence\"} 9",
            "pipesched_search_pruned_total{rule=\"bound\"} 25",
            "pipesched_search_pruned_total{rule=\"symmetry\"} 2",
            "pipesched_search_pruned_total{rule=\"dominance\"} 5",
            "# HELP pipesched_search_identity_ok 1 when the aggregate satisfies nodes + bound-pruned + dominance-pruned == searches + omega.",
            "# TYPE pipesched_search_identity_ok gauge",
            "pipesched_search_identity_ok 0",
            "# HELP pipesched_request_latency_micros Per-request wall-clock latency, microseconds.",
            "# TYPE pipesched_request_latency_micros summary",
            "pipesched_request_latency_micros{quantile=\"0.5\"} 12",
            "pipesched_request_latency_micros{quantile=\"0.9\"} 768",
            "pipesched_request_latency_micros{quantile=\"0.99\"} 410000",
            "pipesched_request_latency_micros{quantile=\"0.999\"} 410000",
            "pipesched_request_latency_micros_sum 477351",
            "pipesched_request_latency_micros_count 50",
        ]);
    check(&slo::to_json(&m).to_compact(), "{\"violations\":3,\"objectives\":[{\"name\":\"total_p99_10ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":10000,\"target_fraction\":0.99,\"count\":50,\"good\":48,\"bad\":2,\"burn_rate\":3.9999999999999964,\"ok\":false},{\"name\":\"total_p999_100ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":100000,\"target_fraction\":0.999,\"count\":50,\"good\":49,\"bad\":1,\"burn_rate\":19.999999999999982,\"ok\":false},{\"name\":\"cache_p99_1ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"cache\"},\"target_micros\":1000,\"target_fraction\":0.99,\"count\":42,\"good\":42,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"list_p99_5ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"list\"},\"target_micros\":5000,\"target_fraction\":0.99,\"count\":2,\"good\":2,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"windowed_p99_50ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"windowed\"},\"target_micros\":50000,\"target_fraction\":0.99,\"count\":2,\"good\":1,\"bad\":1,\"burn_rate\":49.99999999999996,\"ok\":false},{\"name\":\"bnb_p95_500ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"bnb\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":4,\"good\":4,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_bnb_p99_200ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"bnb\"},\"target_micros\":200000,\"target_fraction\":0.99,\"count\":47,\"good\":47,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_sat_p95_500ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"sat\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":3,\"good\":3,\"bad\":0,\"burn_rate\":0.0,\"ok\":true}]}");
}

/// The only test in this binary that touches the process-wide trace store
/// and flight recorder.
#[test]
fn engine_scrapes_are_pinned() {
    let eng = engine();
    exercise(&eng);
    load(eng.metrics());
    check_lines(&eng.prometheus(), &[
            "# HELP pipesched_requests_total Scheduling requests received.",
            "# TYPE pipesched_requests_total counter",
            "pipesched_requests_total 52",
            "# HELP pipesched_errors_total Requests that failed to parse or schedule.",
            "# TYPE pipesched_errors_total counter",
            "pipesched_errors_total 2",
            "# HELP pipesched_cache_hits_total Validated schedule-cache hits.",
            "# TYPE pipesched_cache_hits_total counter",
            "pipesched_cache_hits_total 42",
            "# HELP pipesched_cache_misses_total Schedule-cache misses (or failed hit validation).",
            "# TYPE pipesched_cache_misses_total counter",
            "pipesched_cache_misses_total 8",
            "# HELP pipesched_budget_exhausted_total Requests whose node budget or deadline expired.",
            "# TYPE pipesched_budget_exhausted_total counter",
            "pipesched_budget_exhausted_total 3",
            "# HELP pipesched_opt_verified_total Request blocks that passed the optimizer validation gate.",
            "# TYPE pipesched_opt_verified_total counter",
            "pipesched_opt_verified_total 2",
            "# HELP pipesched_opt_rejected_total Request blocks rejected by the translation validator.",
            "# TYPE pipesched_opt_rejected_total counter",
            "pipesched_opt_rejected_total 1",
            "# HELP pipesched_tier_answers_total Answers produced, by escalation tier.",
            "# TYPE pipesched_tier_answers_total counter",
            "pipesched_tier_answers_total{tier=\"cache\"} 42",
            "pipesched_tier_answers_total{tier=\"list\"} 2",
            "pipesched_tier_answers_total{tier=\"windowed\"} 2",
            "pipesched_tier_answers_total{tier=\"bnb\"} 4",
            "# HELP pipesched_tier_omega_total Omega calls spent, by answering tier.",
            "# TYPE pipesched_tier_omega_total counter",
            "pipesched_tier_omega_total{tier=\"cache\"} 0",
            "pipesched_tier_omega_total{tier=\"list\"} 0",
            "pipesched_tier_omega_total{tier=\"windowed\"} 13300",
            "pipesched_tier_omega_total{tier=\"bnb\"} 50074",
            "# HELP pipesched_backend_answers_total Answers produced, by concrete solving backend.",
            "# TYPE pipesched_backend_answers_total counter",
            "pipesched_backend_answers_total{backend=\"bnb\"} 47",
            "pipesched_backend_answers_total{backend=\"sat\"} 3",
            "# HELP pipesched_sat_conflicts_total CDCL conflicts across every SAT-backend query.",
            "# TYPE pipesched_sat_conflicts_total counter",
            "pipesched_sat_conflicts_total 325",
            "# HELP pipesched_sat_decisions_total CDCL decisions across every SAT-backend query.",
            "# TYPE pipesched_sat_decisions_total counter",
            "pipesched_sat_decisions_total 78",
            "# HELP pipesched_sat_propagations_total CDCL unit propagations across every SAT-backend query.",
            "# TYPE pipesched_sat_propagations_total counter",
            "pipesched_sat_propagations_total 9017",
            "# HELP pipesched_parallel_steals_total Subtree tasks stolen by idle workers of the parallel search.",
            "# TYPE pipesched_parallel_steals_total counter",
            "pipesched_parallel_steals_total 3",
            "# HELP pipesched_parallel_splits_total Subtree tasks split off by workers of the parallel search.",
            "# TYPE pipesched_parallel_splits_total counter",
            "pipesched_parallel_splits_total 17",
            "# HELP pipesched_search_nodes_total Search-tree nodes visited across all searches.",
            "# TYPE pipesched_search_nodes_total counter",
            "pipesched_search_nodes_total 1022",
            "# HELP pipesched_search_omega_total Omega calls across all searches.",
            "# TYPE pipesched_search_omega_total counter",
            "pipesched_search_omega_total 3525",
            "# HELP pipesched_search_pruned_total Candidates pruned, by rule.",
            "# TYPE pipesched_search_pruned_total counter",
            "pipesched_search_pruned_total{rule=\"quick\"} 4",
            "pipesched_search_pruned_total{rule=\"legality\"} 1842",
            "pipesched_search_pruned_total{rule=\"equivalence\"} 9",
            "pipesched_search_pruned_total{rule=\"bound\"} 2229",
            "pipesched_search_pruned_total{rule=\"symmetry\"} 2",
            "pipesched_search_pruned_total{rule=\"dominance\"} 190",
            "# HELP pipesched_search_identity_ok 1 when the aggregate satisfies nodes + bound-pruned + dominance-pruned == searches + omega.",
            "# TYPE pipesched_search_identity_ok gauge",
            "pipesched_search_identity_ok 0",
            "# HELP pipesched_request_latency_micros Per-request wall-clock latency, microseconds.",
            "# TYPE pipesched_request_latency_micros summary",
            "pipesched_request_latency_micros{quantile=\"0.5\"} 12",
            "pipesched_request_latency_micros{quantile=\"0.9\"} 768",
            "pipesched_request_latency_micros{quantile=\"0.99\"} 410000",
            "pipesched_request_latency_micros{quantile=\"0.999\"} 410000",
            "pipesched_request_latency_micros_sum 477351",
            "pipesched_request_latency_micros_count 50",
            "# HELP pipesched_cache_entries Live schedule-cache entries.",
            "# TYPE pipesched_cache_entries gauge",
            "pipesched_cache_entries 2",
            "# HELP pipesched_cache_evictions_total Schedule-cache LRU evictions.",
            "# TYPE pipesched_cache_evictions_total counter",
            "pipesched_cache_evictions_total 3",
            "# HELP pipesched_trace_evicted_total Completed traces evicted off the trace store's ring.",
            "# TYPE pipesched_trace_evicted_total counter",
            "pipesched_trace_evicted_total 4",
            "# HELP pipesched_flight_events_total Wide events committed to the flight recorder.",
            "# TYPE pipesched_flight_events_total counter",
            "pipesched_flight_events_total 6",
            "# HELP pipesched_flight_evicted_total Wide events evicted off the flight recorder's ring.",
            "# TYPE pipesched_flight_evicted_total counter",
            "pipesched_flight_evicted_total 5",
            "# HELP pipesched_flight_dumps_total Anomaly dumps the flight recorder froze.",
            "# TYPE pipesched_flight_dumps_total counter",
            "pipesched_flight_dumps_total 1",
            "# HELP pipesched_slo_burn_rate Error-budget burn rate per latency objective (1.0 = provisioned).",
            "# TYPE pipesched_slo_burn_rate gauge",
            "pipesched_slo_burn_rate{slo=\"total_p99_10ms\"} 3.9999999999999964",
            "pipesched_slo_burn_rate{slo=\"total_p999_100ms\"} 19.999999999999982",
            "pipesched_slo_burn_rate{slo=\"cache_p99_1ms\"} 0",
            "pipesched_slo_burn_rate{slo=\"list_p99_5ms\"} 0",
            "pipesched_slo_burn_rate{slo=\"windowed_p99_50ms\"} 49.99999999999996",
            "pipesched_slo_burn_rate{slo=\"bnb_p95_500ms\"} 0",
            "pipesched_slo_burn_rate{slo=\"backend_bnb_p99_200ms\"} 0",
            "pipesched_slo_burn_rate{slo=\"backend_sat_p95_500ms\"} 0",
            "# HELP pipesched_slo_ok 1 when the objective's budget burns at or under provision.",
            "# TYPE pipesched_slo_ok gauge",
            "pipesched_slo_ok{slo=\"total_p99_10ms\"} 0",
            "pipesched_slo_ok{slo=\"total_p999_100ms\"} 0",
            "pipesched_slo_ok{slo=\"cache_p99_1ms\"} 1",
            "pipesched_slo_ok{slo=\"list_p99_5ms\"} 1",
            "pipesched_slo_ok{slo=\"windowed_p99_50ms\"} 0",
            "pipesched_slo_ok{slo=\"bnb_p95_500ms\"} 1",
            "pipesched_slo_ok{slo=\"backend_bnb_p99_200ms\"} 1",
            "pipesched_slo_ok{slo=\"backend_sat_p95_500ms\"} 1",
            "# HELP pipesched_slo_violations Objectives currently burning error budget above provision.",
            "# TYPE pipesched_slo_violations gauge",
            "pipesched_slo_violations 3",
        ]);
    check(&eng.stats_json().to_compact(), "{\"metrics\":{\"requests\":52,\"errors\":2,\"cache_hits\":42,\"cache_misses\":8,\"budget_exhausted\":3,\"opt_verified\":2,\"opt_rejected\":1,\"tier_answers\":{\"cache\":42,\"list\":2,\"windowed\":2,\"bnb\":4},\"tier_omega\":{\"cache\":0,\"list\":0,\"windowed\":13300,\"bnb\":50074},\"backend_answers\":{\"bnb\":47,\"sat\":3},\"sat\":{\"conflicts\":325,\"decisions\":78,\"propagations\":9017},\"parallel\":{\"steals\":3,\"splits\":17},\"latency_micros\":{\"count\":50,\"mean\":9547,\"p50\":12,\"p90\":768,\"p99\":410000,\"p999\":410000},\"search\":{\"searches\":14,\"nodes_visited\":1022,\"omega_calls\":3525,\"complete_schedules\":14,\"improvements\":13,\"pruned_quick\":4,\"pruned_legality\":1842,\"pruned_equivalence\":9,\"pruned_bound\":2229,\"pruned_symmetry\":2,\"pruned_dominance\":190,\"eligible_searches\":3,\"identity_holds\":false}},\"cache\":{\"entries\":2,\"hits\":0,\"misses\":5,\"evictions\":3,\"shards\":1,\"shard_sizes\":[2]},\"slo\":{\"violations\":3,\"objectives\":[{\"name\":\"total_p99_10ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":10000,\"target_fraction\":0.99,\"count\":50,\"good\":48,\"bad\":2,\"burn_rate\":3.9999999999999964,\"ok\":false},{\"name\":\"total_p999_100ms\",\"scope\":{\"kind\":\"total\"},\"target_micros\":100000,\"target_fraction\":0.999,\"count\":50,\"good\":49,\"bad\":1,\"burn_rate\":19.999999999999982,\"ok\":false},{\"name\":\"cache_p99_1ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"cache\"},\"target_micros\":1000,\"target_fraction\":0.99,\"count\":42,\"good\":42,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"list_p99_5ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"list\"},\"target_micros\":5000,\"target_fraction\":0.99,\"count\":2,\"good\":2,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"windowed_p99_50ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"windowed\"},\"target_micros\":50000,\"target_fraction\":0.99,\"count\":2,\"good\":1,\"bad\":1,\"burn_rate\":49.99999999999996,\"ok\":false},{\"name\":\"bnb_p95_500ms\",\"scope\":{\"kind\":\"tier\",\"tier\":\"bnb\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":4,\"good\":4,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_bnb_p99_200ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"bnb\"},\"target_micros\":200000,\"target_fraction\":0.99,\"count\":47,\"good\":47,\"bad\":0,\"burn_rate\":0.0,\"ok\":true},{\"name\":\"backend_sat_p95_500ms\",\"scope\":{\"kind\":\"backend\",\"backend\":\"sat\"},\"target_micros\":500000,\"target_fraction\":0.95,\"count\":3,\"good\":3,\"bad\":0,\"burn_rate\":0.0,\"ok\":true}]},\"trace\":{\"stored\":1,\"capacity\":128,\"evicted\":4},\"flight\":{\"recorded\":6,\"evicted\":5,\"suppressed\":0,\"dumps\":1,\"dumps_taken\":1,\"capacity\":1,\"stored\":1},\"config\":{\"default_nodes\":50000,\"window\":12,\"windowed_share\":4,\"prove\":false,\"verify_opt\":false,\"backend\":\"bnb\",\"threads\":1}}");
}
