//! Lock-cheap service counters.
//!
//! Every counter is a relaxed atomic — the request hot path never takes a
//! lock to record metrics. The request-level counters and the latency
//! histograms ([`LatencyHistogram`], from `pipesched-trace`) all derive
//! from one record per request: [`Metrics::record`] folds in the wide
//! event the serve loop commits, so `/metrics`, `/slo` and the flight
//! ring see the same request. [`SearchAggregate`] folds every
//! [`SearchStats`] the engine produces into fleet-wide search effort,
//! re-checking the `1 + Ω − bound-pruned − dominance-pruned == nodes`
//! identity on the
//! aggregate, and [`Metrics::write_prometheus`] renders the whole snapshot
//! as Prometheus text for the `/metrics` endpoint.

use std::sync::atomic::{AtomicU64, Ordering};

use pipesched_core::{Backend, SearchStats};
use pipesched_json::Json;
use pipesched_trace::flight::{Outcome, WideEvent};
use pipesched_trace::prom::PromWriter;

pub use pipesched_trace::hist::LatencyHistogram;

use crate::engine::Tier;

/// Fleet-wide search effort: every [`SearchStats`] the engine produces,
/// summed. The raw columns count *all* searches (list probes, windowed
/// sub-searches, full B&B runs); the `eligible_*` mirrors count only the
/// completed single searches for which the node identity
/// `nodes == 1 + Ω − bound-pruned − dominance-pruned` holds per run, so
/// the identity can be re-checked on the aggregate:
/// `eligible_nodes == eligible_searches + eligible_Ω − eligible_pruned`,
/// with both prune columns in `eligible_pruned`.
#[derive(Debug, Default)]
pub struct SearchAggregate {
    /// Searches recorded (all kinds).
    pub searches: AtomicU64,
    /// Total search-tree nodes visited.
    pub nodes_visited: AtomicU64,
    /// Total Ω calls.
    pub omega_calls: AtomicU64,
    /// Complete schedules reached.
    pub complete_schedules: AtomicU64,
    /// Incumbent improvements.
    pub improvements: AtomicU64,
    /// Candidates rejected by the quick [5a] check.
    pub pruned_quick: AtomicU64,
    /// Candidates rejected by the readiness test [5b].
    pub pruned_legality: AtomicU64,
    /// Candidates rejected by the equivalence filter [5c].
    pub pruned_equivalence: AtomicU64,
    /// Subtrees abandoned by the α-β / lower-bound test [6].
    pub pruned_bound: AtomicU64,
    /// Pipeline-unit choices skipped by symmetry breaking.
    pub pruned_symmetry: AtomicU64,
    /// Placements pruned by a closed prefix of the same set.
    pub pruned_dominance: AtomicU64,
    /// Identity-eligible searches (single, completed, not proved early).
    pub eligible_searches: AtomicU64,
    /// Nodes visited by identity-eligible searches.
    pub eligible_nodes: AtomicU64,
    /// Ω calls made by identity-eligible searches.
    pub eligible_omega: AtomicU64,
    /// Bound prunes of identity-eligible searches.
    pub eligible_pruned_bound: AtomicU64,
    /// Dominance prunes of identity-eligible searches.
    pub eligible_pruned_dominance: AtomicU64,
}

impl SearchAggregate {
    /// Fold one run's counters in. `single_search` distinguishes a plain
    /// single-rooted search from multi-root aggregates (the windowed tier
    /// sums its per-window stats, which breaks the per-run identity); a
    /// run joins the eligible set only when it is single, ran to
    /// completion, and did not stop early on the global lower bound.
    pub fn record(&self, stats: &SearchStats, single_search: bool) {
        let add = |c: &AtomicU64, v: u64| {
            c.fetch_add(v, Ordering::Relaxed);
        };
        add(&self.searches, 1);
        add(&self.nodes_visited, stats.nodes_visited);
        add(&self.omega_calls, stats.omega_calls);
        add(&self.complete_schedules, stats.complete_schedules);
        add(&self.improvements, stats.improvements);
        add(&self.pruned_quick, stats.pruned_quick);
        add(&self.pruned_legality, stats.pruned_legality);
        add(&self.pruned_equivalence, stats.pruned_equivalence);
        add(&self.pruned_bound, stats.pruned_bound);
        add(&self.pruned_symmetry, stats.pruned_symmetry);
        add(&self.pruned_dominance, stats.pruned_dominance);
        if single_search && !stats.truncated && !stats.proved_by_bound && stats.nodes_visited > 0 {
            add(&self.eligible_searches, 1);
            add(&self.eligible_nodes, stats.nodes_visited);
            add(&self.eligible_omega, stats.omega_calls);
            add(&self.eligible_pruned_bound, stats.pruned_bound);
            add(&self.eligible_pruned_dominance, stats.pruned_dominance);
        }
    }

    /// Re-check the node identity on the eligible aggregate: summing
    /// `nodes == 1 + Ω − bound-pruned − dominance-pruned` over k eligible
    /// runs gives `nodes == k + Ω − bound-pruned − dominance-pruned`.
    /// Vacuously true with no eligible runs.
    pub fn identity_holds(&self) -> bool {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        load(&self.eligible_nodes)
            + load(&self.eligible_pruned_bound)
            + load(&self.eligible_pruned_dominance)
            == load(&self.eligible_searches) + load(&self.eligible_omega)
    }

    /// Per-rule prune totals in a fixed order (for label iteration).
    pub fn prune_totals(&self) -> [(&'static str, u64); 6] {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("quick", load(&self.pruned_quick)),
            ("legality", load(&self.pruned_legality)),
            ("equivalence", load(&self.pruned_equivalence)),
            ("bound", load(&self.pruned_bound)),
            ("symmetry", load(&self.pruned_symmetry)),
            ("dominance", load(&self.pruned_dominance)),
        ]
    }

    /// Dump the aggregate as a JSON object.
    pub fn to_json(&self) -> Json {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as i64;
        pipesched_json::json_object![
            ("searches", load(&self.searches)),
            ("nodes_visited", load(&self.nodes_visited)),
            ("omega_calls", load(&self.omega_calls)),
            ("complete_schedules", load(&self.complete_schedules)),
            ("improvements", load(&self.improvements)),
            ("pruned_quick", load(&self.pruned_quick)),
            ("pruned_legality", load(&self.pruned_legality)),
            ("pruned_equivalence", load(&self.pruned_equivalence)),
            ("pruned_bound", load(&self.pruned_bound)),
            ("pruned_symmetry", load(&self.pruned_symmetry)),
            ("pruned_dominance", load(&self.pruned_dominance)),
            ("eligible_searches", load(&self.eligible_searches)),
            ("identity_holds", self.identity_holds()),
        ]
    }
}

/// Service-wide counters, dumped as JSON on demand or at shutdown.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests received (including failed ones).
    pub requests: AtomicU64,
    /// Requests that failed to parse or schedule.
    pub errors: AtomicU64,
    /// Validated cache hits.
    pub cache_hits: AtomicU64,
    /// Cache lookups that missed (or failed hit validation).
    pub cache_misses: AtomicU64,
    /// Answers produced per tier (cache/list/windowed/bnb).
    pub tier_answers: [AtomicU64; 4],
    /// Ω calls spent per answering tier (cache answers spend none).
    pub tier_omega: [AtomicU64; 4],
    /// Answers produced per concrete solving backend (bnb/sat). A raced
    /// answer counts for the side that won; cache hits count for the
    /// backend that populated the entry.
    pub backend_answers: [AtomicU64; 2],
    /// CDCL conflicts across every SAT query the engine ran.
    pub sat_conflicts: AtomicU64,
    /// CDCL decisions across every SAT query.
    pub sat_decisions: AtomicU64,
    /// CDCL unit propagations across every SAT query.
    pub sat_propagations: AtomicU64,
    /// Requests whose search budget or deadline expired (answer was the
    /// incumbent, `optimal=false`).
    pub budget_exhausted: AtomicU64,
    /// Request blocks that passed the optimizer translation-validation
    /// gate (`verify_opt` on).
    pub opt_verified: AtomicU64,
    /// Request blocks the translation validator rejected (`A05xx`).
    pub opt_rejected: AtomicU64,
    /// Subtree tasks stolen by idle workers of the parallel B&B tier.
    pub parallel_steals: AtomicU64,
    /// Subtree tasks split off by workers of the parallel B&B tier.
    pub parallel_splits: AtomicU64,
    /// Per-request wall-clock latency: the committed wide event's
    /// `micros`, one observation per answered request.
    pub latency: LatencyHistogram,
    /// Per-request latency split by answering tier (cache/list/windowed/
    /// bnb) — the SLO tracker's per-tier objectives read these.
    pub tier_latency: [LatencyHistogram; 4],
    /// Per-request latency split by concrete solving backend (bnb/sat).
    pub backend_latency: [LatencyHistogram; 2],
    /// Fleet-wide search effort across every tier's searches.
    pub search: SearchAggregate,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Fold in one committed request record: the request, error, cache,
    /// tier, backend and budget counters and the latency histograms all
    /// derive from the wide event, so `micros` is the one latency a
    /// request has. Requests that produced no answer (tier `-`) count as
    /// requests and errors only.
    pub fn record(&self, ev: &WideEvent) {
        let add = |c: &AtomicU64, v: u64| {
            c.fetch_add(v, Ordering::Relaxed);
        };
        add(&self.requests, 1);
        let rejected = ev.outcome == Outcome::AdmissionReject.name();
        if rejected || ev.outcome == Outcome::Error.name() {
            add(&self.errors, 1);
        }
        if rejected {
            add(&self.opt_rejected, 1);
        }
        let Some(tier) = Tier::from_name(ev.tier) else {
            return;
        };
        // `Race` never reaches an event — the engine resolves every race
        // to the winning side — so anything but SAT is the B&B slot.
        let backend = usize::from(ev.backend == Backend::Sat.name());
        add(&self.tier_answers[tier.index()], 1);
        add(&self.tier_omega[tier.index()], ev.omega);
        add(&self.backend_answers[backend], 1);
        if ev.cache == "hit" {
            add(&self.cache_hits, 1);
        } else {
            add(&self.cache_misses, 1);
            if !ev.optimal {
                add(&self.budget_exhausted, 1);
            }
        }
        self.latency.record(ev.micros);
        self.tier_latency[tier.index()].record(ev.micros);
        self.backend_latency[backend].record(ev.micros);
    }

    /// Count one request block that passed the optimizer validation gate.
    pub fn record_opt_verified(&self) {
        self.opt_verified.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the work-distribution counters of one parallel B&B run.
    pub fn record_parallel(&self, steals: u64, splits: u64) {
        self.parallel_steals.fetch_add(steals, Ordering::Relaxed);
        self.parallel_splits.fetch_add(splits, Ordering::Relaxed);
    }

    /// Record the CDCL effort of one SAT-backend run (or the SAT side of
    /// a race).
    pub fn record_sat_effort(&self, conflicts: u64, decisions: u64, propagations: u64) {
        self.sat_conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.sat_decisions.fetch_add(decisions, Ordering::Relaxed);
        self.sat_propagations
            .fetch_add(propagations, Ordering::Relaxed);
    }

    /// Dump every counter as a JSON object.
    pub fn to_json(&self) -> Json {
        let tier = |t: Tier| self.tier_answers[t.index()].load(Ordering::Relaxed);
        let omega = |t: Tier| self.tier_omega[t.index()].load(Ordering::Relaxed);
        pipesched_json::json_object![
            ("requests", self.requests.load(Ordering::Relaxed) as i64),
            ("errors", self.errors.load(Ordering::Relaxed) as i64),
            ("cache_hits", self.cache_hits.load(Ordering::Relaxed) as i64),
            (
                "cache_misses",
                self.cache_misses.load(Ordering::Relaxed) as i64
            ),
            (
                "budget_exhausted",
                self.budget_exhausted.load(Ordering::Relaxed) as i64
            ),
            (
                "opt_verified",
                self.opt_verified.load(Ordering::Relaxed) as i64
            ),
            (
                "opt_rejected",
                self.opt_rejected.load(Ordering::Relaxed) as i64
            ),
            (
                "tier_answers",
                pipesched_json::json_object![
                    ("cache", tier(Tier::Cache) as i64),
                    ("list", tier(Tier::List) as i64),
                    ("windowed", tier(Tier::Windowed) as i64),
                    ("bnb", tier(Tier::Bnb) as i64),
                ]
            ),
            (
                "tier_omega",
                pipesched_json::json_object![
                    ("cache", omega(Tier::Cache) as i64),
                    ("list", omega(Tier::List) as i64),
                    ("windowed", omega(Tier::Windowed) as i64),
                    ("bnb", omega(Tier::Bnb) as i64),
                ]
            ),
            (
                "backend_answers",
                pipesched_json::json_object![
                    (
                        "bnb",
                        self.backend_answers[0].load(Ordering::Relaxed) as i64
                    ),
                    (
                        "sat",
                        self.backend_answers[1].load(Ordering::Relaxed) as i64
                    ),
                ]
            ),
            (
                "sat",
                pipesched_json::json_object![
                    (
                        "conflicts",
                        self.sat_conflicts.load(Ordering::Relaxed) as i64
                    ),
                    (
                        "decisions",
                        self.sat_decisions.load(Ordering::Relaxed) as i64
                    ),
                    (
                        "propagations",
                        self.sat_propagations.load(Ordering::Relaxed) as i64
                    ),
                ]
            ),
            (
                "parallel",
                pipesched_json::json_object![
                    (
                        "steals",
                        self.parallel_steals.load(Ordering::Relaxed) as i64
                    ),
                    (
                        "splits",
                        self.parallel_splits.load(Ordering::Relaxed) as i64
                    ),
                ]
            ),
            (
                "latency_micros",
                pipesched_json::json_object![
                    ("count", self.latency.count() as i64),
                    ("mean", self.latency.mean_micros() as i64),
                    ("p50", self.latency.quantile_micros(0.50) as i64),
                    ("p90", self.latency.quantile_micros(0.90) as i64),
                    ("p99", self.latency.quantile_micros(0.99) as i64),
                    ("p999", self.latency.quantile_micros(0.999) as i64),
                ]
            ),
            ("search", self.search.to_json()),
        ]
    }

    /// Write the snapshot as Prometheus text exposition (the `/metrics`
    /// payload; see the README's name/label schema).
    pub fn write_prometheus(&self, w: &mut PromWriter) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        w.counter(
            "pipesched_requests_total",
            "Scheduling requests received.",
            load(&self.requests),
        );
        w.counter(
            "pipesched_errors_total",
            "Requests that failed to parse or schedule.",
            load(&self.errors),
        );
        w.counter(
            "pipesched_cache_hits_total",
            "Validated schedule-cache hits.",
            load(&self.cache_hits),
        );
        w.counter(
            "pipesched_cache_misses_total",
            "Schedule-cache misses (or failed hit validation).",
            load(&self.cache_misses),
        );
        w.counter(
            "pipesched_budget_exhausted_total",
            "Requests whose node budget or deadline expired.",
            load(&self.budget_exhausted),
        );
        w.counter(
            "pipesched_opt_verified_total",
            "Request blocks that passed the optimizer validation gate.",
            load(&self.opt_verified),
        );
        w.counter(
            "pipesched_opt_rejected_total",
            "Request blocks rejected by the translation validator.",
            load(&self.opt_rejected),
        );
        w.header(
            "pipesched_tier_answers_total",
            "Answers produced, by escalation tier.",
            "counter",
        );
        for t in [Tier::Cache, Tier::List, Tier::Windowed, Tier::Bnb] {
            w.sample_labeled(
                "pipesched_tier_answers_total",
                &[("tier", t.name())],
                load(&self.tier_answers[t.index()]) as f64,
            );
        }
        w.header(
            "pipesched_tier_omega_total",
            "Omega calls spent, by answering tier.",
            "counter",
        );
        for t in [Tier::Cache, Tier::List, Tier::Windowed, Tier::Bnb] {
            w.sample_labeled(
                "pipesched_tier_omega_total",
                &[("tier", t.name())],
                load(&self.tier_omega[t.index()]) as f64,
            );
        }
        w.header(
            "pipesched_backend_answers_total",
            "Answers produced, by concrete solving backend.",
            "counter",
        );
        for (label, slot) in [("bnb", 0usize), ("sat", 1)] {
            w.sample_labeled(
                "pipesched_backend_answers_total",
                &[("backend", label)],
                load(&self.backend_answers[slot]) as f64,
            );
        }
        w.counter(
            "pipesched_sat_conflicts_total",
            "CDCL conflicts across every SAT-backend query.",
            load(&self.sat_conflicts),
        );
        w.counter(
            "pipesched_sat_decisions_total",
            "CDCL decisions across every SAT-backend query.",
            load(&self.sat_decisions),
        );
        w.counter(
            "pipesched_sat_propagations_total",
            "CDCL unit propagations across every SAT-backend query.",
            load(&self.sat_propagations),
        );
        w.counter(
            "pipesched_parallel_steals_total",
            "Subtree tasks stolen by idle workers of the parallel search.",
            load(&self.parallel_steals),
        );
        w.counter(
            "pipesched_parallel_splits_total",
            "Subtree tasks split off by workers of the parallel search.",
            load(&self.parallel_splits),
        );
        w.counter(
            "pipesched_search_nodes_total",
            "Search-tree nodes visited across all searches.",
            load(&self.search.nodes_visited),
        );
        w.counter(
            "pipesched_search_omega_total",
            "Omega calls across all searches.",
            load(&self.search.omega_calls),
        );
        w.header(
            "pipesched_search_pruned_total",
            "Candidates pruned, by rule.",
            "counter",
        );
        for (rule, total) in self.search.prune_totals() {
            w.sample_labeled(
                "pipesched_search_pruned_total",
                &[("rule", rule)],
                total as f64,
            );
        }
        w.gauge(
            "pipesched_search_identity_ok",
            "1 when the aggregate satisfies nodes == searches + omega - bound-pruned.",
            if self.search.identity_holds() {
                1.0
            } else {
                0.0
            },
        );
        w.header(
            "pipesched_request_latency_micros",
            "Per-request wall-clock latency, microseconds.",
            "summary",
        );
        for (label, q) in [
            ("0.5", 0.50),
            ("0.9", 0.90),
            ("0.99", 0.99),
            ("0.999", 0.999),
        ] {
            w.sample_labeled(
                "pipesched_request_latency_micros",
                &[("quantile", label)],
                self.latency.quantile_micros(q) as f64,
            );
        }
        w.sample(
            "pipesched_request_latency_micros_sum",
            self.latency.sum_micros() as f64,
        );
        w.sample(
            "pipesched_request_latency_micros_count",
            self.latency.count() as f64,
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The committed event of one answered request, built from what the
    /// engine used to report per answer.
    pub(crate) fn answered(
        tier: Tier,
        backend: Backend,
        cache_hit: bool,
        truncated: bool,
        micros: u64,
        omega: u64,
    ) -> WideEvent {
        let mut ev = WideEvent::new(1);
        (ev.tier, ev.backend) = (tier.name(), backend.name());
        ev.cache = if cache_hit { "hit" } else { "miss" };
        (ev.optimal, ev.micros, ev.omega) = (!truncated, micros, omega);
        ev
    }

    #[test]
    fn metrics_json_has_every_counter() {
        let m = Metrics::new();
        m.record(&answered(Tier::Cache, Backend::Bnb, true, false, 12, 0));
        let doc = m.to_json();
        assert_eq!(doc.get("requests").and_then(Json::as_i64), Some(1));
        // Every record is one request: the second answer is a second one.
        m.record(&answered(Tier::Bnb, Backend::Sat, false, true, 90_000, 417));
        m.record_sat_effort(321, 77, 9001);
        let doc = m.to_json();
        assert_eq!(doc.get("requests").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.get("cache_hits").and_then(Json::as_i64), Some(1));
        assert_eq!(doc.get("budget_exhausted").and_then(Json::as_i64), Some(1));
        let tiers = doc.get("tier_answers").unwrap();
        assert_eq!(tiers.get("cache").and_then(Json::as_i64), Some(1));
        assert_eq!(tiers.get("bnb").and_then(Json::as_i64), Some(1));
        let omega = doc.get("tier_omega").unwrap();
        assert_eq!(omega.get("bnb").and_then(Json::as_i64), Some(417));
        let backends = doc.get("backend_answers").unwrap();
        assert_eq!(backends.get("bnb").and_then(Json::as_i64), Some(1));
        assert_eq!(backends.get("sat").and_then(Json::as_i64), Some(1));
        let sat = doc.get("sat").unwrap();
        assert_eq!(sat.get("conflicts").and_then(Json::as_i64), Some(321));
        assert_eq!(sat.get("propagations").and_then(Json::as_i64), Some(9001));
        assert_eq!(
            doc.get("latency_micros")
                .and_then(|l| l.get("count"))
                .and_then(Json::as_i64),
            Some(2)
        );
        assert!(doc
            .get("latency_micros")
            .and_then(|l| l.get("p90"))
            .and_then(Json::as_i64)
            .is_some());
        let search = doc.get("search").unwrap();
        assert_eq!(
            search.get("identity_holds").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn aggregate_identity_holds_over_eligible_searches() {
        let agg = SearchAggregate::default();
        // Three completed single searches obeying the per-run identity,
        // one with dominance prunes.
        for (nodes, omega, pruned, dominated) in [(10, 12, 3, 0), (1, 0, 0, 0), (100, 120, 16, 5)] {
            let stats = SearchStats {
                nodes_visited: nodes,
                omega_calls: omega,
                pruned_bound: pruned,
                pruned_dominance: dominated,
                ..SearchStats::default()
            };
            agg.record(&stats, true);
        }
        // A truncated run and a windowed (multi-root) aggregate: counted
        // raw, excluded from the identity.
        agg.record(
            &SearchStats {
                nodes_visited: 7,
                omega_calls: 99,
                truncated: true,
                ..SearchStats::default()
            },
            true,
        );
        agg.record(
            &SearchStats {
                nodes_visited: 55,
                omega_calls: 60,
                pruned_bound: 1,
                ..SearchStats::default()
            },
            false,
        );
        assert!(agg.identity_holds());
        assert_eq!(agg.searches.load(Ordering::Relaxed), 5);
        assert_eq!(agg.eligible_searches.load(Ordering::Relaxed), 3);
        assert_eq!(
            agg.nodes_visited.load(Ordering::Relaxed),
            10 + 1 + 100 + 7 + 55
        );
        // Violating the identity is detected.
        agg.record(
            &SearchStats {
                nodes_visited: 5,
                omega_calls: 5,
                pruned_bound: 5,
                ..SearchStats::default()
            },
            true,
        );
        assert!(!agg.identity_holds());
    }

    #[test]
    fn prometheus_exposition_is_parseable_and_complete() {
        let m = Metrics::new();
        m.record(&answered(Tier::Bnb, Backend::Sat, false, false, 250, 31));
        m.record_sat_effort(5, 2, 40);
        m.record_parallel(3, 17);
        m.search.record(
            &SearchStats {
                nodes_visited: 32,
                omega_calls: 40,
                pruned_bound: 7,
                pruned_dominance: 2,
                ..SearchStats::default()
            },
            true,
        );
        let mut w = PromWriter::new();
        m.write_prometheus(&mut w);
        let text = w.finish();
        pipesched_trace::prom::validate(&text).expect("exposition must parse");
        assert!(text.contains("pipesched_requests_total 1"));
        assert!(text.contains("pipesched_tier_answers_total{tier=\"bnb\"} 1"));
        assert!(text.contains("pipesched_tier_omega_total{tier=\"bnb\"} 31"));
        assert!(text.contains("pipesched_backend_answers_total{backend=\"sat\"} 1"));
        assert!(text.contains("pipesched_backend_answers_total{backend=\"bnb\"} 0"));
        assert!(text.contains("pipesched_sat_conflicts_total 5"));
        assert!(text.contains("pipesched_sat_propagations_total 40"));
        assert!(text.contains("pipesched_parallel_steals_total 3"));
        assert!(text.contains("pipesched_parallel_splits_total 17"));
        assert!(text.contains("pipesched_search_pruned_total{rule=\"bound\"} 7"));
        assert!(text.contains("pipesched_search_pruned_total{rule=\"dominance\"} 2"));
        assert!(text.contains("pipesched_search_identity_ok 1"));
        assert!(text.contains("pipesched_request_latency_micros_count 1"));
    }
}
