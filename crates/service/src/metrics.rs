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
//! identity on the aggregate.
//!
//! Every counter family is one row of [`COUNTERS`] — its `/stats` key,
//! Prometheus name, help and labels, and where its counts live — and
//! [`Metrics::to_json`], [`Metrics::write_prometheus`] and
//! `ServiceEngine::prometheus` render the rows, so a new counter is one
//! row.

use std::slice::from_ref as one;
use std::sync::atomic::{AtomicU64, Ordering};

use pipesched_core::{Backend, Prune, SearchStats};
use pipesched_json::Json;
use pipesched_trace::flight::{Cache, FlightStats, Outcome, WideEvent};
use pipesched_trace::prom::PromWriter;

pub use pipesched_trace::hist::LatencyHistogram;

use crate::engine::{ServiceEngine, Tier};

/// The backends an answer can name, in counter-slot order. A race
/// resolves to the side that won, so `Race` answers nothing.
pub const ANSWERING: [Backend; 2] = [Backend::Bnb, Backend::Sat];

/// The counter slot of the backend that answered ([`ANSWERING`] order):
/// anything but SAT is the B&B slot.
pub fn backend_slot(backend: Backend) -> usize {
    usize::from(backend == Backend::Sat)
}

/// What a counter family's samples are labelled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Labels {
    /// One unlabelled sample.
    None,
    /// `tier`: one sample per [`Tier`].
    Tier,
    /// `backend`: one sample per [`ANSWERING`] backend.
    Backend,
    /// `rule`: one sample per [`Prune`] rule.
    Rule,
}

impl Labels {
    /// The label key and its values, in counter-slot order; `None` for an
    /// unlabelled family.
    pub fn values(self) -> Option<(&'static str, Vec<&'static str>)> {
        match self {
            Labels::None => None,
            Labels::Tier => Some(("tier", Tier::ALL.map(Tier::name).to_vec())),
            Labels::Backend => Some(("backend", ANSWERING.map(Backend::name).to_vec())),
            Labels::Rule => Some(("rule", Prune::ALL.map(Prune::name).to_vec())),
        }
    }
}

/// Where a counter family's counts live.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Counters of [`Metrics`], one per label value; [`Metrics::to_json`]
    /// renders them.
    Metrics(fn(&Metrics) -> &[AtomicU64]),
    /// Counters of the fleet [`SearchAggregate`], which renders its own
    /// `/stats` object.
    Search(fn(&SearchAggregate) -> &[AtomicU64]),
    /// A count the engine reads when scraped.
    Engine(fn(&ServiceEngine, &FlightStats) -> u64),
}

/// One counter family of `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// Where `/stats` shows the count: `.`-separated keys from the
    /// document root; a labelled family's value there is an object keyed
    /// by label value, or `*` in the last key stands for it.
    pub stats: &'static str,
    /// The Prometheus family name.
    pub name: &'static str,
    /// What its samples are labelled by.
    pub labels: Labels,
    /// Where its counts live.
    source: Source,
    /// The `# HELP` text.
    pub help: &'static str,
}

impl Counter {
    /// Write the family: its header and one sample per count.
    fn write(&self, w: &mut PromWriter, counts: &[u64]) {
        let samples = counts.iter().map(|&c| c as f64);
        match self.labels.values() {
            None => w.counter(self.name, self.help, counts[0]),
            Some((key, values)) => w.labeled(
                self.name,
                self.help,
                "counter",
                key,
                values.into_iter().zip(samples),
            ),
        }
    }
}

/// The counter table: one row per family, `"/stats key" => "Prometheus
/// name", labels, source, "help";`.
macro_rules! counters {
    ($( $stats:literal => $name:literal, $labels:ident, $source:expr, $help:literal; )*) => {
        /// Every counter family of `/metrics`, in exposition order.
        pub const COUNTERS: &[Counter] = &[
            $( Counter { stats: $stats, name: $name, labels: Labels::$labels, source: $source, help: $help }, )*
        ];
    };
}

counters! {
    "metrics.requests" => "pipesched_requests_total", None,
        Source::Metrics(|m| one(&m.requests)), "Scheduling requests received.";
    "metrics.errors" => "pipesched_errors_total", None,
        Source::Metrics(|m| one(&m.errors)), "Requests that failed to parse or schedule.";
    "metrics.cache_hits" => "pipesched_cache_hits_total", None,
        Source::Metrics(|m| one(&m.cache_hits)), "Validated schedule-cache hits.";
    "metrics.cache_misses" => "pipesched_cache_misses_total", None,
        Source::Metrics(|m| one(&m.cache_misses)), "Schedule-cache misses (or failed hit validation).";
    "metrics.budget_exhausted" => "pipesched_budget_exhausted_total", None,
        Source::Metrics(|m| one(&m.budget_exhausted)), "Requests whose node budget or deadline expired.";
    "metrics.opt_verified" => "pipesched_opt_verified_total", None,
        Source::Metrics(|m| one(&m.opt_verified)), "Request blocks that passed the optimizer validation gate.";
    "metrics.opt_rejected" => "pipesched_opt_rejected_total", None,
        Source::Metrics(|m| one(&m.opt_rejected)), "Request blocks rejected by the translation validator.";
    "metrics.tier_answers" => "pipesched_tier_answers_total", Tier,
        Source::Metrics(|m| &m.tier_answers), "Answers produced, by escalation tier.";
    "metrics.tier_omega" => "pipesched_tier_omega_total", Tier,
        Source::Metrics(|m| &m.tier_omega), "Omega calls spent, by answering tier.";
    "metrics.backend_answers" => "pipesched_backend_answers_total", Backend,
        Source::Metrics(|m| &m.backend_answers), "Answers produced, by concrete solving backend.";
    "metrics.sat.conflicts" => "pipesched_sat_conflicts_total", None,
        Source::Metrics(|m| one(&m.sat_conflicts)), "CDCL conflicts across every SAT-backend query.";
    "metrics.sat.decisions" => "pipesched_sat_decisions_total", None,
        Source::Metrics(|m| one(&m.sat_decisions)), "CDCL decisions across every SAT-backend query.";
    "metrics.sat.propagations" => "pipesched_sat_propagations_total", None,
        Source::Metrics(|m| one(&m.sat_propagations)), "CDCL unit propagations across every SAT-backend query.";
    "metrics.parallel.steals" => "pipesched_parallel_steals_total", None,
        Source::Metrics(|m| one(&m.parallel_steals)), "Subtree tasks stolen by idle workers of the parallel search.";
    "metrics.parallel.splits" => "pipesched_parallel_splits_total", None,
        Source::Metrics(|m| one(&m.parallel_splits)), "Subtree tasks split off by workers of the parallel search.";
    "metrics.search.nodes_visited" => "pipesched_search_nodes_total", None,
        Source::Search(|s| one(&s.nodes_visited)), "Search-tree nodes visited across all searches.";
    "metrics.search.omega_calls" => "pipesched_search_omega_total", None,
        Source::Search(|s| one(&s.omega_calls)), "Omega calls across all searches.";
    "metrics.search.pruned_*" => "pipesched_search_pruned_total", Rule,
        Source::Search(|s| &s.pruned), "Candidates pruned, by rule.";
    "cache.evictions" => "pipesched_cache_evictions_total", None,
        Source::Engine(|e, _| e.cache().evictions()), "Schedule-cache LRU evictions.";
    "trace.evicted" => "pipesched_trace_evicted_total", None,
        Source::Engine(|_, _| pipesched_trace::store::evicted_total()),
        "Completed traces evicted off the trace store's ring.";
    "flight.recorded" => "pipesched_flight_events_total", None,
        Source::Engine(|_, f| f.recorded), "Wide events committed to the flight recorder.";
    "flight.evicted" => "pipesched_flight_evicted_total", None,
        Source::Engine(|_, f| f.evicted), "Wide events evicted off the flight recorder's ring.";
    "flight.dumps_taken" => "pipesched_flight_dumps_total", None,
        Source::Engine(|_, f| f.dumps_taken), "Anomaly dumps the flight recorder froze.";
}

/// Load every counter.
fn load(counters: &[AtomicU64]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Put `value` at the `.`-separated `path` of `doc`, opening a nested
/// object after the last one unless that object is the path's group.
fn put(doc: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((group, rest)) = path.split_once('.') else {
        doc.push((path.to_string(), value));
        return;
    };
    if !matches!(doc.last(), Some((g, Json::Object(_))) if g == group) {
        doc.push((group.to_string(), Json::Object(Vec::new())));
    }
    if let Some((_, Json::Object(inner))) = doc.last_mut() {
        put(inner, rest, value);
    }
}

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
    /// Prunes by rule: `pruned[rule as usize]` for each [`Prune`].
    pub pruned: [AtomicU64; Prune::ALL.len()],
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
        for rule in Prune::ALL {
            add(&self.pruned[rule as usize], stats.pruned(rule));
        }
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

    /// Dump the aggregate as a JSON object: the counters, then
    /// `pruned_<rule>` for each [`Prune`] rule, then the identity.
    pub fn to_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        let counters = [
            ("searches", &self.searches),
            ("nodes_visited", &self.nodes_visited),
            ("omega_calls", &self.omega_calls),
            ("complete_schedules", &self.complete_schedules),
            ("improvements", &self.improvements),
        ];
        let mut fields: Vec<(String, Json)> = counters
            .into_iter()
            .map(|(key, c)| (key.to_string(), load(c)))
            .collect();
        let prunes = Prune::ALL.iter().zip(&self.pruned);
        fields.extend(prunes.map(|(rule, c)| (format!("pruned_{}", rule.name()), load(c))));
        fields.push(("eligible_searches".into(), load(&self.eligible_searches)));
        fields.push(("identity_holds".into(), self.identity_holds().into()));
        Json::Object(fields)
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
    /// Answers produced per tier, in [`Tier::ALL`] order.
    pub tier_answers: [AtomicU64; Tier::ALL.len()],
    /// Ω calls spent per answering tier (cache answers spend none).
    pub tier_omega: [AtomicU64; Tier::ALL.len()],
    /// Answers produced per concrete solving backend, in [`ANSWERING`]
    /// order. A raced answer counts for the side that won; cache hits
    /// count for the backend that populated the entry.
    pub backend_answers: [AtomicU64; ANSWERING.len()],
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
    /// Per-request latency split by answering tier — the SLO tracker's
    /// per-tier objectives read these.
    pub tier_latency: [LatencyHistogram; Tier::ALL.len()],
    /// Per-request latency split by concrete solving backend.
    pub backend_latency: [LatencyHistogram; ANSWERING.len()],
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
        let rejected = ev.outcome == Outcome::AdmissionReject;
        if rejected || ev.outcome == Outcome::Error {
            add(&self.errors, 1);
        }
        if rejected {
            add(&self.opt_rejected, 1);
        }
        let Some(tier) = Tier::from_name(ev.tier) else {
            return;
        };
        let backend = backend_slot(Backend::from_name(ev.backend).unwrap_or_default());
        add(&self.tier_answers[tier.index()], 1);
        add(&self.tier_omega[tier.index()], ev.omega);
        add(&self.backend_answers[backend], 1);
        if ev.cache == Cache::Hit {
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

    /// Dump every counter as a JSON object: the rows of [`COUNTERS`] kept
    /// in `Metrics` itself, the latency summary, then the search aggregate.
    pub fn to_json(&self) -> Json {
        let mut doc = Vec::new();
        for row in COUNTERS {
            let Source::Metrics(counters) = row.source else {
                continue;
            };
            let counts = load(counters(self));
            let value = match row.labels.values() {
                None => Json::Int(counts[0] as i64),
                Some((_, values)) => Json::Object(
                    (values.iter().zip(counts))
                        .map(|(value, c)| (value.to_string(), Json::Int(c as i64)))
                        .collect(),
                ),
            };
            put(
                &mut doc,
                row.stats.strip_prefix("metrics.").unwrap_or(row.stats),
                value,
            );
        }
        let latency = pipesched_json::json_object![
            ("count", self.latency.count() as i64),
            ("mean", self.latency.mean_micros() as i64),
            ("p50", self.latency.quantile_micros(0.50) as i64),
            ("p90", self.latency.quantile_micros(0.90) as i64),
            ("p99", self.latency.quantile_micros(0.99) as i64),
            ("p999", self.latency.quantile_micros(0.999) as i64),
        ];
        doc.push(("latency_micros".into(), latency));
        doc.push(("search".into(), self.search.to_json()));
        Json::Object(doc)
    }

    /// Write the snapshot as Prometheus text exposition (the `/metrics`
    /// payload; see the README's family table): the [`COUNTERS`] rows
    /// kept here and in the search aggregate, the node-identity gauge and
    /// the latency summary.
    pub fn write_prometheus(&self, w: &mut PromWriter) {
        for row in COUNTERS {
            match row.source {
                Source::Metrics(counters) => row.write(w, &load(counters(self))),
                Source::Search(counters) => row.write(w, &load(counters(&self.search))),
                Source::Engine(_) => {}
            }
        }
        w.gauge(
            "pipesched_search_identity_ok",
            "1 when the aggregate satisfies \
             nodes + bound-pruned + dominance-pruned == searches + omega.",
            f64::from(u8::from(self.search.identity_holds())),
        );
        let latency = "pipesched_request_latency_micros";
        let quantiles = [
            ("0.5", 0.50),
            ("0.9", 0.90),
            ("0.99", 0.99),
            ("0.999", 0.999),
        ];
        w.labeled(
            latency,
            "Per-request wall-clock latency, microseconds.",
            "summary",
            "quantile",
            quantiles.map(|(label, q)| (label, self.latency.quantile_micros(q) as f64)),
        );
        w.sample(&format!("{latency}_sum"), self.latency.sum_micros() as f64);
        w.sample(&format!("{latency}_count"), self.latency.count() as f64);
    }
}

/// Write the engine-level [`COUNTERS`] rows, read from `engine`.
pub(crate) fn write_engine_counters(engine: &ServiceEngine, w: &mut PromWriter) {
    let flight = pipesched_trace::flight::stats();
    for row in COUNTERS {
        if let Source::Engine(read) = row.source {
            row.write(w, &[read(engine, &flight)]);
        }
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
        ev.cache = if cache_hit { Cache::Hit } else { Cache::Miss };
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

    /// Every counter row's `/stats` key holds the counts its Prometheus
    /// samples print, each at a distinct value.
    #[test]
    fn every_counter_reads_the_same_in_stats_and_metrics() {
        // No other test commits a wide event or a trace meanwhile.
        let _l = crate::flight_test_lock();
        let eng = ServiceEngine::new(crate::EngineConfig::default(), 4, 1);
        let m = eng.metrics();
        m.record(&answered(Tier::Bnb, Backend::Sat, false, true, 250, 31));
        m.record(&answered(Tier::Cache, Backend::Bnb, true, false, 20, 0));
        m.record(&answered(
            Tier::Windowed,
            Backend::Bnb,
            false,
            false,
            900,
            77,
        ));
        m.record_sat_effort(5, 2, 40);
        m.record_parallel(3, 17);
        m.record_opt_verified();
        let stats = SearchStats {
            nodes_visited: 32,
            omega_calls: 40,
            pruned_legality: 11,
            pruned_bound: 7,
            pruned_dominance: 2,
            ..SearchStats::default()
        };
        m.search.record(&stats, true);
        let doc = eng.stats_json();
        let scrape = eng.prometheus();
        for row in COUNTERS {
            let (path, last) = row.stats.rsplit_once('.').expect("a keyed path");
            let parent = path.split('.').try_fold(&doc, |d, key| d.get(key));
            let at = |key: &str| parent.and_then(|p| p.get(key)).and_then(Json::as_i64);
            let in_stats: Vec<Option<i64>> = match row.labels.values() {
                None => vec![at(last)],
                Some((_, values)) if last.contains('*') => {
                    values.iter().map(|v| at(&last.replace('*', v))).collect()
                }
                Some((_, values)) => values
                    .iter()
                    .map(|v| parent.and_then(|p| p.get(last)?.get(v)?.as_i64()))
                    .collect(),
            };
            let in_metrics: Vec<Option<i64>> = scrape
                .lines()
                .filter(|l| {
                    l.strip_prefix(row.name)
                        .is_some_and(|r| r.starts_with([' ', '{']))
                })
                .map(|l| l.rsplit(' ').next().and_then(|v| v.parse().ok()))
                .collect();
            assert_eq!(in_stats, in_metrics, "{} at /stats {}", row.name, row.stats);
        }
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
