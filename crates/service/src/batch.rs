//! Batch replay: push a request file through the full serving path and
//! measure what came back.
//!
//! `run_batch` feeds an NDJSON request text through [`serve_stream`] (so
//! the worker pool, cache, and response rendering are all exercised — this
//! is the same code path a TCP client hits), times the run, and summarizes
//! it. With `check` enabled every response is re-parsed and certified
//! against its request by `pipesched-analyze`'s independent re-derivation,
//! turning the batch runner into an end-to-end smoke test: the CI gate
//! replays a canned workload and requires 100% certifier-clean responses
//! plus a non-zero cache-hit count.

use std::time::Instant;

use pipesched_analyze::{certify, Claim};
use pipesched_ir::TupleId;
use pipesched_json::{json_object, Json};
use pipesched_machine::PipelineId;
use pipesched_trace::flight;

use crate::engine::ServiceEngine;
use crate::request::parse_request;
use crate::serve::{serve_stream, ServeConfig};

/// What a batch replay did.
#[derive(Debug)]
pub struct BatchSummary {
    /// Request lines fed in.
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
    /// Validated cache hits.
    pub cache_hits: u64,
    /// Responses flagged `optimal=false`.
    pub truncated: u64,
    /// Successful responses answered by the branch-and-bound backend.
    pub backend_bnb: u64,
    /// Successful responses answered by the SAT backend.
    pub backend_sat: u64,
    /// Responses that passed independent certification (only counted when
    /// `check` was on).
    pub certified: u64,
    /// Responses that failed certification.
    pub certify_failures: u64,
    /// Optimal responses whose claim survived a full proof replay: a fresh
    /// certificate-logged search plus the independent checker (only
    /// counted when `prove` was on).
    pub proved: u64,
    /// Optimal responses whose proof replay was rejected or disagreed with
    /// the response μ.
    pub proof_failures: u64,
    /// Wall-clock for the whole replay, microseconds.
    pub wall_micros: u64,
    /// Search-tree nodes visited answering this batch (delta of the
    /// engine's fleet-wide [`crate::metrics::SearchAggregate`]).
    pub search_nodes: u64,
    /// Ω calls spent answering this batch.
    pub search_omega: u64,
    /// Candidates pruned answering this batch, summed over every rule.
    pub search_pruned: u64,
    /// Whether the engine's aggregate `1 + Ω − bound-pruned == nodes`
    /// identity still held after the replay.
    pub identity_ok: bool,
    /// The response lines, in request order.
    pub responses: Vec<String>,
}

impl BatchSummary {
    /// Requests per second over the whole replay.
    pub fn throughput(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.requests as f64 * 1e6 / self.wall_micros as f64
        }
    }

    /// Summary as a JSON object (responses excluded).
    pub fn to_json(&self) -> Json {
        json_object![
            ("requests", self.requests as i64),
            ("ok", self.ok as i64),
            ("errors", self.errors as i64),
            ("cache_hits", self.cache_hits as i64),
            ("truncated", self.truncated as i64),
            (
                "backend_answers",
                json_object![
                    ("bnb", self.backend_bnb as i64),
                    ("sat", self.backend_sat as i64),
                ]
            ),
            ("certified", self.certified as i64),
            ("certify_failures", self.certify_failures as i64),
            ("proved", self.proved as i64),
            ("proof_failures", self.proof_failures as i64),
            ("wall_micros", self.wall_micros as i64),
            ("throughput_rps", self.throughput()),
            ("search_nodes", self.search_nodes as i64),
            ("search_omega", self.search_omega as i64),
            ("search_pruned", self.search_pruned as i64),
            ("identity_ok", self.identity_ok),
        ]
    }
}

/// Replay `input` (NDJSON request text) through `engine`. When `check` is
/// set, every successful response is certified against its request line;
/// when `prove` is also set, every response claiming `optimal` is
/// escalated to a full proof replay — a certificate-logged search of the
/// request block, checked by the independent `pipesched-proof` checker,
/// whose certified μ must equal the response's.
pub fn run_batch(
    engine: &ServiceEngine,
    input: &str,
    config: &ServeConfig,
    check: bool,
    prove: bool,
) -> std::io::Result<BatchSummary> {
    let hits_before = engine.cache().hits();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let agg = &engine.metrics().search;
    let nodes_before = load(&agg.nodes_visited);
    let omega_before = load(&agg.omega_calls);
    let pruned =
        |a: &crate::metrics::SearchAggregate| a.prune_totals().iter().map(|(_, n)| n).sum::<u64>();
    let pruned_before = pruned(agg);
    let start = Instant::now();
    let mut out = Vec::new();
    serve_stream(engine, input.as_bytes(), &mut out, config)?;
    let wall_micros = start.elapsed().as_micros() as u64;

    let responses: Vec<String> = String::from_utf8_lossy(&out)
        .lines()
        .map(str::to_string)
        .collect();
    let mut summary = summarize_responses(
        input,
        responses,
        wall_micros,
        engine.cache().hits() - hits_before,
        check,
        prove,
    );
    summary.search_nodes = load(&agg.nodes_visited) - nodes_before;
    summary.search_omega = load(&agg.omega_calls) - omega_before;
    summary.search_pruned = pruned(agg) - pruned_before;
    summary.identity_ok = agg.identity_holds();
    Ok(summary)
}

/// Build a [`BatchSummary`] from the request text and the response lines
/// it produced. Used by `run_batch` and by remote replays (the CLI's
/// `batch --tcp` client mode) where only the response text is available —
/// there the search-effort fields stay zero (the effort happened in the
/// server process) and `identity_ok` stays vacuously true.
pub fn summarize_responses(
    input: &str,
    responses: Vec<String>,
    wall_micros: u64,
    cache_hits: u64,
    check: bool,
    prove: bool,
) -> BatchSummary {
    let request_lines: Vec<&str> = input.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut summary = BatchSummary {
        requests: request_lines.len() as u64,
        ok: 0,
        errors: 0,
        cache_hits,
        truncated: 0,
        backend_bnb: 0,
        backend_sat: 0,
        certified: 0,
        certify_failures: 0,
        proved: 0,
        proof_failures: 0,
        wall_micros,
        search_nodes: 0,
        search_omega: 0,
        search_pruned: 0,
        identity_ok: true,
        responses,
    };

    for (line, request_line) in summary.responses.iter().zip(&request_lines) {
        let Ok(doc) = pipesched_json::parse(line) else {
            summary.errors += 1;
            continue;
        };
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            summary.errors += 1;
            continue;
        }
        summary.ok += 1;
        if doc.get("optimal").and_then(Json::as_bool) == Some(false) {
            summary.truncated += 1;
        }
        match doc.get("backend").and_then(Json::as_str) {
            Some("sat") => summary.backend_sat += 1,
            // Pre-portfolio servers send no backend field; everything
            // they answer is the B&B.
            _ => summary.backend_bnb += 1,
        }
        if check {
            if certify_response(request_line, &doc) {
                summary.certified += 1;
            } else {
                summary.certify_failures += 1;
                note_rejected_response(&doc);
            }
        }
        if prove && doc.get("optimal").and_then(Json::as_bool) == Some(true) {
            if prove_response(request_line, &doc) {
                summary.proved += 1;
            } else {
                summary.proof_failures += 1;
                note_rejected_response(&doc);
            }
        }
    }
    summary
}

/// Record a synthetic wide event for a response the certifier or proof
/// replay rejected. The rejection happens in the batch checker, not the
/// serve loop, so no in-flight event exists — but a certifier rejection is
/// exactly the kind of anomaly the flight recorder must freeze, wherever
/// it surfaces. The event goes straight to the ring, never to the
/// engine's metrics: it is not another request.
fn note_rejected_response(response: &Json) {
    let mut ev = flight::WideEvent::new(response.get("id").and_then(Json::as_i64).unwrap_or(-1));
    ev.raise(flight::Outcome::CertReject);
    ev.micros = response
        .get("micros")
        .and_then(Json::as_i64)
        .map(|m| m.max(1) as u64)
        .unwrap_or(1);
    flight::commit(ev);
}

/// Escalate an `optimal` response to a full proof replay: search the
/// request block again with certificate logging, run the certificate
/// through the independent checker, and require the certified μ to equal
/// the response's claimed μ.
fn prove_response(request_line: &str, response: &Json) -> bool {
    let Ok(req) = parse_request(request_line) else {
        return false;
    };
    let Some(claimed) = response
        .get("nops")
        .and_then(Json::as_i64)
        .and_then(|n| u32::try_from(n).ok())
    else {
        return false;
    };
    let dag = pipesched_ir::DepDag::build(&req.block);
    let ctx = pipesched_core::SchedContext::new(&req.block, &dag, &req.machine);
    let cfg = pipesched_core::SearchConfig {
        lambda: u64::MAX,
        ..pipesched_core::SearchConfig::default()
    };
    let (_, cert) = pipesched_core::prove(&ctx, &cfg);
    let check = pipesched_proof::check_certificate(&req.block, &req.machine, &cert);
    match check.verdict {
        pipesched_proof::ProofVerdict::OptimalCertified { nops } => nops == claimed,
        pipesched_proof::ProofVerdict::Rejected => false,
    }
}

/// Re-parse a request/response pair and certify the response schedule
/// against the request block with the independent certifier.
fn certify_response(request_line: &str, response: &Json) -> bool {
    let Ok(req) = parse_request(request_line) else {
        return false;
    };
    let Some(order_json) = response.get("order").and_then(Json::as_array) else {
        return false;
    };
    // Responses carry 1-based tuple numbers (matching the tuple text).
    let mut order = Vec::with_capacity(order_json.len());
    for v in order_json {
        match v.as_i64() {
            Some(k) if k >= 1 => order.push(TupleId(k as u32 - 1)),
            _ => return false,
        }
    }
    let n = req.block.len();
    let mut assignment: Vec<Option<PipelineId>> = vec![None; n];
    let pipes = response.get("pipes").and_then(Json::as_array);
    if let Some(pipes) = pipes {
        if pipes.len() != order.len() {
            return false;
        }
        for (pos, v) in pipes.iter().enumerate() {
            let t = order[pos];
            if t.index() >= n {
                return false;
            }
            assignment[t.index()] = match v {
                Json::Null => None,
                other => match other.as_i64() {
                    Some(p) if p >= 0 => Some(PipelineId(p as u32)),
                    _ => return false,
                },
            };
        }
    }
    let etas: Option<Vec<u32>> = response.get("etas").and_then(Json::as_array).map(|a| {
        a.iter()
            .filter_map(|v| v.as_i64().and_then(|e| u32::try_from(e).ok()))
            .collect()
    });
    let nops = response
        .get("nops")
        .and_then(Json::as_i64)
        .and_then(|n| u32::try_from(n).ok());
    let cert = certify(
        &req.block,
        &req.machine,
        Claim {
            order: &order,
            assignment: Some(&assignment),
            etas: etas.as_deref(),
            nops,
        },
    );
    cert.is_certified()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> ServiceEngine {
        ServiceEngine::new(EngineConfig::default(), 64, 4)
    }

    fn workload(repeats: usize) -> String {
        // Two shapes, renamed per repeat: ≥50% repeated block shapes.
        let mut text = String::new();
        for i in 0..repeats {
            text.push_str(&format!(
                "{{\"id\": {}, \"block\": \"1: Load #a{i}\\n2: Mul @1, @1\\n3: Store #b{i}, @2\", \"machine\": \"paper-simulation\"}}\n",
                2 * i
            ));
            // Two multiplies contending for the multiplier: the
            // whole-block bound cannot settle it, so a miss searches.
            text.push_str(&format!(
                "{{\"id\": {}, \"block\": \"1: Load #p{i}\\n2: Load #q{i}\\n3: Mul @1, @2\\n4: Mul @1, @1\\n5: Add @3, @4\\n6: Store #r{i}, @5\", \"machine\": \"paper-simulation\"}}\n",
                2 * i + 1
            ));
        }
        text
    }

    #[test]
    fn batch_replay_hits_and_certifies() {
        let eng = engine();
        let summary =
            run_batch(&eng, &workload(5), &ServeConfig { workers: 2 }, true, false).unwrap();
        assert_eq!(summary.requests, 10);
        assert_eq!(summary.ok, 10);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.certified, 10, "all responses certifier-clean");
        assert_eq!(summary.certify_failures, 0);
        // Two shapes, ten requests, two workers: each shape misses once,
        // plus at most one extra miss per shape when both workers are in
        // flight on it before either insert lands — so at least six hits
        // deterministically, usually eight.
        assert!(summary.cache_hits >= 6, "hits = {}", summary.cache_hits);
        let doc = summary.to_json();
        assert_eq!(doc.get("requests").and_then(Json::as_i64), Some(10));
        assert!(summary.throughput() > 0.0);
        // The misses searched; the batch reports that fleet-wide effort
        // and the aggregate identity still holds over it.
        assert!(summary.search_nodes > 0);
        assert!(summary.search_omega > 0);
        assert!(summary.identity_ok);
        assert_eq!(doc.get("identity_ok").and_then(Json::as_bool), Some(true));
        // A default engine answers everything with the B&B backend.
        assert_eq!(summary.backend_bnb, 10);
        assert_eq!(summary.backend_sat, 0);
        let backends = doc.get("backend_answers").unwrap();
        assert_eq!(backends.get("bnb").and_then(Json::as_i64), Some(10));
    }

    #[test]
    fn sat_engine_batches_certify_and_report_the_backend() {
        let eng = ServiceEngine::new(
            EngineConfig {
                backend: pipesched_core::Backend::Sat,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let summary =
            run_batch(&eng, &workload(3), &ServeConfig { workers: 2 }, true, false).unwrap();
        assert_eq!(summary.ok, 6);
        assert_eq!(summary.certified, 6, "SAT answers are certifier-clean");
        assert_eq!(summary.certify_failures, 0);
        // Every response records a concrete backend; the split depends on
        // which tier answered (list-tier answers stay B&B), so only the
        // total is stable.
        assert_eq!(summary.backend_bnb + summary.backend_sat, 6);
    }

    #[test]
    fn batch_counts_error_lines() {
        let eng = engine();
        let input = format!("{}garbage\n", workload(1));
        let summary = run_batch(&eng, &input, &ServeConfig::default(), false, false).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn batch_prove_escalates_optimal_responses() {
        let eng = ServiceEngine::new(
            EngineConfig {
                prove: true,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let summary = run_batch(&eng, &workload(3), &ServeConfig::default(), true, true).unwrap();
        assert_eq!(summary.ok, 6);
        assert_eq!(summary.proved, 6, "every optimal response replays");
        assert_eq!(summary.proof_failures, 0);
        // A proving engine attaches a certificate digest to every response.
        for line in &summary.responses {
            let doc = pipesched_json::parse(line).unwrap();
            let digest = doc.get("proof_digest").and_then(Json::as_str).unwrap();
            assert_eq!(digest.len(), 16, "digest is 16 hex digits: {digest}");
        }
        let doc = summary.to_json();
        assert_eq!(doc.get("proved").and_then(Json::as_i64), Some(6));
        assert_eq!(doc.get("proof_failures").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn certifier_rejection_freezes_a_flight_dump() {
        let _toggle = crate::flight_test_lock();
        flight::set_enabled(true);
        flight::reset();
        // A forged response claiming μ = 0 for a block whose real μ is
        // positive: the certifier must reject it, and the rejection must
        // surface as a frozen flight dump even though it happened in the
        // offline batch checker rather than the serve loop.
        let input = concat!(
            r#"{"id": 7, "block": "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2", "#,
            r#""machine": "paper-simulation"}"#,
            "\n"
        );
        let forged =
            r#"{"id": 7, "ok": true, "order": [1, 2, 3], "nops": 0, "micros": 55}"#.to_string();
        let summary = summarize_responses(input, vec![forged], 1, 0, true, false);
        flight::set_enabled(false);
        assert_eq!(summary.certify_failures, 1);
        let dumps = flight::dumps();
        let dump = dumps
            .iter()
            .find(|d| d.anomaly == flight::Anomaly::CertReject.name())
            .expect("certifier rejection must freeze a flight dump");
        let trigger = dump.events.last().unwrap();
        assert_eq!(trigger.req, 7);
        assert_eq!(trigger.outcome, flight::Outcome::CertReject.name());
        assert!(trigger.verify());
    }
}
