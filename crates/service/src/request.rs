//! NDJSON request/response envelope.
//!
//! One request per line, one response per line, pairable by `id`:
//!
//! ```json
//! {"id": 7, "block": "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2",
//!  "machine": "paper-simulation", "budget_nodes": 50000, "deadline_ms": 25}
//! ```
//!
//! `block` is either the textual tuple format (detected by a leading
//! `;; tuples` marker or a `<id>:` prefix) or expression source compiled by
//! the frontend. `machine` is a preset name or an inline machine-config
//! object. `budget_nodes` and `deadline_ms` are optional; omitting both
//! requests a provably optimal answer.
//!
//! ```json
//! {"id": 7, "ok": true, "nops": 2, "optimal": true, "cache_hit": false,
//!  "tier": "bnb", "backend": "bnb", "order": [1, 3, 2], "pipes": [0, 2, 1],
//!  "etas": [0, 0, 2], "omega_calls": 14, "deadline_hit": false, "micros": 312}
//! ```
//!
//! Failures come back on the same line protocol: `{"id": 7, "ok": false,
//! "error": "..."}` — a bad request never tears the connection down.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pipesched_ir::BasicBlock;
use pipesched_json::{json_object, write_int, write_str, Json};
use pipesched_machine::{config as machine_config, presets, Machine};

use crate::engine::{Answer, Budget};

/// A parsed scheduling request.
#[derive(Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: Option<i64>,
    /// The block to schedule.
    pub block: BasicBlock,
    /// The target machine: a shared preset, or one the request defined.
    pub machine: Cow<'static, Machine>,
    /// Ω-call budget (`None` ⇒ engine default / unlimited).
    pub budget_nodes: Option<u64>,
    /// Wall-clock allowance in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Materialize the per-request [`Budget`], anchoring the deadline at
    /// `now` (the moment the request is picked up, not parsed).
    pub fn budget(&self, default_nodes: u64, now: Instant) -> Budget {
        Budget {
            nodes: self.budget_nodes.unwrap_or(default_nodes),
            deadline: self.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        }
    }
}

/// Parse one NDJSON request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = pipesched_json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = doc.get("id").and_then(Json::as_i64);

    let block_text = doc
        .get("block")
        .and_then(Json::as_str)
        .ok_or("missing string field `block`")?;
    let block = parse_block_text("request", block_text)?;

    let machine = match doc.get("machine") {
        None => return Err("missing field `machine`".into()),
        Some(Json::Str(name)) => Cow::Borrowed(preset_machine(name)?),
        Some(obj @ Json::Object(_)) => {
            Cow::Owned(machine_config::from_json(&obj.to_compact()).map_err(|e| e.to_string())?)
        }
        Some(_) => return Err("`machine` must be a preset name or an object".into()),
    };

    let budget_nodes = match doc.get("budget_nodes") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|&n| n >= 0)
                .ok_or("`budget_nodes` must be a non-negative integer")? as u64,
        ),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|&n| n >= 0)
                .ok_or("`deadline_ms` must be a non-negative integer")? as u64,
        ),
    };

    Ok(Request {
        id,
        block,
        machine,
        budget_nodes,
        deadline_ms,
    })
}

/// Parse request block text: tuple format when it looks like one,
/// otherwise expression source through the frontend (unoptimized, so the
/// request text maps 1:1 onto tuples).
fn parse_block_text(name: &str, text: &str) -> Result<BasicBlock, String> {
    if is_tuple_text(text) {
        pipesched_ir::parse::parse_block(name, text).map_err(|e| e.to_string())
    } else {
        pipesched_frontend::compile_unoptimized(name, text).map_err(|e| e.to_string())
    }
}

/// Whether `text` is tuple text: a `;; tuples` header, or a first line
/// that is neither blank nor a `;` comment and reads `<id>: …`, its id an
/// unsigned integer as the tuple parser reads one (`1`, ` 1 `, `01`,
/// `+1`). The expression language has no line of that shape.
fn is_tuple_text(text: &str) -> bool {
    for line in text.lines().map(str::trim) {
        if line.starts_with(";; tuples") {
            return true;
        }
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        return line.split_once(':').is_some_and(|(id, _)| {
            let id = id.trim();
            let digits = id.strip_prefix('+').unwrap_or(id);
            !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
        });
    }
    false
}

/// Resolve a preset machine by its CLI name. Each preset is built once
/// per process and shared by every request that names it.
pub fn preset_machine(name: &str) -> Result<&'static Machine, String> {
    static PRESETS: OnceLock<[(&str, Machine); 6]> = OnceLock::new();
    PRESETS
        .get_or_init(|| {
            [
                ("paper-simulation", presets::paper_simulation()),
                ("paper-table2", presets::table2_example()),
                ("deep-pipeline", presets::deep_pipeline()),
                ("functional-units", presets::functional_units()),
                ("section2-example", presets::section2_example()),
                ("unpipelined", presets::unpipelined()),
            ]
        })
        .iter()
        .find(|(preset, _)| *preset == name)
        .map(|(_, machine)| machine)
        .ok_or_else(|| format!("unknown machine preset `{name}`"))
}

/// A success response, rendered by [`Response::to_compact`].
#[derive(Debug, Clone, Copy)]
pub struct Response<'a> {
    /// The request's correlation id.
    pub id: Option<i64>,
    /// The answer to report.
    pub answer: &'a Answer,
    /// Wall-clock microseconds spent on the request.
    pub micros: u64,
    /// The recorded trace, if the server kept one for this request.
    pub trace_id: Option<u64>,
    /// True when the optimizer's translation validation accepted the block.
    pub opt_verified: bool,
}

/// A success response line. `trace_id` is attached when the server
/// recorded a trace for this request, so the client can fetch the span
/// dump via `GET /trace/<id>`.
pub fn response_json(
    id: Option<i64>,
    answer: &Answer,
    micros: u64,
    trace_id: Option<u64>,
) -> Response<'_> {
    Response {
        id,
        answer,
        micros,
        trace_id,
        opt_verified: false,
    }
}

impl Response<'_> {
    /// The response as one compact JSON line (without trailing newline),
    /// written straight into the line: the bytes [`Json::to_compact`]
    /// prints for the same members, without building a [`Json`] tree.
    pub fn to_compact(&self) -> String {
        let a = self.answer;
        let mut out = String::with_capacity(256 + 16 * a.order.len());
        let key = |out: &mut String, key: &str| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
        };
        let flag = |b: bool| if b { "true" } else { "false" };
        out.push_str("{\"id\":");
        match self.id {
            Some(id) => write_int(&mut out, id),
            None => out.push_str("null"),
        }
        out.push_str(",\"ok\":true");
        key(&mut out, "nops");
        write_int(&mut out, i64::from(a.nops));
        key(&mut out, "optimal");
        out.push_str(flag(a.optimal));
        key(&mut out, "cache_hit");
        out.push_str(flag(a.cache_hit));
        key(&mut out, "tier");
        write_str(&mut out, a.tier.name());
        key(&mut out, "backend");
        write_str(&mut out, a.backend.name());
        // `order` holds 1-based tuple ids, matching tuple text; `pipes`
        // each scheduled tuple's pipeline index (`null` for none).
        key(&mut out, "order");
        write_ints(&mut out, a.order.iter().map(|t| Some(i64::from(t.0) + 1)));
        key(&mut out, "pipes");
        write_ints(
            &mut out,
            a.order
                .iter()
                .map(|t| a.assignment[t.index()].map(|p| p.index() as i64)),
        );
        key(&mut out, "etas");
        write_ints(&mut out, a.etas.iter().map(|&e| Some(i64::from(e))));
        key(&mut out, "omega_calls");
        write_int(&mut out, a.omega_calls as i64);
        key(&mut out, "deadline_hit");
        out.push_str(flag(a.deadline_hit));
        key(&mut out, "micros");
        write_int(&mut out, self.micros as i64);
        if let Some(digest) = a.proof_digest {
            key(&mut out, "proof_digest");
            let _ = write!(out, "\"{digest:016x}\"");
        }
        if let Some(trace) = self.trace_id {
            key(&mut out, "trace_id");
            write_int(&mut out, trace as i64);
        }
        if self.opt_verified {
            key(&mut out, "opt_verified");
            out.push_str("true");
        }
        out.push('}');
        out
    }
}

/// A JSON array of integers, `None` printed as `null`.
fn write_ints(out: &mut String, items: impl Iterator<Item = Option<i64>>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            Some(n) => write_int(out, n),
            None => out.push_str("null"),
        }
    }
    out.push(']');
}

/// Render an error response line.
pub fn error_json(id: Option<i64>, message: &str) -> Json {
    json_object![
        ("id", id.map_or(Json::Null, Json::Int)),
        ("ok", false),
        ("error", message),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tuple_block_and_preset() {
        let req = parse_request(
            r#"{"id": 3, "block": "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2",
                "machine": "paper-simulation", "budget_nodes": 100, "deadline_ms": 5}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(3));
        assert_eq!(req.block.len(), 3);
        assert_eq!(req.machine.name, "paper-simulation");
        assert_eq!(req.budget_nodes, Some(100));
        let now = Instant::now();
        let budget = req.budget(999, now);
        assert_eq!(budget.nodes, 100);
        assert_eq!(budget.deadline, Some(now + Duration::from_millis(5)));
    }

    #[test]
    fn parses_source_block_and_inline_machine() {
        let machine_json = machine_config::to_json(&presets::paper_simulation()).unwrap();
        let line = json_object![
            ("block", "r = a * b + c;"),
            ("machine", pipesched_json::parse(&machine_json).unwrap()),
        ]
        .to_compact();
        let req = parse_request(&line).unwrap();
        assert!(req.block.len() >= 4);
        assert_eq!(req.id, None);
        assert_eq!(req.budget(777, Instant::now()).nodes, 777);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"machine": "paper-simulation"}"#).is_err());
        assert!(parse_request(r#"{"block": "1: Load #x"}"#).is_err());
        assert!(parse_request(r#"{"block": "1: Load #x", "machine": "no-such"}"#).is_err());
        assert!(parse_request(
            r#"{"block": "1: Load #x", "machine": "paper-simulation", "budget_nodes": -1}"#
        )
        .is_err());
    }

    #[test]
    fn error_json_round_trips() {
        let doc = error_json(Some(9), "boom");
        assert_eq!(doc.get("id").and_then(Json::as_i64), Some(9));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("boom"));
    }
}
