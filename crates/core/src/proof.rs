//! Machine-checkable optimality certificates for the branch-and-bound
//! search.
//!
//! A certificate is an append-only transcript of every *node disposition*
//! the search made: which candidate extensions were placed and explored,
//! which were pruned, and by exactly what evidence — the concrete
//! lower-bound derivation for a bound prune ([`ProofEvent::BoundPrune`]
//! records μ(Φ) plus the chain, resource and heads-and-tails terms of
//! [`crate::bounds::LowerBound`]), the witness pair for an equivalence
//! prune, the closed node a dominance prune cites, and the incumbent chain
//! of complete schedules. Replayed in
//! order, the events reconstruct the entire case analysis: every schedule
//! of the block either extends an `Enter`ed prefix (and was searched) or
//! extends a pruned one (and is dominated by the recorded evidence).
//!
//! The types here are *recording-side only* — plain data plus a logger.
//! The independent checker lives in the `pipesched-proof` crate and shares
//! no code with the search engine: it re-derives every μ, bound term and
//! witness condition from the analyze crate's third timing implementation
//! and rejects the certificate (diagnostic codes `A04xx`) on any
//! disagreement.
//!
//! # Event grammar
//!
//! The stream is the depth-first traversal order of the search tree. A
//! node at depth `d` (a committed prefix of `d` instructions) emits one
//! event per unscheduled instruction — `Enter`, `LegalityPrune`,
//! `EquivalencePrune`, `BoundPrune` or `DominancePrune` — followed by
//! [`ProofEvent::Leave`]. Nodes are numbered by their `Enter`s in stream
//! order, the root 0, so a dominance prune cites its witness by how many
//! nodes were entered after it: a reference that survives concatenating a
//! pooled proof's parts, each of which starts with an empty table.
//! An `Enter` descends: the events of the child node follow immediately,
//! and a child at depth `n` emits [`ProofEvent::Complete`] or
//! [`ProofEvent::Improve`] instead of a `Leave`. When the incumbent
//! reaches the block's admissible global lower bound the search stops and
//! [`ProofEvent::ProvedByBound`] terminates the stream — the remaining
//! coverage obligation is discharged by the bound itself, which the
//! checker re-derives.
//!
//! # Wire format
//!
//! [`Certificate::to_ndjson`] streams as newline-delimited
//! `pipesched-json`: an object header, one compact array per event (tag
//! letter first), and an object trailer. Tuple ids are 0-based.

use std::io::Write;

use pipesched_json::{json_object, Json};

use crate::bnb::{EquivalenceMode, SearchOutcome};
use crate::bounds::BoundKind;

/// One node disposition in the search's depth-first transcript.
///
/// `candidate`/`witness` are 0-based tuple ids; μ and bounds are NOP
/// counts as the search computed them (the checker re-derives each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofEvent {
    /// `candidate` was placed at the current depth and its subtree was
    /// searched: the child node's events follow.
    Enter {
        /// Tuple placed at the current depth.
        candidate: u32,
    },
    /// The current node has dispositioned every unscheduled instruction;
    /// return to the parent.
    Leave,
    /// `candidate` cannot legally occupy the current depth: at least one
    /// immediate predecessor is still unscheduled (covers both the quick
    /// `earliest(ξ)` check [5a] and the readiness counter check [5b] —
    /// the prefix is a down-set, so the two justifications coincide).
    LegalityPrune {
        /// Rejected tuple.
        candidate: u32,
    },
    /// `candidate` is interchangeable with `witness`, which was already
    /// placed (entered or bound-pruned) at this same node; exploring the
    /// candidate would relabel an already-covered subtree.
    EquivalencePrune {
        /// Skipped tuple.
        candidate: u32,
        /// The interchangeable tuple already tried at this node.
        witness: u32,
    },
    /// `candidate` was placed, but every completion of the extended prefix
    /// needs at least `bound` NOPs — no better than the incumbent — so
    /// the subtree was abandoned.
    BoundPrune {
        /// Rejected tuple (placed, evaluated, then removed).
        candidate: u32,
        /// μ of the prefix including the candidate.
        mu: u32,
        /// The recorded lower bound on any completion's μ.
        bound: u32,
        /// Chain-term maximum of the critical-path bound (`None` for the
        /// paper's plain α-β bound, where `bound == mu`).
        chain: Option<i64>,
        /// Resource-term maximum of the critical-path bound (`None` for
        /// α-β).
        resource: Option<i64>,
        /// The heads-and-tails value the evaluation reached, stopping at
        /// the incumbent (`None` when it was not evaluated: α-β, a
        /// placement the cheap terms already prune, or one the term's
        /// gate or switch-on skips).
        term: Option<i64>,
    },
    /// `candidate` was placed and the bound left it open, but a node
    /// closed earlier placed the same set of instructions in a state no
    /// later in any slot (see `pipesched_core::dominance`): every
    /// completion of the extended prefix costs at least as much as the
    /// same completion of that node, which already met the incumbent.
    DominancePrune {
        /// Rejected tuple (placed, compared, then removed).
        candidate: u32,
        /// Nodes entered after the witness: the witness is the node of
        /// the `Enter` that many `Enter`s back.
        back: u64,
    },
    /// A complete schedule with cost `mu ≥` incumbent was reached.
    Complete {
        /// μ of the completed schedule.
        mu: u32,
    },
    /// A complete schedule improved the incumbent to `mu`; the current
    /// prefix becomes the new best order.
    Improve {
        /// The new incumbent μ.
        mu: u32,
    },
    /// The incumbent reached the block's admissible global lower bound
    /// `lb`; the search stopped with optimality proven. Always the final
    /// event of its stream.
    ProvedByBound {
        /// The admissible global lower bound on μ, the heads-and-tails
        /// term evaluated in full.
        lb: u32,
    },
}

/// Identity and configuration of the search run a certificate describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateHeader {
    /// Number of instructions in the block.
    pub n: u32,
    /// Pruning bound the search used.
    pub bound: BoundKind,
    /// Equivalence-filter mode the search used.
    pub equivalence: EquivalenceMode,
    /// The initial incumbent order (0-based tuple ids).
    pub initial_order: Vec<u32>,
    /// μ of the initial incumbent.
    pub initial_nops: u32,
}

/// Final claim of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateTrailer {
    /// The best order found (0-based tuple ids).
    pub order: Vec<u32>,
    /// μ of that order — the optimality claim.
    pub nops: u32,
    /// True when the search ran to completion (was not curtailed by λ or
    /// a deadline). Only complete certificates can certify optimality.
    pub complete: bool,
}

/// A complete optimality certificate: header, event transcript, trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Search identity and configuration.
    pub header: CertificateHeader,
    /// The node-disposition transcript in depth-first order.
    pub events: Vec<ProofEvent>,
    /// The final claim.
    pub trailer: CertificateTrailer,
}

const FORMAT: &str = "pipesched-proof";
/// The wire format's version. The heads-and-tails term rides in an
/// optional seventh element of `B` records, so a certificate without one
/// serializes exactly as before, and a reader that predates the term
/// fails closed on one that has it: it re-derives the bound without the
/// term and rejects the record's arithmetic. Dominance prunes are `D`
/// records, which a reader that predates them rejects as an unknown tag.
const VERSION: i64 = 1;

fn bound_kind_name(b: BoundKind) -> &'static str {
    match b {
        BoundKind::AlphaBeta => "alpha-beta",
        BoundKind::CriticalPath => "critical-path",
    }
}

fn bound_kind_from_name(s: &str) -> Option<BoundKind> {
    match s {
        "alpha-beta" => Some(BoundKind::AlphaBeta),
        "critical-path" => Some(BoundKind::CriticalPath),
        _ => None,
    }
}

fn equivalence_name(e: EquivalenceMode) -> &'static str {
    match e {
        EquivalenceMode::Off => "off",
        EquivalenceMode::Paper => "paper",
        EquivalenceMode::UnrestrictedPaper => "unrestricted-paper",
        EquivalenceMode::Structural => "structural",
    }
}

fn equivalence_from_name(s: &str) -> Option<EquivalenceMode> {
    match s {
        "off" => Some(EquivalenceMode::Off),
        "paper" => Some(EquivalenceMode::Paper),
        "unrestricted-paper" => Some(EquivalenceMode::UnrestrictedPaper),
        "structural" => Some(EquivalenceMode::Structural),
        _ => None,
    }
}

fn header_line(h: &CertificateHeader) -> String {
    json_object![
        ("format", FORMAT),
        ("version", VERSION),
        ("n", h.n),
        ("bound", bound_kind_name(h.bound)),
        ("equivalence", equivalence_name(h.equivalence)),
        ("initial_order", h.initial_order.clone()),
        ("initial_nops", h.initial_nops),
    ]
    .to_compact()
}

fn trailer_line(t: &CertificateTrailer) -> String {
    json_object![
        ("order", t.order.clone()),
        ("nops", t.nops),
        ("complete", t.complete),
    ]
    .to_compact()
}

fn event_line(ev: &ProofEvent) -> String {
    fn arr(parts: Vec<Json>) -> String {
        Json::Array(parts).to_compact()
    }
    let tag = |s: &str| Json::Str(s.to_string());
    let int = |v: i64| Json::Int(v);
    match *ev {
        ProofEvent::Enter { candidate } => arr(vec![tag("E"), int(candidate.into())]),
        ProofEvent::Leave => arr(vec![tag("L")]),
        ProofEvent::LegalityPrune { candidate } => arr(vec![tag("P"), int(candidate.into())]),
        ProofEvent::EquivalencePrune { candidate, witness } => {
            arr(vec![tag("Q"), int(candidate.into()), int(witness.into())])
        }
        ProofEvent::BoundPrune {
            candidate,
            mu,
            bound,
            chain,
            resource,
            term,
        } => {
            let mut parts = vec![
                tag("B"),
                int(candidate.into()),
                int(mu.into()),
                int(bound.into()),
                chain.map_or(Json::Null, Json::Int),
                resource.map_or(Json::Null, Json::Int),
            ];
            parts.extend(term.map(Json::Int));
            arr(parts)
        }
        ProofEvent::DominancePrune { candidate, back } => arr(vec![
            tag("D"),
            int(candidate.into()),
            int(i64::try_from(back).unwrap_or(i64::MAX)),
        ]),
        ProofEvent::Complete { mu } => arr(vec![tag("C"), int(mu.into())]),
        ProofEvent::Improve { mu } => arr(vec![tag("I"), int(mu.into())]),
        ProofEvent::ProvedByBound { lb } => arr(vec![tag("G"), int(lb.into())]),
    }
}

fn parse_u32(v: Option<&Json>) -> Result<u32, String> {
    v.and_then(Json::as_i64)
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| "expected a non-negative integer".to_string())
}

fn parse_u32_array(v: Option<&Json>) -> Result<Vec<u32>, String> {
    v.and_then(Json::as_array)
        .ok_or_else(|| "expected an array".to_string())?
        .iter()
        .map(|e| parse_u32(Some(e)))
        .collect()
}

fn parse_event(line: &str) -> Result<ProofEvent, String> {
    let doc = pipesched_json::parse(line).map_err(|e| format!("event line: {e}"))?;
    let parts = doc.as_array().ok_or("event line is not an array")?;
    let tag = parts.first().and_then(Json::as_str).ok_or("missing tag")?;
    let nth = |i: usize| parse_u32(parts.get(i));
    let opt_i64 = |i: usize| -> Result<Option<i64>, String> {
        match parts.get(i) {
            Some(Json::Null) => Ok(None),
            Some(v) => v.as_i64().map(Some).ok_or_else(|| "bad term".to_string()),
            None => Err("missing bound term".to_string()),
        }
    };
    match tag {
        "E" => Ok(ProofEvent::Enter { candidate: nth(1)? }),
        "L" => Ok(ProofEvent::Leave),
        "P" => Ok(ProofEvent::LegalityPrune { candidate: nth(1)? }),
        "Q" => Ok(ProofEvent::EquivalencePrune {
            candidate: nth(1)?,
            witness: nth(2)?,
        }),
        "B" => Ok(ProofEvent::BoundPrune {
            candidate: nth(1)?,
            mu: nth(2)?,
            bound: nth(3)?,
            chain: opt_i64(4)?,
            resource: opt_i64(5)?,
            term: match parts.get(6) {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_i64().ok_or("bad term")?),
            },
        }),
        "D" => Ok(ProofEvent::DominancePrune {
            candidate: nth(1)?,
            back: parts
                .get(2)
                .and_then(Json::as_i64)
                .and_then(|b| u64::try_from(b).ok())
                .ok_or("expected a non-negative witness distance")?,
        }),
        "C" => Ok(ProofEvent::Complete { mu: nth(1)? }),
        "I" => Ok(ProofEvent::Improve { mu: nth(1)? }),
        "G" => Ok(ProofEvent::ProvedByBound { lb: nth(1)? }),
        other => Err(format!("unknown event tag `{other}`")),
    }
}

impl Certificate {
    /// A certificate that proves optimality of `order` purely by the
    /// block's admissible global lower bound: the schedule's μ matches
    /// `lb`, so no search is needed. Used by schedulers that obtain an
    /// LB-matching schedule by other means (a heuristic or windowed tier).
    pub fn by_bound(n: u32, order: Vec<u32>, nops: u32, lb: u32) -> Certificate {
        Certificate {
            header: CertificateHeader {
                n,
                bound: BoundKind::CriticalPath,
                equivalence: EquivalenceMode::Off,
                initial_order: order.clone(),
                initial_nops: nops,
            },
            events: vec![ProofEvent::ProvedByBound { lb }],
            trailer: CertificateTrailer {
                order,
                nops,
                complete: true,
            },
        }
    }

    /// Serialize to newline-delimited `pipesched-json` (header line, one
    /// compact array per event, trailer line).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        out.push_str(&header_line(&self.header));
        out.push('\n');
        for ev in &self.events {
            out.push_str(&event_line(ev));
            out.push('\n');
        }
        out.push_str(&trailer_line(&self.trailer));
        out.push('\n');
        out
    }

    /// Stream the NDJSON serialization to `w`.
    pub fn write_ndjson<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_ndjson().as_bytes())
    }

    /// Parse a certificate back from its NDJSON serialization.
    pub fn from_ndjson(text: &str) -> Result<Certificate, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_text = lines.next().ok_or("empty certificate")?;
        let h = pipesched_json::parse(header_text).map_err(|e| format!("header: {e}"))?;
        if h.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err("not a pipesched-proof certificate".to_string());
        }
        if h.get("version").and_then(Json::as_i64) != Some(VERSION) {
            return Err("unsupported certificate version".to_string());
        }
        let header = CertificateHeader {
            n: parse_u32(h.get("n")).map_err(|e| format!("header n: {e}"))?,
            bound: h
                .get("bound")
                .and_then(Json::as_str)
                .and_then(bound_kind_from_name)
                .ok_or("header: unknown bound kind")?,
            equivalence: h
                .get("equivalence")
                .and_then(Json::as_str)
                .and_then(equivalence_from_name)
                .ok_or("header: unknown equivalence mode")?,
            initial_order: parse_u32_array(h.get("initial_order"))
                .map_err(|e| format!("header initial_order: {e}"))?,
            initial_nops: parse_u32(h.get("initial_nops"))
                .map_err(|e| format!("header initial_nops: {e}"))?,
        };
        let mut events = Vec::new();
        let mut trailer = None;
        for line in lines {
            if trailer.is_some() {
                return Err("content after the trailer line".to_string());
            }
            if line.trim_start().starts_with('{') {
                let t = pipesched_json::parse(line).map_err(|e| format!("trailer: {e}"))?;
                trailer = Some(CertificateTrailer {
                    order: parse_u32_array(t.get("order"))
                        .map_err(|e| format!("trailer order: {e}"))?,
                    nops: parse_u32(t.get("nops")).map_err(|e| format!("trailer nops: {e}"))?,
                    complete: t
                        .get("complete")
                        .and_then(Json::as_bool)
                        .ok_or("trailer: missing complete flag")?,
                });
            } else {
                events.push(parse_event(line)?);
            }
        }
        Ok(Certificate {
            header,
            events,
            trailer: trailer.ok_or("certificate has no trailer line")?,
        })
    }

    /// Build-stable FNV-1a digest of the canonical NDJSON serialization;
    /// the serving layer attaches this to cache entries so a memoized hit
    /// can name the proof that certified it.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.update(&header_line(&self.header));
        for ev in &self.events {
            d.update(&event_line(ev));
        }
        d.update(&trailer_line(&self.trailer));
        d.finish()
    }
}

/// Running FNV-1a/64 over serialized certificate lines (newline-framed, so
/// the digest of a streamed proof equals [`Certificate::digest`] of the
/// same transcript held in memory).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, line: &str) {
        for &b in line.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= u64::from(b'\n');
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

enum Sink {
    /// Keep the transcript in memory and return a [`Certificate`], whose
    /// digest is computed only when asked for.
    Memory(Vec<ProofEvent>),
    /// Stream each line to a writer as it is logged (constant memory),
    /// digesting it on the way.
    Stream(Box<dyn Write + Send>),
}

/// Records the search transcript, either in memory or streamed to a
/// writer. Create with [`ProofLogger::in_memory`] or
/// [`ProofLogger::streaming`] and pass to [`crate::run`] as
/// [`crate::Run::proof`]; the search drives the begin/log/finish
/// lifecycle.
pub struct ProofLogger {
    sink: Sink,
    header: Option<CertificateHeader>,
    /// Digest of the streamed lines (streaming loggers only).
    digest: Digest,
    events: u64,
    io_error: Option<String>,
}

/// What a finished [`ProofLogger`] produced.
#[derive(Debug)]
pub struct ProofOutput {
    /// The certificate (in-memory loggers only; streamed proofs live in
    /// the writer).
    pub certificate: Option<Certificate>,
    /// Digest of the streamed lines (streaming loggers only).
    streamed_digest: u64,
    /// Number of events logged.
    pub events: u64,
    /// First I/O error hit while streaming, if any (a streamed proof with
    /// an error is incomplete on disk and must not be trusted).
    pub io_error: Option<String>,
}

impl ProofOutput {
    /// FNV-1a digest of the serialized transcript, identical for memory
    /// and streamed sinks (see [`Certificate::digest`]).
    pub fn digest(&self) -> u64 {
        self.certificate
            .as_ref()
            .map_or(self.streamed_digest, Certificate::digest)
    }
}

impl ProofLogger {
    /// A logger that accumulates the transcript in memory.
    pub fn in_memory() -> Self {
        ProofLogger {
            sink: Sink::Memory(Vec::new()),
            header: None,
            digest: Digest::new(),
            events: 0,
            io_error: None,
        }
    }

    /// A logger that streams NDJSON lines to `w` as they are produced.
    pub fn streaming(w: Box<dyn Write + Send>) -> Self {
        ProofLogger {
            sink: Sink::Stream(w),
            header: None,
            digest: Digest::new(),
            events: 0,
            io_error: None,
        }
    }

    /// Digest and write one line (streaming loggers only: an in-memory
    /// logger serializes nothing, and digests its certificate on demand).
    fn write_line(&mut self, line: &str) {
        self.digest.update(line);
        if let Sink::Stream(w) = &mut self.sink {
            if self.io_error.is_none() {
                if let Err(e) = w
                    .write_all(line.as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                {
                    self.io_error = Some(e.to_string());
                }
            }
        }
    }

    /// Record the header. Called once by the search before any event.
    pub fn begin(&mut self, header: CertificateHeader) {
        if let Sink::Stream(_) = self.sink {
            self.write_line(&header_line(&header));
        }
        self.header = Some(header);
    }

    /// Make room for `additional` more events, so an in-memory logger
    /// handed a known-size transcript allocates it once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if let Sink::Memory(events) = &mut self.sink {
            events.reserve_exact(additional);
        }
    }

    /// Append one event to the transcript.
    pub fn log(&mut self, ev: ProofEvent) {
        self.events += 1;
        match &mut self.sink {
            Sink::Memory(events) => events.push(ev),
            Sink::Stream(_) => self.write_line(&event_line(&ev)),
        }
    }

    /// Close the transcript with `trailer` and return what was recorded.
    pub fn finish(mut self, trailer: CertificateTrailer) -> ProofOutput {
        if let Sink::Stream(_) = self.sink {
            self.write_line(&trailer_line(&trailer));
        }
        if let Sink::Stream(w) = &mut self.sink {
            if self.io_error.is_none() {
                if let Err(e) = w.flush() {
                    self.io_error = Some(e.to_string());
                }
            }
        }
        let header = self
            .header
            .expect("ProofLogger::finish called before begin");
        let certificate = match self.sink {
            Sink::Memory(events) => Some(Certificate {
                header,
                events,
                trailer,
            }),
            Sink::Stream(_) => None,
        };
        ProofOutput {
            certificate,
            streamed_digest: self.digest.finish(),
            events: self.events,
            io_error: self.io_error,
        }
    }
}

/// Convert a [`SearchOutcome`] into the trailer its certificate claims.
pub fn trailer_for(outcome: &SearchOutcome) -> CertificateTrailer {
    CertificateTrailer {
        order: outcome.order.iter().map(|t| t.0).collect(),
        nops: outcome.nops,
        complete: !outcome.stats.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            header: CertificateHeader {
                n: 3,
                bound: BoundKind::CriticalPath,
                equivalence: EquivalenceMode::Paper,
                initial_order: vec![0, 1, 2],
                initial_nops: 4,
            },
            events: vec![
                ProofEvent::Enter { candidate: 0 },
                ProofEvent::LegalityPrune { candidate: 2 },
                ProofEvent::Enter { candidate: 1 },
                ProofEvent::Enter { candidate: 2 },
                ProofEvent::Improve { mu: 3 },
                ProofEvent::Leave,
                ProofEvent::BoundPrune {
                    candidate: 2,
                    mu: 4,
                    bound: 5,
                    chain: Some(6),
                    resource: None,
                    term: Some(9),
                },
                ProofEvent::EquivalencePrune {
                    candidate: 1,
                    witness: 0,
                },
                ProofEvent::DominancePrune {
                    candidate: 2,
                    back: 3,
                },
                ProofEvent::Leave,
                ProofEvent::Complete { mu: 7 },
                ProofEvent::ProvedByBound { lb: 3 },
            ],
            trailer: CertificateTrailer {
                order: vec![0, 1, 2],
                nops: 3,
                complete: true,
            },
        }
    }

    #[test]
    fn ndjson_round_trip() {
        let cert = sample();
        let text = cert.to_ndjson();
        let parsed = Certificate::from_ndjson(&text).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.digest(), cert.digest());
    }

    #[test]
    fn streamed_digest_matches_in_memory() {
        let cert = sample();
        let mut logger = ProofLogger::streaming(Box::new(std::io::sink()));
        logger.begin(cert.header.clone());
        for &ev in &cert.events {
            logger.log(ev);
        }
        let streamed = logger.finish(cert.trailer.clone());
        assert!(streamed.certificate.is_none());
        assert!(streamed.io_error.is_none());
        assert_eq!(streamed.digest(), cert.digest());
        assert_eq!(streamed.events, cert.events.len() as u64);

        let mut mem = ProofLogger::in_memory();
        mem.begin(cert.header.clone());
        for &ev in &cert.events {
            mem.log(ev);
        }
        let kept = mem.finish(cert.trailer.clone());
        assert_eq!(kept.certificate.as_ref(), Some(&cert));
        assert_eq!(kept.digest(), cert.digest());
    }

    #[test]
    fn by_bound_certificate_shape() {
        let cert = Certificate::by_bound(2, vec![1, 0], 1, 1);
        assert_eq!(cert.events, vec![ProofEvent::ProvedByBound { lb: 1 }]);
        assert!(cert.trailer.complete);
        let text = cert.to_ndjson();
        assert_eq!(Certificate::from_ndjson(&text).unwrap(), cert);
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(Certificate::from_ndjson("").is_err());
        assert!(Certificate::from_ndjson("{\"format\":\"x\"}\n").is_err());
        let cert = sample();
        let mut text = cert.to_ndjson();
        text.push_str("[\"E\",9]\n");
        assert!(
            Certificate::from_ndjson(&text).is_err(),
            "events after the trailer are malformed"
        );
    }
}
