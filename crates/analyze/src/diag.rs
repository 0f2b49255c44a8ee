//! Structured diagnostics: stable codes, severities, reports, rendering.
//!
//! Every check in this crate reports through [`Report`]. A diagnostic
//! carries a stable [`DiagCode`] (the contract tests and downstream tools
//! match on), a [`Severity`], a human-readable message, and optionally the
//! tuple it is anchored to plus a fix hint. Reports render as plain text or
//! as JSON (via `pipesched-json`; the build environment has no registry
//! access, so serde is unavailable).

use std::fmt;
use std::str::FromStr;

use pipesched_ir::TupleId;
use pipesched_json::{json_object, Json};

/// How serious a diagnostic is.
///
/// Only [`Severity::Error`] makes a report fail ([`Report::has_errors`]);
/// warnings flag suspicious-but-legal constructs and infos are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note; never affects the verdict.
    Info,
    /// Suspicious but not incorrect.
    Warning,
    /// Definitely wrong: the artifact is rejected.
    Error,
}

impl Severity {
    /// Lower-case name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Severity {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            _ => Err(()),
        }
    }
}

macro_rules! diag_codes {
    ($( $(#[$meta:meta])* $name:ident = ($text:literal, $sev:ident, $summary:literal), )*) => {
        /// Stable diagnostic codes.
        ///
        /// `A01xx` are IR well-formedness checks, `A02xx` machine-description
        /// lints, `A03xx` schedule-certification failures, `A04xx`
        /// optimality-certificate rejections (emitted by the
        /// `pipesched-proof` checker), `A05xx` dataflow lints and
        /// translation-validation rejections of the front-end optimizer,
        /// `A06xx` SAT-backend audit failures (emitted by the
        /// `pipesched-solve` outcome audit and backend cross-check),
        /// `A07xx` concurrency findings (model-checker violations from
        /// `pipesched-check` and the static lock-order scan behind
        /// `pipesched lint --concurrency`).
        /// The textual form (e.g. `"A0302"`) is
        /// a stable contract: tests and downstream tooling match on it, so
        /// codes are never renumbered or reused.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum DiagCode {
            $( $(#[$meta])* $name, )*
        }

        impl DiagCode {
            /// Every code, in numeric order.
            pub const ALL: &'static [DiagCode] = &[ $(DiagCode::$name,)* ];

            /// The stable textual code (`"A0101"`, ...).
            pub fn as_str(self) -> &'static str {
                match self {
                    $( DiagCode::$name => $text, )*
                }
            }

            /// The default severity diagnostics with this code carry.
            pub fn severity(self) -> Severity {
                match self {
                    $( DiagCode::$name => Severity::$sev, )*
                }
            }

            /// One-line description of what the code means.
            pub fn summary(self) -> &'static str {
                match self {
                    $( DiagCode::$name => $summary, )*
                }
            }
        }

        impl FromStr for DiagCode {
            type Err = ();

            fn from_str(s: &str) -> Result<Self, ()> {
                match s {
                    $( $text => Ok(DiagCode::$name), )*
                    _ => Err(()),
                }
            }
        }
    };
}

diag_codes! {
    /// A tuple operand references itself or a later tuple.
    ForwardReference = ("A0101", Error, "tuple operand references itself or a later tuple"),
    /// A tuple operand references a tuple that produces no value.
    ValuelessReference = ("A0102", Error, "tuple operand references a value-less tuple"),
    /// Operand count or operand kind does not fit the operation.
    BadOperands = ("A0103", Error, "operand count or kind does not match the operation"),
    /// Two tuples compute the same value (missed common subexpression).
    DuplicateTuple = ("A0104", Warning, "tuple recomputes an earlier tuple's value"),
    /// A computed value is never consumed.
    UnusedValue = ("A0105", Warning, "computed value is never used"),
    /// A dependence edge does not point strictly forward.
    NonForwardEdge = ("A0106", Error, "dependence edge does not point strictly forward"),
    /// `earliest`/`latest` slack bounds are mutually inconsistent.
    InconsistentBounds = ("A0107", Error, "earliest/latest slack bounds are inconsistent"),
    /// A `Nop` appears inside a schedulable block.
    NopInBlock = ("A0108", Error, "Nop is not a schedulable block instruction"),
    /// A store is overwritten before anything reads the variable.
    DeadStore = ("A0109", Warning, "store is overwritten before it is read"),

    /// A pipeline declares zero latency.
    ZeroLatency = ("A0201", Error, "pipeline latency must be at least 1"),
    /// A pipeline declares zero enqueue time.
    ZeroEnqueue = ("A0202", Error, "pipeline enqueue time must be at least 1"),
    /// A pipeline latency is implausibly large.
    AbsurdLatency = ("A0203", Warning, "pipeline latency is implausibly large"),
    /// Enqueue time exceeds latency.
    EnqueueExceedsLatency = ("A0204", Warning, "enqueue time exceeds latency"),
    /// No operation maps to this pipeline.
    UnreachablePipeline = ("A0205", Warning, "no operation maps to this pipeline"),
    /// A value-computing operation has no pipeline (`σ = ∅`).
    UnmappedOp = ("A0206", Warning, "value-computing operation uses no pipeline"),
    /// A mapping entry names a pipeline that does not exist.
    UnknownPipeline = ("A0207", Error, "mapping names a pipeline that does not exist"),
    /// `Nop` is mapped to a pipeline.
    NopMapped = ("A0208", Error, "Nop must not be mapped to a pipeline"),
    /// The machine cannot constrain any schedule.
    DegenerateMachine = ("A0209", Warning, "machine maps no operation to any pipeline"),
    /// One mapping entry lists the same pipeline twice.
    DuplicateMapping = ("A0210", Warning, "mapping entry lists the same pipeline twice"),

    /// A schedule is not a permutation of the block.
    NotAPermutation = ("A0301", Error, "schedule is not a permutation of the block"),
    /// A schedule places a consumer before its producer.
    DependenceViolation = ("A0302", Error, "schedule places a consumer before a producer"),
    /// A claimed per-position η does not match the re-derived value.
    EtaMismatch = ("A0303", Error, "claimed η does not match re-derived issue times"),
    /// The claimed total NOP count μ is wrong.
    NopCountMismatch = ("A0304", Error, "claimed NOP count does not match re-derived μ"),
    /// A tuple is assigned a pipeline that cannot execute it.
    IllegalAssignment = ("A0305", Error, "tuple assigned a pipeline that cannot execute it"),
    /// Two schedulers produced contradictory results.
    SchedulerDisagreement = ("A0306", Error, "schedulers produced contradictory results"),

    /// An optimality certificate is syntactically or structurally invalid.
    CertificateMalformed = ("A0401", Error, "optimality certificate is malformed"),
    /// The certificate's case analysis has a gap: some unexplored
    /// extension is covered by no recorded prune, or the transcript is
    /// truncated.
    ProofCoverageGap = ("A0402", Error, "certificate case analysis does not cover every extension"),
    /// A recorded bound-prune's μ or chain/resource derivation disagrees
    /// with the checker's independent re-derivation.
    BoundArithmeticMismatch = ("A0403", Error, "recorded bound derivation disagrees with re-derivation"),
    /// A bound prune whose recorded bound would not actually dominate the
    /// incumbent at that point of the search.
    UnjustifiedBoundPrune = ("A0404", Error, "bound prune does not dominate the incumbent"),
    /// An equivalence prune whose witness pair fails the interchangeability
    /// conditions (freeness or identical successor sets) on the DAG.
    StaleEquivalenceWitness = ("A0405", Error, "equivalence-prune witness fails interchangeability"),
    /// The incumbent chain is inconsistent (a non-improving `Improve`, a μ
    /// that disagrees with replayed timing, or a trailer μ mismatch).
    IncumbentRegression = ("A0406", Error, "certificate incumbent chain is inconsistent"),
    /// The certificate places an instruction before its dependences allow.
    IllegalPlacement = ("A0407", Error, "certificate places an instruction illegally"),
    /// A `ProvedByBound` event's global lower bound does not match the
    /// checker's re-derivation, or the incumbent does not reach it.
    LowerBoundMismatch = ("A0408", Error, "claimed global lower bound fails re-derivation"),
    /// A dominance prune whose witness is missing, still open, of a
    /// different instruction set, or later than the candidate in some
    /// slot of the re-derived state.
    UnjustifiedDominancePrune = ("A0409", Error, "dominance prune lacks a closed dominating witness"),

    /// A store no live tuple ever reads (found by the coupled liveness
    /// dataflow; fires only where the simple overwrite scan `A0109`
    /// cannot see the deadness).
    DeadStoreLiveness = ("A0501", Warning, "store is dead: no live tuple reads its value"),
    /// An operand uses a value the dataflow says is not yet computed at
    /// the use point (defense in depth over `A0101`/`A0102`).
    UndefinedUse = ("A0502", Error, "operand uses a value not computed at its use point"),
    /// A tuple that is referenced but transitively dead: every chain of
    /// consumers ends in dead code, so no live store observes it.
    OrphanTuple = ("A0503", Warning, "tuple is transitively dead: no live store observes it"),
    /// An `Anti`/`Output` dependence edge already implied by a transitive
    /// path of other dependences.
    RedundantDependence = ("A0504", Info, "dependence edge is transitively implied"),
    /// An optimizer rewrite witness is structurally unusable: bad tuple
    /// ids, a rewrite kind foreign to the pass that claims it, several
    /// rewrites of one tuple, or a replay that dangles a reference.
    WitnessMalformed = ("A0505", Error, "optimizer rewrite witness is malformed"),
    /// A constant-fold witness whose claimed value disagrees with the
    /// validator's independently derived dataflow constants.
    FoldWitnessInvalid = ("A0506", Error, "fold witness disagrees with dataflow constants"),
    /// A CSE witness merging tuples the validator's value numbering does
    /// not consider congruent, or merging forwards.
    CseWitnessInvalid = ("A0507", Error, "CSE witness merges non-congruent tuples"),
    /// A DCE witness deleting a tuple the validator's liveness analysis
    /// still considers live.
    DceWitnessInvalid = ("A0508", Error, "DCE witness deletes a live tuple"),
    /// A peephole witness whose claimed algebraic identity fails its
    /// pattern precondition on the pre-pass block.
    PeepholeWitnessInvalid = ("A0509", Error, "peephole witness fails its precondition"),
    /// Replaying the witness transcript does not reproduce the block the
    /// optimizer returned (unwitnessed or misreported rewrites).
    ReplayMismatch = ("A0510", Error, "witness replay does not reproduce the optimized block"),

    /// A SAT backend outcome whose query trail is internally inconsistent:
    /// a recorded horizon that does not equal `n + budget`, or budgets
    /// that do not strictly descend.
    SolveEncodingInconsistent = ("A0601", Error, "SAT time-index encoding is internally inconsistent"),
    /// A recorded SAT model that fails re-checking: not exactly one issue
    /// cycle per tuple, an out-of-window cycle, an illegal decoded order,
    /// or a violated clause of the independently rebuilt encoding.
    SolveModelInvalid = ("A0602", Error, "decoded SAT model violates the rebuilt encoding"),
    /// A recorded SAT model whose decoded schedule replays to more NOPs
    /// than the feasibility query it claims to answer allowed.
    SolveBudgetMissed = ("A0603", Error, "decoded SAT schedule misses its query's NOP budget"),
    /// An optimality claim with no proof: the NOP count is above the
    /// global lower bound, yet no UNSAT query at one NOP fewer is on
    /// record.
    SolveOptimalityUnproved = ("A0604", Error, "SAT optimality claim lacks a refuting UNSAT query"),
    /// Two exact backends disagree on the optimal NOP count — one of them
    /// is wrong, and the portfolio treats this as a hard failure.
    BackendDisagreement = ("A0605", Error, "SAT and branch-and-bound disagree on the optimal NOP count"),

    /// Two threads access the same location without a happens-before
    /// edge and at least one access writes (vector-clock detection by
    /// the `pipesched-check` model scheduler).
    DataRace = ("A0701", Error, "conflicting accesses without a happens-before edge"),
    /// The accumulated lock-acquisition graph has a cycle — two locks
    /// are taken in opposite orders somewhere.
    LockOrderCycle = ("A0702", Error, "locks are acquired in inconsistent orders"),
    /// An explored schedule reached a state where every live thread was
    /// blocked (mutual wait or lost wakeup).
    DeadlockDetected = ("A0703", Error, "an interleaving deadlocks: all live threads blocked"),
    /// An `Acquire` load observed a value whose store published nothing
    /// (`Relaxed`), so the acquire synchronizes with nothing.
    AcquireMisuse = ("A0704", Warning, "acquire load pairs with a non-release store"),
    /// A harness invariant (assertion) failed on some explored schedule,
    /// or exploration exceeded its step budget.
    ConcurrencyInvariantViolated = ("A0705", Error, "a protocol invariant fails on some interleaving"),
    /// A thread finished while still holding a lock guard.
    LockLeaked = ("A0706", Error, "thread exited while holding a lock"),
    /// One observed lock-order edge (static scan); advisory context for
    /// `A0702` cycle reports.
    LockOrderEdge = ("A0707", Info, "observed lock acquisition order (held -> acquired)"),
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, a severity, a message, and optional anchors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// Severity (defaults to [`DiagCode::severity`]).
    pub severity: Severity,
    /// Human-readable description of this specific instance.
    pub message: String,
    /// The tuple the diagnostic is anchored to, if any.
    pub tuple: Option<TupleId>,
    /// A source anchor (`file:line`), when the tuple's provenance is known.
    pub location: Option<String>,
    /// A suggestion for fixing the problem, if one is known.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no anchors.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            tuple: None,
            location: None,
            hint: None,
        }
    }

    /// Anchor the diagnostic to a tuple.
    pub fn at(mut self, tuple: TupleId) -> Self {
        self.tuple = Some(tuple);
        self
    }

    /// Anchor the diagnostic to a source location (`file:line`).
    pub fn at_location(mut self, location: impl Into<String>) -> Self {
        self.location = Some(location.into());
        self
    }

    /// Attach a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        if let Some(t) = self.tuple {
            write!(f, " (tuple {t})")?;
        }
        if let Some(loc) = &self.location {
            write!(f, " --> {loc}")?;
        }
        if let Some(h) = &self.hint {
            write!(f, "\n    hint: {h}")?;
        }
        Ok(())
    }
}

/// A collection of diagnostics about one artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// What was analyzed (block name, machine name, scheduler...).
    pub context: String,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report about `context`.
    pub fn new(context: impl Into<String>) -> Self {
        Report {
            context: context.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Add a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every diagnostic of `other`, keeping this report's context.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Attach source anchors: every tuple-anchored diagnostic without a
    /// location gets one from `locate` (which may decline).
    pub fn annotate_locations(&mut self, locate: impl Fn(TupleId) -> Option<String>) {
        for d in &mut self.diagnostics {
            if d.location.is_none() {
                if let Some(t) = d.tuple {
                    d.location = locate(t);
                }
            }
        }
    }

    /// All diagnostics, in the order they were found.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True when no diagnostics at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when a diagnostic with the given code is present.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render the report as human-readable text, one diagnostic per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.has_errors() { "FAIL" } else { "ok" };
        out.push_str(&format!(
            "{}: {} ({} error(s), {} warning(s), {} note(s))\n",
            self.context,
            verdict,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }

    /// Convert the report to a JSON document.
    pub fn to_json(&self) -> Json {
        let diags: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                json_object![
                    ("code", d.code.as_str()),
                    ("severity", d.severity.as_str()),
                    ("message", d.message.as_str()),
                    (
                        "tuple",
                        d.tuple.map_or(Json::Null, |t| Json::from(i64::from(t.0)))
                    ),
                    (
                        "location",
                        d.location.as_deref().map_or(Json::Null, Json::from)
                    ),
                    ("hint", d.hint.as_deref().map_or(Json::Null, Json::from)),
                ]
            })
            .collect();
        json_object![
            ("context", self.context.as_str()),
            ("errors", self.count(Severity::Error)),
            ("warnings", self.count(Severity::Warning)),
            ("diagnostics", Json::Array(diags)),
        ]
    }

    /// Rebuild a report from [`Report::to_json`] output.
    ///
    /// Returns `None` when the document does not match the schema (unknown
    /// code, bad severity, missing field).
    pub fn from_json(doc: &Json) -> Option<Report> {
        let mut report = Report::new(doc.get("context")?.as_str()?);
        for d in doc.get("diagnostics")?.as_array()? {
            let code: DiagCode = d.get("code")?.as_str()?.parse().ok()?;
            let severity: Severity = d.get("severity")?.as_str()?.parse().ok()?;
            let message = d.get("message")?.as_str()?.to_string();
            let tuple = match d.get("tuple")? {
                Json::Null => None,
                j => Some(TupleId(u32::try_from(j.as_i64()?).ok()?)),
            };
            // Absent (pre-A05xx documents) and null both mean "none".
            let location = match d.get("location") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.as_str()?.to_string()),
            };
            let hint = match d.get("hint")? {
                Json::Null => None,
                j => Some(j.as_str()?.to_string()),
            };
            report.push(Diagnostic {
                code,
                severity,
                message,
                tuple,
                location,
                hint,
            });
        }
        Some(report)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &code in DiagCode::ALL {
            let text = code.as_str();
            assert!(seen.insert(text), "duplicate code {text}");
            assert_eq!(text.len(), 5);
            assert!(text.starts_with('A'));
            assert!(text[1..].chars().all(|c| c.is_ascii_digit()));
            assert_eq!(text.parse::<DiagCode>(), Ok(code));
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn report_counts_and_verdict() {
        let mut r = Report::new("demo");
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(DiagCode::UnusedValue, "x unused").at(TupleId(2)));
        assert!(!r.is_clean() && !r.has_errors());
        r.push(
            Diagnostic::new(DiagCode::EtaMismatch, "η[3] is 2, should be 1")
                .with_hint("re-run the scheduler"),
        );
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Error), 1);
        assert!(r.has_code(DiagCode::EtaMismatch));
        assert!(!r.has_code(DiagCode::NopInBlock));
        let text = r.render_text();
        assert!(text.contains("FAIL"));
        assert!(text.contains("A0303"));
        assert!(text.contains("(tuple 3)"));
        assert!(text.contains("hint: re-run"));
    }

    #[test]
    fn location_anchors_render_and_annotate() {
        let mut r = Report::new("loc");
        r.push(Diagnostic::new(DiagCode::DeadStore, "dead").at(TupleId(2)));
        r.push(Diagnostic::new(DiagCode::UnusedValue, "unused"));
        r.annotate_locations(|t| (t == TupleId(2)).then(|| "prog.src:4".to_string()));
        let text = r.render_text();
        assert!(text.contains("--> prog.src:4"), "{text}");
        assert_eq!(r.diagnostics()[1].location, None);
    }

    #[test]
    fn from_json_accepts_documents_without_location() {
        let doc = pipesched_json::parse(
            r#"{"context": "x", "diagnostics": [{"code": "A0109", "severity": "warning",
                "message": "m", "tuple": null, "hint": null}]}"#,
        )
        .unwrap();
        let report = Report::from_json(&doc).unwrap();
        assert_eq!(report.diagnostics()[0].location, None);
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::new("roundtrip");
        r.push(
            Diagnostic::new(DiagCode::DeadStore, "store to a overwritten")
                .at(TupleId(7))
                .at_location("prog.src:3"),
        );
        r.push(
            Diagnostic::new(DiagCode::NopCountMismatch, "claimed 3, derived 5")
                .with_hint("etas do not sum to μ"),
        );
        let doc = r.to_json();
        let parsed = pipesched_json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(Report::from_json(&parsed), Some(r));
    }

    #[test]
    fn from_json_rejects_unknown_code() {
        let doc = pipesched_json::parse(
            r#"{"context": "x", "diagnostics": [{"code": "Z9999", "severity": "error",
                "message": "m", "tuple": null, "hint": null}]}"#,
        )
        .unwrap();
        assert_eq!(Report::from_json(&doc), None);
    }
}
