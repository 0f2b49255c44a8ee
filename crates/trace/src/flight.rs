//! Wide-event flight recorder: one structured event per served request.
//!
//! Span traces (the rest of this crate) answer "what happened inside one
//! request"; the flight recorder answers "what happened to the service" —
//! every serve/schedule request emits exactly one **wide event** carrying
//! the whole story (block shape + canonical key, tier, backend, cache
//! outcome, search counters, proof digest, per-phase timings, outcome
//! code) into a bounded process-wide ring.
//!
//! **One record per request.** The serve loop opens a thread-local event
//! with [`begin`], the engine and the serve loop fill it in with
//! [`update`], and each request phase is timed by one [`phase`] guard,
//! which also opens the phase's span. A guard records *self* time — a
//! phase nested in another is subtracted from its parent — so the phases
//! partition the request and their sum never exceeds `micros`. The serve
//! loop closes the event once with [`finish`]; the service derives its
//! request metrics and latency histograms from that finished event, then
//! hands it to [`commit`].
//!
//! **Recorder off** — the default — a request still builds its event (a
//! thread-local write, no shared state), but phase guards read no clock,
//! and [`commit`] is a single relaxed atomic load and an early return: the
//! event is never sealed, serialized or pushed, and the ring lock is never
//! taken. **Recorder on**, [`commit`] pays one short mutex acquisition.
//!
//! **Anomaly triggers.** Each committed event is classified: a deadline
//! miss, certifier/audit rejection, backend disagreement, admission
//! rejection, or a latency at [`OUTLIER_MULTIPLE`]× the running p99 of
//! committed latencies freezes the surrounding window — the most recent
//! [`DUMP_WINDOW`] events, offender last — into an immutable [`Dump`]
//! retrievable as NDJSON via `GET /flight/dumps` and `pipesched flight
//! --dumps` long after the ring itself has moved on.
//!
//! **Self-checksum.** Every event seals itself with an FNV-1a digest of
//! its serialized body at commit time; [`WideEvent::verify`] recomputes
//! it, so a torn read or a tampered dump line is detectable.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pipesched_json::{json_object, Json};

use crate::hist::LatencyHistogram;
use crate::SpanGuard;

/// Default ring capacity; override with `PIPESCHED_FLIGHT_CAP` or
/// [`set_capacity`].
pub const DEFAULT_CAPACITY: usize = 512;

/// Events snapshotted around an anomaly (offending event included, last).
pub const DUMP_WINDOW: usize = 32;

/// Retained anomaly dumps; older dumps fall off the front.
pub const DUMP_CAPACITY: usize = 8;

/// A latency at this multiple of the running p99 estimate is an anomaly.
pub const OUTLIER_MULTIPLE: u64 = 8;

/// Latency outliers only fire once this many events seeded the estimate.
pub const OUTLIER_MIN_SAMPLES: u64 = 64;

/// Latency outliers only fire above this floor — µs-scale jitter on a
/// cache-hit-only workload is noise, not an anomaly.
pub const OUTLIER_FLOOR_MICROS: u64 = 1_000;

/// Events of the same anomaly kind within this many sequence numbers of
/// the previous dump are suppressed (counted, not dumped) — one incident
/// produces one dump, not one per affected request.
pub const DUMP_COOLDOWN: u64 = DUMP_WINDOW as u64;

/// How a wide-event field is written to and read from its NDJSON value.
trait Field: Sized {
    fn to_json(&self) -> Json;
    /// `vocab` lists the names a string field may take; other fields
    /// ignore it.
    fn from_json(value: &Json, vocab: &[&'static str]) -> Option<Self>;
}

/// Integers are JSON integers; a `u64` past `i64::MAX` reads as negative
/// and back, bit for bit.
macro_rules! int_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
            fn from_json(value: &Json, _: &[&'static str]) -> Option<Self> {
                value.as_i64().map(|v| v as $ty)
            }
        }
    )*};
}

int_field!(u64, u32, i64);

impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(value: &Json, _: &[&'static str]) -> Option<Self> {
        value.as_bool()
    }
}

/// A name another crate owns (a tier, a backend): the recorder only ever
/// writes names from `vocab`, so a parsed name outside it is foreign or
/// forged.
impl Field for &'static str {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
    fn from_json(value: &Json, vocab: &[&'static str]) -> Option<Self> {
        let name = value.as_str()?;
        vocab.iter().copied().find(|v| *v == name)
    }
}

/// A closed set of values with stable names: the enum, `ALL` in
/// declaration order (so `value as usize` indexes it), and `name`; a
/// parsed line names a value by its `name`.
macro_rules! named {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $( $(#[$vmeta:meta])* $variant:ident = $name:literal, )*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $ty {
            /// Every value, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// The value's stable name.
            pub const fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )*
                }
            }
        }

        impl Field for $ty {
            fn to_json(&self) -> Json {
                Json::from(self.name())
            }
            fn from_json(value: &Json, _: &[&'static str]) -> Option<Self> {
                let name = value.as_str()?;
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }
    };
}

named! {
    /// Request phases timed inside a wide event, in emission order; the
    /// name is the phase's wide-event field.
    pub enum Phase {
        /// NDJSON request-line parsing.
        Parse = "us_parse",
        /// Dependence-DAG + scheduling-context build.
        Dag = "us_dag",
        /// Canonical-form computation (cache key).
        Canon = "us_canon",
        /// Cache lookup + hit translation/validation.
        Cache = "us_cache",
        /// Tier escalation (list/windowed/exact) and cache store.
        Search = "us_search",
        /// Certificate production for provably optimal answers.
        Prove = "us_prove",
        /// Response rendering.
        Respond = "us_respond",
    }
}

named! {
    /// How a request ended, from the service's point of view.
    pub enum Outcome {
        /// Answered normally.
        Ok = "ok",
        /// Budget (λ) exhausted; the incumbent was served, `optimal: false`.
        BudgetExhausted = "budget_exhausted",
        /// The request failed to parse or schedule.
        Error = "error",
        /// The wall-clock deadline cut the search short.
        DeadlineMiss = "deadline_miss",
        /// The optimizer admission gate (`verify_opt`) refused the block.
        AdmissionReject = "admission_reject",
        /// A certifier or audit rejected a served schedule.
        CertReject = "cert_reject",
        /// Two exact backends disagreed on the optimal NOP count.
        Disagreement = "disagreement",
    }
}

impl Outcome {
    /// Severity rank: a later [`WideEvent::raise`] only overrides an
    /// earlier outcome of no higher rank, so an engine-noted disagreement
    /// survives the serve loop noting plain success afterwards.
    fn rank(self) -> u8 {
        match self {
            Outcome::Ok => 0,
            Outcome::BudgetExhausted => 1,
            Outcome::Error => 2,
            Outcome::DeadlineMiss | Outcome::AdmissionReject => 3,
            Outcome::CertReject => 4,
            Outcome::Disagreement => 5,
        }
    }
}

named! {
    /// What the cache lookup of a request found.
    pub enum Cache {
        /// No lookup happened: the request failed before it.
        NoLookup = "-",
        /// A validated hit answered the request.
        Hit = "hit",
        /// The lookup missed (or the hit failed validation).
        Miss = "miss",
    }
}

named! {
    /// Why a window was frozen and dumped.
    pub enum Anomaly {
        /// A request's wall-clock deadline expired mid-search.
        DeadlineMiss = "deadline_miss",
        /// A certifier or audit rejected a served schedule.
        CertReject = "cert_reject",
        /// Exact backends disagreed on an optimal NOP count.
        Disagreement = "disagreement",
        /// The admission gate refused the block.
        AdmissionReject = "admission_reject",
        /// Latency at [`OUTLIER_MULTIPLE`]× the running p99 estimate.
        LatencyOutlier = "latency_outlier",
    }
}

/// Declares [`WideEvent`] from one row per scalar field — its doc, type,
/// default and, for a name another crate owns, the names it may take —
/// and derives the struct, [`WideEvent::new`], [`WideEvent::FIELDS`], the
/// serialized body and [`WideEvent::from_ndjson`] from those rows. The
/// [`Phase`] timings follow the scalars, and the checksum comes last.
macro_rules! wide_event {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty = $default:expr $(, in [$($name:literal),*])?;
    )*) => {
        /// One wide event: everything the service knows about one request, flat.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct WideEvent {
            $( $(#[$doc])* pub $field: $ty, )*
            /// Per-phase wall clock, microseconds, in [`Phase`] order.
            pub phases_us: [u64; Phase::ALL.len()],
            /// FNV-1a self-checksum over the serialized body ([`WideEvent::seal`]).
            pub checksum: u64,
        }

        /// The scalar fields' names, in emission order.
        const SCALARS: &[&str] = &[$(stringify!($field)),*];

        impl WideEvent {
            /// NDJSON field names, in emission order — the README's wide-event
            /// table is diffed against this list by `tests/docs_sync.rs`.
            pub const FIELDS: [&str; SCALARS.len() + Phase::ALL.len() + 1] = {
                let mut fields = ["checksum"; SCALARS.len() + Phase::ALL.len() + 1];
                let mut i = 0;
                while i + 1 < fields.len() {
                    fields[i] = match i.checked_sub(SCALARS.len()) {
                        None => SCALARS[i],
                        Some(phase) => Phase::ALL[phase].name(),
                    };
                    i += 1;
                }
                fields
            };

            /// Every field at its default.
            const DEFAULT: WideEvent = WideEvent {
                $( $field: $default, )*
                phases_us: [0; Phase::ALL.len()],
                checksum: 0,
            };

            /// Serialized body: every field but the checksum, as JSON members.
            /// Both the seal and the NDJSON rendering derive from this one
            /// serialization, so "the line verifies" and "the struct verifies"
            /// are the same statement.
            fn body(&self) -> Vec<(String, Json)> {
                let mut pairs = vec![$( (stringify!($field).to_string(), self.$field.to_json()), )*];
                let phases = Phase::ALL.iter().zip(self.phases_us);
                pairs.extend(phases.map(|(phase, us)| (phase.name().to_string(), us.to_json())));
                pairs
            }

            /// Parse one NDJSON line back into a `WideEvent`, checksum
            /// included — so [`WideEvent::verify`] detects tampering on
            /// re-parsed lines just as it does on in-memory events. Returns
            /// `None` for malformed lines, dump headers, and events whose
            /// names fall outside the recorder's vocabulary (the recorder
            /// only ever emits those names, so an unknown one is foreign or
            /// forged).
            pub fn from_ndjson(line: &str) -> Option<Self> {
                let doc = pipesched_json::parse(line).ok()?;
                let mut ev = WideEvent {
                    $( $field: Field::from_json(doc.get(stringify!($field))?, &[$($($name),*)?])?, )*
                    ..WideEvent::DEFAULT
                };
                for (slot, phase) in ev.phases_us.iter_mut().zip(Phase::ALL) {
                    *slot = Field::from_json(doc.get(phase.name())?, &[])?;
                }
                ev.checksum = Field::from_json(doc.get("checksum")?, &[])?;
                Some(ev)
            }
        }
    };
}

wide_event! {
    /// Ring-assigned monotonic sequence number (assigned at commit).
    seq: u64 = 0;
    /// Client request id (`-1` when the request carried none).
    req: i64 = -1;
    /// Span-trace id of the same request (0 when tracing was off).
    trace_id: u64 = 0;
    /// Canonical refinement hash of the block's dependence DAG.
    canon: u64 = 0;
    /// Instructions in the block.
    n: u32 = 0;
    /// Machine-description fingerprint (timing + mapping, no names).
    machine_fp: u64 = 0;
    /// Answering tier (`cache`/`list`/`windowed`/`bnb`, `-` on errors).
    tier: &'static str = "-", in ["cache", "list", "windowed", "bnb", "-"];
    /// Concrete solving backend (`bnb`/`sat`, `-` on errors).
    backend: &'static str = "-", in ["bnb", "sat", "race", "-"];
    /// Worker threads configured for the exact tier.
    threads: u32 = 1;
    /// What the cache lookup found.
    cache: Cache = Cache::NoLookup;
    /// How the request ended.
    outcome: Outcome = Outcome::Ok;
    /// NOPs of the served schedule.
    nops: u32 = 0;
    /// Whether the served schedule was provably optimal.
    optimal: bool = false;
    /// Search-tree nodes visited answering this request.
    nodes: u64 = 0;
    /// Ω calls spent answering this request.
    omega: u64 = 0;
    /// Candidates pruned (all rules summed) answering this request.
    pruned: u64 = 0;
    /// FNV-1a digest of the optimality certificate (0 when none).
    proof_digest: u64 = 0;
    /// Whether the wall-clock deadline cut the search short.
    deadline_hit: bool = false;
    /// Whole-request wall clock, microseconds.
    micros: u64 = 0;
}

impl WideEvent {
    /// A fresh event for request `req`, every other field at its default.
    pub fn new(req: i64) -> Self {
        WideEvent {
            req,
            ..WideEvent::DEFAULT
        }
    }

    /// Record `outcome` unless the event already carries a more severe
    /// one: outcomes only escalate, so the serve loop noting plain success
    /// never downgrades an anomaly the engine already noted.
    pub fn raise(&mut self, outcome: Outcome) {
        if outcome.rank() >= self.outcome.rank() {
            self.outcome = outcome;
        }
    }

    /// Compute the FNV-1a self-checksum of the serialized body.
    fn digest(&self) -> u64 {
        fnv1a(Json::Object(self.body()).to_compact().as_bytes())
    }

    /// Seal the event: stamp `checksum` from the current body.
    pub fn seal(&mut self) {
        self.checksum = self.digest();
    }

    /// Recompute the checksum and compare; a forged or torn event fails.
    pub fn verify(&self) -> bool {
        self.checksum == self.digest()
    }

    /// One NDJSON line: the sealed body plus its checksum.
    pub fn to_ndjson(&self) -> String {
        let mut pairs = self.body();
        pairs.push(("checksum".to_string(), self.checksum.to_json()));
        Json::Object(pairs).to_compact()
    }
}

/// FNV-1a over `bytes` — the same digest family the proof certificates
/// use, reimplemented here so the trace crate stays dependency-light.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A frozen window around one anomalous event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dump {
    /// Dump number, counting from 1.
    pub id: u64,
    /// What fired ([`Anomaly::name`]).
    pub anomaly: &'static str,
    /// Sequence number of the offending event (always present, last).
    pub trigger_seq: u64,
    /// The window, oldest first, offender last.
    pub events: Vec<WideEvent>,
}

impl Dump {
    /// NDJSON: one header line, then one line per event.
    pub fn to_ndjson(&self) -> String {
        let mut out = json_object![
            ("dump", self.id as i64),
            ("anomaly", self.anomaly),
            ("trigger_seq", self.trigger_seq as i64),
            ("events", self.events.len() as i64),
        ]
        .to_compact();
        out.push('\n');
        out.push_str(&to_ndjson(&self.events));
        out
    }
}

/// Recorder counters, for `/stats` and `pipesched stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightStats {
    /// Wide events committed since start/reset.
    pub recorded: u64,
    /// Events evicted off the ring's front.
    pub evicted: u64,
    /// Anomalies suppressed by the per-kind dump cooldown.
    pub suppressed: u64,
    /// Dumps currently retained.
    pub dumps: usize,
    /// Dumps taken since start/reset (retained or rotated out).
    pub dumps_taken: u64,
    /// Ring capacity.
    pub capacity: usize,
    /// Events currently in the ring.
    pub stored: usize,
}

impl FlightStats {
    /// JSON rendering for `/stats`.
    pub fn to_json(&self) -> Json {
        json_object![
            ("recorded", self.recorded as i64),
            ("evicted", self.evicted as i64),
            ("suppressed", self.suppressed as i64),
            ("dumps", self.dumps as i64),
            ("dumps_taken", self.dumps_taken as i64),
            ("capacity", self.capacity as i64),
            ("stored", self.stored as i64),
        ]
    }
}

struct Inner {
    /// 0 = "capacity not yet resolved" (read `PIPESCHED_FLIGHT_CAP` or
    /// the default on first use); [`set_capacity`] pins it explicitly.
    cap: usize,
    next_seq: u64,
    recorded: u64,
    evicted: u64,
    suppressed: u64,
    dumps_taken: u64,
    ring: VecDeque<WideEvent>,
    dumps: VecDeque<Dump>,
    /// Committed latencies, seeding the outlier trigger's p99 estimate.
    latency: LatencyHistogram,
    /// Last dump's trigger seq per anomaly kind (cooldown).
    last_dump_seq: [Option<u64>; Anomaly::ALL.len()],
}

impl Inner {
    fn classify(&self, ev: &WideEvent) -> Option<Anomaly> {
        match ev.outcome {
            Outcome::DeadlineMiss => Some(Anomaly::DeadlineMiss),
            Outcome::CertReject => Some(Anomaly::CertReject),
            Outcome::Disagreement => Some(Anomaly::Disagreement),
            Outcome::AdmissionReject => Some(Anomaly::AdmissionReject),
            Outcome::Ok | Outcome::BudgetExhausted | Outcome::Error => {
                let p99 = self.latency.quantile_micros(0.99);
                (self.latency.count() >= OUTLIER_MIN_SAMPLES
                    && ev.micros >= OUTLIER_FLOOR_MICROS.max(p99.saturating_mul(OUTLIER_MULTIPLE)))
                .then_some(Anomaly::LatencyOutlier)
            }
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
static RECORDER: Mutex<Inner> = Mutex::new(Inner {
    cap: 0,
    next_seq: 1,
    recorded: 0,
    evicted: 0,
    suppressed: 0,
    dumps_taken: 0,
    ring: VecDeque::new(),
    dumps: VecDeque::new(),
    latency: LatencyHistogram::new(),
    last_dump_seq: [None; Anomaly::ALL.len()],
});

fn recorder() -> MutexGuard<'static, Inner> {
    let mut g = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    if g.cap == 0 {
        g.cap = crate::capacity_from_env("PIPESCHED_FLIGHT_CAP", DEFAULT_CAPACITY);
    }
    g
}

/// This thread's event under construction.
struct Open {
    ev: WideEvent,
    /// Phase self time, nanoseconds, in [`Phase`] order.
    phases_ns: [u64; Phase::ALL.len()],
    /// Wall clock of the guards nested in the innermost open one.
    nested_ns: u64,
}

thread_local! {
    static CURRENT: RefCell<Option<Open>> = const { RefCell::new(None) };
}

/// Globally switch wide-event recording on or off. Off is the default;
/// when off, phases go untimed and [`commit`] keeps nothing.
pub fn set_enabled(on: bool) {
    // relaxed-ok: a pure on/off toggle with no dependent data — readers
    // act only on the flag value itself, so no ordering is needed.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether wide-event recording is globally enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether this thread's phase guards time into an open wide event: the
/// recorder is on and [`begin`] opened an event not yet finished.
pub fn active() -> bool {
    enabled() && CURRENT.with(|c| c.borrow().is_some())
}

/// Override the ring capacity (tests and the CLI; production uses
/// `PIPESCHED_FLIGHT_CAP`). Trims the ring if it shrank.
pub fn set_capacity(cap: usize) {
    let mut g = recorder();
    g.cap = cap.max(1);
    while g.ring.len() > g.cap {
        g.ring.pop_front();
        g.evicted += 1;
    }
}

/// Drop every event, dump, and counter (tests and replay tools). The
/// enabled flag and sequence numbering are left alone.
pub fn reset() {
    let mut g = recorder();
    g.ring.clear();
    g.dumps.clear();
    g.recorded = 0;
    g.evicted = 0;
    g.suppressed = 0;
    g.dumps_taken = 0;
    g.latency = LatencyHistogram::new();
    g.last_dump_seq = [None; Anomaly::ALL.len()];
}

/// Open this thread's wide event for the request being served. Replaces
/// any event left open by an earlier request that never finished.
pub fn begin(req: i64) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Open {
            ev: WideEvent::new(req),
            phases_ns: [0; Phase::ALL.len()],
            nested_ns: 0,
        })
    });
}

/// Apply `f` to this thread's open wide event; a no-op when none is open
/// (an engine called outside the serve loop).
pub fn update(f: impl FnOnce(&mut WideEvent)) {
    CURRENT.with(|c| {
        if let Some(open) = c.borrow_mut().as_mut() {
            f(&mut open.ev);
        }
    });
}

/// RAII guard for one request phase, from [`phase`]. Dropping it closes
/// the phase's span and adds the phase's self time to the open event.
#[must_use = "a phase ends when its guard drops"]
#[derive(Debug)]
pub struct PhaseGuard {
    /// Phase, start, and the enclosing guard's nested time so far.
    timed: Option<(Phase, Instant, u64)>,
    _span: SpanGuard,
}

/// Open a request phase: the span `span` plus, while [`active`], a clock
/// whose *self* time — wall clock minus that of phases nested inside it —
/// lands in the event's phase timing when the guard drops.
pub fn phase(phase: Phase, span: &'static str) -> PhaseGuard {
    let span = crate::span(span);
    let timed = if enabled() {
        CURRENT.with(|c| {
            let mut c = c.borrow_mut();
            let open = c.as_mut()?;
            Some((phase, Instant::now(), std::mem::take(&mut open.nested_ns)))
        })
    } else {
        None
    };
    PhaseGuard { timed, _span: span }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some((phase, start, outer)) = self.timed else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        CURRENT.with(|c| {
            if let Some(open) = c.borrow_mut().as_mut() {
                open.phases_ns[phase as usize] += elapsed.saturating_sub(open.nested_ns);
                open.nested_ns = outer + elapsed;
            }
        });
    }
}

/// Close this thread's wide event: stamp the whole-request latency and
/// the trace id, and fold the phases' self time in. `None` when no event
/// was open.
pub fn finish(micros: u64, trace_id: u64) -> Option<WideEvent> {
    let Open {
        mut ev, phases_ns, ..
    } = CURRENT.with(|c| c.borrow_mut().take())?;
    ev.micros = micros;
    ev.trace_id = trace_id;
    for (us, ns) in ev.phases_us.iter_mut().zip(phases_ns) {
        *us += ns / 1_000;
    }
    Some(ev)
}

/// Publish a finished event when the recorder is on: assign its ring
/// sequence number, seal it, run the anomaly triggers, and return the
/// sequence number. When the recorder is off, the event is dropped and
/// `None` comes back.
pub fn commit(mut ev: WideEvent) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let (seq, dump_file) = {
        let mut g = recorder();
        let seq = g.next_seq;
        g.next_seq += 1;
        ev.seq = seq;
        ev.seal();
        debug_assert!(ev.verify());

        // Classify against the ring state *before* this event lands, so
        // the offender's own latency cannot inflate the p99 it is judged
        // against.
        // Lock order: the histogram's tail lock (slow requests only) is
        // taken inside the recorder lock here, and never the other way.
        let anomaly = g.classify(&ev);
        g.latency.record(ev.micros);

        g.ring.push_back(ev);
        g.recorded += 1;
        while g.ring.len() > g.cap {
            g.ring.pop_front();
            g.evicted += 1;
        }

        let dump_file = anomaly.and_then(|kind| {
            let cooled = g.last_dump_seq[kind as usize]
                .is_some_and(|last| seq.saturating_sub(last) < DUMP_COOLDOWN);
            if cooled {
                g.suppressed += 1;
                return None;
            }
            g.last_dump_seq[kind as usize] = Some(seq);
            g.dumps_taken += 1;
            let start = g.ring.len().saturating_sub(DUMP_WINDOW);
            let window = g.ring.range(start..).cloned().collect();
            let dump = Dump {
                id: g.dumps_taken,
                anomaly: kind.name(),
                trigger_seq: seq,
                events: window,
            };
            let text = dump.to_ndjson();
            g.dumps.push_back(dump);
            while g.dumps.len() > DUMP_CAPACITY {
                g.dumps.pop_front();
            }
            Some((dump_file_name(g.dumps_taken, kind), text))
        });
        (seq, dump_file)
    };

    // File I/O happens outside the recorder lock.
    if let Some((name, text)) = &dump_file {
        if let Ok(dir) = std::env::var("PIPESCHED_FLIGHT_DIR") {
            let _ = std::fs::write(std::path::Path::new(&dir).join(name), text);
        }
    }
    Some(seq)
}

fn dump_file_name(id: u64, kind: Anomaly) -> String {
    format!("flight_dump_{id}_{}.ndjson", kind.name())
}

/// The `n` most recent wide events, oldest first.
pub fn recent(n: usize) -> Vec<WideEvent> {
    let g = recorder();
    g.ring
        .range(g.ring.len().saturating_sub(n)..)
        .cloned()
        .collect()
}

/// Every retained anomaly dump, oldest first.
pub fn dumps() -> Vec<Dump> {
    recorder().dumps.iter().cloned().collect()
}

/// Recorder counters.
pub fn stats() -> FlightStats {
    let g = recorder();
    FlightStats {
        recorded: g.recorded,
        evicted: g.evicted,
        suppressed: g.suppressed,
        dumps: g.dumps.len(),
        dumps_taken: g.dumps_taken,
        capacity: g.cap,
        stored: g.ring.len(),
    }
}

/// NDJSON: one line per event.
pub fn to_ndjson(events: &[WideEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_ndjson());
        out.push('\n');
    }
    out
}

/// Fixed-width table of wide events, the default `pipesched flight` view.
pub fn render_table(events: &[WideEvent]) -> String {
    let mut out = format!(
        "{:>6} {:>6} {:<8} {:<7} {:<5} {:<16} {:>4} {:>3} {:>9} {:>9} {:>5} {:>8}\n",
        "seq",
        "req",
        "tier",
        "backend",
        "cache",
        "outcome",
        "nops",
        "opt",
        "nodes",
        "µs",
        "n",
        "trace"
    );
    for ev in events {
        out.push_str(&format!(
            "{:>6} {:>6} {:<8} {:<7} {:<5} {:<16} {:>4} {:>3} {:>9} {:>9} {:>5} {:>8}\n",
            ev.seq,
            ev.req,
            ev.tier,
            ev.backend,
            ev.cache.name(),
            ev.outcome.name(),
            ev.nops,
            if ev.optimal { "yes" } else { "no" },
            ev.nodes,
            ev.micros,
            ev.n,
            ev.trace_id,
        ));
    }
    out
}

/// Folded flamegraph stacks over the per-phase timings: each event's
/// phases fold under `serve;<tier>`, with the unattributed remainder as
/// `serve;<tier>;other` — mergeable by standard flamegraph tooling.
pub fn render_flame(events: &[WideEvent]) -> String {
    let mut stacks: Vec<(String, u64)> = Vec::new();
    let mut bump = |path: String, us: u64| {
        if us == 0 {
            return;
        }
        match stacks.iter_mut().find(|(p, _)| *p == path) {
            Some(entry) => entry.1 += us,
            None => stacks.push((path, us)),
        }
    };
    for ev in events {
        let mut attributed = 0u64;
        for (phase, &us) in Phase::ALL.iter().zip(ev.phases_us.iter()) {
            let name = phase.name().trim_start_matches("us_");
            bump(format!("serve;{};{name}", ev.tier), us);
            attributed += us;
        }
        bump(
            format!("serve;{};other", ev.tier),
            ev.micros.saturating_sub(attributed),
        );
    }
    let mut out = String::new();
    for (path, us) in stacks {
        out.push_str(&format!("{path} {us}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flight tests share the process-global recorder with the rest of
    /// this binary's tests; serialize them.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    fn record_one(req: i64, micros: u64, outcome: Outcome) -> Option<u64> {
        begin(req);
        update(|ev| {
            (ev.canon, ev.n, ev.machine_fp) = (0xabcd, 6, 0x1234);
            (ev.tier, ev.backend, ev.cache) = ("bnb", "bnb", Cache::Miss);
            (ev.nops, ev.optimal, ev.proof_digest) = (2, true, 77);
            (ev.nodes, ev.omega, ev.pruned) = (10, 12, 3);
            ev.raise(outcome);
        });
        commit(finish(micros, 0)?)
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _l = locked();
        set_enabled(false);
        reset();
        begin(1);
        update(|ev| (ev.canon, ev.n, ev.machine_fp) = (1, 2, 3));
        assert!(!active());
        {
            let _p = phase(Phase::Search, "search");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let ev = finish(10, 0).expect("the event is built with the recorder off");
        assert_eq!(ev.phases_us, [0; 7], "phases go untimed");
        assert_eq!(commit(ev), None);
        assert_eq!(stats().recorded, 0);
        assert!(recent(10).is_empty());
    }

    #[test]
    fn nested_phases_record_self_time() {
        let _l = locked();
        set_enabled(true);
        begin(1);
        {
            let _search = phase(Phase::Search, "search");
            let _prove = phase(Phase::Prove, "prove");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let ev = finish(10_000, 0).expect("event was open");
        set_enabled(false);
        let us = |p: Phase| ev.phases_us[p as usize];
        assert!(us(Phase::Prove) >= 2_000, "{:?}", ev.phases_us);
        assert!(
            us(Phase::Search) < 2_000,
            "the search phase must not count the nested proof: {:?}",
            ev.phases_us
        );
    }

    #[test]
    fn events_seal_verify_and_round_trip_as_json() {
        let _l = locked();
        set_enabled(true);
        reset();
        let seq = record_one(42, 1234, Outcome::Ok).expect("recorded");
        set_enabled(false);
        let events = recent(10);
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.seq, seq);
        assert_eq!(ev.req, 42);
        assert_eq!((ev.nodes, ev.omega, ev.pruned), (10, 12, 3));
        assert!(ev.verify());
        let doc = pipesched_json::parse(&ev.to_ndjson()).expect("valid JSON");
        // Every documented field is present, none extra.
        if let pipesched_json::Json::Object(pairs) = &doc {
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, WideEvent::FIELDS);
        } else {
            panic!("wide event must serialize as an object");
        }
        // The NDJSON line parses back to the identical event, and the
        // re-parsed copy still verifies (and still detects tampering).
        let back = WideEvent::from_ndjson(&ev.to_ndjson()).expect("line parses back");
        assert_eq!(&back, ev);
        assert!(back.verify());
        let forged = ev.to_ndjson().replace("\"req\":42", "\"req\":43");
        let forged = WideEvent::from_ndjson(&forged).expect("forged line still parses");
        assert!(!forged.verify(), "re-parsed forgeries must fail the seal");
        assert!(WideEvent::from_ndjson("{\"dump\":1}").is_none());
        assert!(WideEvent::from_ndjson("not json").is_none());
    }

    #[test]
    fn forged_events_fail_their_checksum() {
        let _l = locked();
        set_enabled(true);
        reset();
        record_one(1, 500, Outcome::Ok);
        set_enabled(false);
        let mut ev = recent(1).pop().expect("recorded");
        assert!(ev.verify());
        ev.nops += 1; // the forgery
        assert!(!ev.verify());
        ev.nops -= 1;
        assert!(ev.verify());
        ev.checksum ^= 1;
        assert!(!ev.verify());
    }

    #[test]
    fn ring_evicts_past_capacity_and_counts_it() {
        let _l = locked();
        set_enabled(true);
        reset();
        set_capacity(4);
        for i in 0..10 {
            record_one(i, 100, Outcome::Ok);
        }
        set_enabled(false);
        let s = stats();
        assert_eq!(s.recorded, 10);
        assert_eq!(s.stored, 4);
        assert_eq!(s.evicted, 6);
        let events = recent(100);
        assert_eq!(events.len(), 4);
        assert_eq!(events.last().unwrap().req, 9);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn deadline_miss_freezes_a_dump_with_the_offender_last() {
        let _l = locked();
        set_enabled(true);
        reset();
        for i in 0..5 {
            record_one(i, 100, Outcome::Ok);
        }
        let bad = record_one(99, 50_000, Outcome::DeadlineMiss).unwrap();
        record_one(6, 100, Outcome::Ok);
        set_enabled(false);
        let dumps = dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.anomaly, "deadline_miss");
        assert_eq!(d.trigger_seq, bad);
        let last = d.events.last().unwrap();
        assert_eq!(last.req, 99);
        assert_eq!(last.seq, bad);
        assert!(d.events.iter().all(WideEvent::verify));
        // The post-anomaly event did not leak into the frozen window.
        assert!(d.events.iter().all(|e| e.seq <= bad));
        // Header line + one line per event, all parseable.
        let ndjson = d.to_ndjson();
        assert_eq!(ndjson.lines().count(), d.events.len() + 1);
        for line in ndjson.lines() {
            pipesched_json::parse(line).expect("dump line is JSON");
        }
    }

    #[test]
    fn repeated_anomalies_cool_down_instead_of_flooding() {
        let _l = locked();
        set_enabled(true);
        reset();
        for i in 0..5 {
            record_one(i, 100, Outcome::DeadlineMiss);
        }
        set_enabled(false);
        let s = stats();
        assert_eq!(s.dumps_taken, 1);
        assert_eq!(s.suppressed, 4);
    }

    #[test]
    fn latency_outlier_fires_only_after_the_estimate_seeds() {
        let _l = locked();
        set_enabled(true);
        reset();
        // Below OUTLIER_MIN_SAMPLES: a huge latency is not yet an outlier.
        record_one(0, 10_000_000, Outcome::Ok);
        assert_eq!(stats().dumps_taken, 0);
        reset();
        for i in 0..OUTLIER_MIN_SAMPLES as i64 {
            record_one(i, 100, Outcome::Ok);
        }
        // The p99 estimate lands at the top of the [64, 128) µs bucket;
        // 8× that is ~1 ms, near the floor, so the trigger threshold is
        // ~1 ms — 50 ms trips it.
        record_one(777, 50_000, Outcome::Ok);
        set_enabled(false);
        let dumps = dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].anomaly, "latency_outlier");
        assert_eq!(dumps[0].events.last().unwrap().req, 777);
    }

    #[test]
    fn outcomes_escalate_but_never_downgrade() {
        let _l = locked();
        set_enabled(true);
        reset();
        begin(1);
        update(|ev| {
            ev.raise(Outcome::Disagreement);
            ev.raise(Outcome::Ok); // the serve loop's routine success note
        });
        commit(finish(10, 0).unwrap());
        set_enabled(false);
        assert_eq!(recent(1)[0].outcome, Outcome::Disagreement);
    }

    #[test]
    fn renderings_cover_every_event() {
        let _l = locked();
        set_enabled(true);
        reset();
        begin(3);
        update(|ev| {
            (ev.tier, ev.backend, ev.cache, ev.optimal) = ("cache", "bnb", Cache::Hit, true);
            ev.phases_us[Phase::Parse as usize] = 10;
            ev.phases_us[Phase::Cache as usize] = 30;
        });
        commit(finish(50, 9).unwrap());
        set_enabled(false);
        let events = recent(10);
        let table = render_table(&events);
        assert!(table.contains("cache"), "{table}");
        assert!(table.lines().count() == events.len() + 1);
        let flame = render_flame(&events);
        assert!(flame.contains("serve;cache;parse 10"), "{flame}");
        assert!(flame.contains("serve;cache;cache 30"), "{flame}");
        assert!(flame.contains("serve;cache;other 10"), "{flame}");
        let ndjson = to_ndjson(&events);
        assert_eq!(ndjson.lines().count(), events.len());
    }
}
