//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer's
//! public function: name, start, end, parent span, and the id of the unit
//! (block or request) they belong to. They stay in memory until the run
//! ends and are then aggregated per name and written out as NDJSON. With
//! tracing off, [`Tracer::span`] only calls its closure.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Block or request the span belongs to.
    pub unit: u64,
    /// Layer call, e.g. `core.bnb`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread recorder of spans and work counts.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    unit: u64,
    stack: Vec<u64>,
    /// Finished spans, in end order.
    pub spans: Vec<Span>,
    /// Work counts recorded at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-unit samples whose medians are reported (latency by size).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A recorder; `tag` keeps span ids unique across threads sharing
    /// `epoch`.
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Self {
        Tracer {
            on,
            epoch,
            tag,
            next: 0,
            unit: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attribute the following spans to `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        self.next += 1;
        let id = (self.tag << 48) | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            unit: self.unit,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Add `v` to the work count `name` (only while recording).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Add a sample to the series `name` (only while recording).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Move another recorder's spans, counts and samples into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus its children's.
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span in microseconds.
    pub fn self_us(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.count as f64) / 1e3
    }
}

/// Self time of each span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_insert(0) += s.dur();
    }
    spans
        .iter()
        .map(|s| {
            s.dur()
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Aggregate spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur();
        a.self_ns += self_ns;
    }
    out
}

/// Write spans as NDJSON, one object per line, with their self time.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.unit, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.set_unit(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans.len(), 2);
        let inner = t.spans[0];
        let outer = t.spans[1];
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.unit, 3);
        let agg = aggregate(&t.spans);
        assert_eq!(agg["outer"].self_ns, outer.dur() - inner.dur());
        assert_eq!(agg["inner"].self_ns, inner.dur());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 5), 5);
        t.count("c", 1.0);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
