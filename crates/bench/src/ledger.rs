//! The benchmark ledger: alternating parent/change pairs of perfbench runs,
//! summarized into `BENCH_trajectory.json` records.
//!
//! `repro pairs` builds perfbench at a parent revision and at the working
//! tree, runs the two in alternating order, and appends one schema-v2
//! record per workload. This module holds what a record says about the
//! runs: each side's median and quartiles of every end-to-end metric, the
//! number of pairs the change won, and the verdict under the metric's
//! `better` direction and relative `bound` from `BENCHMARK.json`.

use pipesched_json::{json_object, Json};

/// Schema version of the records this module writes.
pub const SCHEMA_VERSION: i64 = 2;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as perfbench prints it.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest relative worsening of the median that still counts as no
    /// worse, as a fraction of the parent's median.
    pub bound: f64,
}

/// Read the end-to-end metrics of a `BENCHMARK.json` document.
pub fn end_to_end(benchmark: &Json) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end-to-end metric lacks `{k}`"));
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("`better` is {other:?}, not lower or higher")),
            };
            Ok(MetricSpec {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                better,
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

/// Median and quartiles of a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by linear interpolation between order statistics (the
    /// `p · (n − 1)` rank); all NaN for no samples.
    pub fn of(samples: &[f64]) -> Self {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            if v.is_empty() {
                return f64::NAN;
            }
            let rank = p * (v.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    fn to_json(self) -> Json {
        json_object![("median", self.median), ("q1", self.q1), ("q3", self.q3)]
    }
}

/// What the pairs say about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine pairs in ten, and its median is better
    /// than the parent's by more than the parent's interquartile range.
    Better,
    /// Not better, and the change's median is worse than the parent's by
    /// at most the bound.
    NoWorse,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Not better, and one side's interquartile range exceeds the bound,
    /// so the runs cannot tell whether the change is within it.
    Unresolved,
}

impl Verdict {
    /// The name a record stores.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric over the pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub parent: Quartiles,
    /// The change's runs.
    pub change: Quartiles,
    /// Pairs whose change run was strictly better than its parent run.
    pub change_better: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare the paired runs `parent[i]`, `change[i]` of one metric.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert_eq!(parent.len(), change.len(), "runs come in pairs");
    // How much `a` improves on `b` (negative: worsens).
    let gain = |a: f64, b: f64| match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let (p, c) = (Quartiles::of(parent), Quartiles::of(change));
    let pairs = parent.len();
    let change_better = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(c, p) > 0.0)
        .count();
    let scale = p.median.abs();
    let verdict =
        if pairs > 0 && change_better * 10 >= pairs * 9 && gain(c.median, p.median) > p.iqr() {
            Verdict::Better
        } else if p.iqr().max(c.iqr()) > bound * scale {
            Verdict::Unresolved
        } else if -gain(c.median, p.median) > bound * scale {
            Verdict::Worse
        } else {
            Verdict::NoWorse
        };
    Comparison {
        parent: p,
        change: c,
        change_better,
        pairs,
        verdict,
    }
}

impl Comparison {
    /// The record's entry for this metric.
    pub fn to_json(&self, spec: &MetricSpec) -> Json {
        json_object![
            ("unit", spec.unit.as_str()),
            (
                "better",
                match spec.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
            ),
            ("bound", spec.bound),
            ("parent", self.parent.to_json()),
            ("change", self.change.to_json()),
            ("change_better_pairs", self.change_better as i64),
            ("pairs", self.pairs as i64),
            ("verdict", self.verdict.as_str()),
        ]
    }
}

/// The host a record was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operating system.
    pub os: String,
    /// CPU architecture.
    pub arch: String,
    /// Cores the process may use.
    pub cores: usize,
    /// CPU model name (`unknown` where the host does not say).
    pub cpu_model: String,
}

impl Fingerprint {
    /// This host's fingerprint.
    pub fn here() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
        }
    }

    fn to_json(&self) -> Json {
        json_object![
            ("os", self.os.as_str()),
            ("arch", self.arch.as_str()),
            ("cores", self.cores as i64),
            ("cpu_model", self.cpu_model.as_str()),
        ]
    }
}

/// One run's end-to-end metrics, by name.
pub type RunMetrics = Vec<(String, f64)>;

/// How a set of pairs was run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairsRun {
    /// The parent revision, as given.
    pub parent_rev: String,
    /// The change: the working tree's `HEAD`, marked `+` when the tree
    /// differs from it.
    pub change_rev: String,
    /// Workload.
    pub workload: String,
    /// perfbench's `--seed`.
    pub seed: u64,
    /// Seconds per run.
    pub seconds: f64,
    /// Runs of either side that reported failed units.
    pub failed_runs: usize,
}

/// Build the record of one workload's pairs. `runs` holds, per pair, the
/// parent's and the change's metrics by name.
pub fn record(
    seq: i64,
    run: &PairsRun,
    fingerprint: &Fingerprint,
    specs: &[MetricSpec],
    runs: &[(RunMetrics, RunMetrics)],
) -> Json {
    let value = |side: &[(String, f64)], name: &str| {
        side.iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let metrics: Vec<(String, Json)> = specs
        .iter()
        .map(|spec| {
            let parent: Vec<f64> = runs.iter().map(|(p, _)| value(p, &spec.name)).collect();
            let change: Vec<f64> = runs.iter().map(|(_, c)| value(c, &spec.name)).collect();
            let cmp = compare(&parent, &change, spec.better, spec.bound);
            (spec.name.clone(), cmp.to_json(spec))
        })
        .collect();
    json_object![
        ("schema_version", SCHEMA_VERSION),
        ("seq", seq),
        ("kind", "pairs"),
        ("parent_rev", run.parent_rev.as_str()),
        ("change_rev", run.change_rev.as_str()),
        ("fingerprint", fingerprint.to_json()),
        ("workload", run.workload.as_str()),
        ("seed", run.seed as i64),
        ("pairs", runs.len() as i64),
        ("seconds", run.seconds),
        ("failed_runs", run.failed_runs as i64),
        ("metrics", Json::Object(metrics)),
    ]
}

/// Append `record` (whose `seq` must be [`next_seq`]'s) to the ledger
/// document `ledger`.
pub fn append(ledger: &mut Json, record: Json) -> Result<(), String> {
    let Json::Object(members) = ledger else {
        return Err("the ledger is not a JSON object".into());
    };
    for (key, value) in members.iter_mut() {
        match (key.as_str(), value) {
            ("schema_version", v) => *v = Json::Int(SCHEMA_VERSION),
            ("records", Json::Array(records)) => {
                records.push(record);
                return Ok(());
            }
            _ => {}
        }
    }
    Err("the ledger has no `records` list".into())
}

/// The `seq` the next record of `ledger` takes.
pub fn next_seq(ledger: &Json) -> i64 {
    ledger
        .get("records")
        .and_then(Json::as_array)
        .map_or(0, |records| {
            records
                .iter()
                .filter_map(|r| r.get("seq").and_then(Json::as_i64))
                .max()
                .unwrap_or(0)
        })
        + 1
}

/// The metrics of one perfbench run, from the JSON summary it prints as its
/// last line, and whether the run reported failed units.
pub fn parse_run(stdout: &str) -> Result<(RunMetrics, bool), String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("perfbench printed no JSON summary")?;
    let doc = pipesched_json::parse(last).map_err(|e| format!("perfbench summary: {e}"))?;
    let failed = doc.get("failed").and_then(Json::as_i64).unwrap_or(1) != 0;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("perfbench summary has no metrics")?
        .iter()
        .filter_map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64)?;
            Some((name.clone(), v))
        })
        .collect();
    Ok((metrics, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert_eq!(q.iqr(), 1.5);
        assert!(Quartiles::of(&[]).median.is_nan());
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = [23.0, 23.4, 22.8, 23.1, 23.6, 22.9, 23.2, 23.0, 23.3, 23.1];
        // A fifth lower in every pair: better.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let c = compare(&parent, &faster, LOWER, 0.25);
        assert_eq!(c.change_better, 10);
        assert_eq!(c.verdict, Verdict::Better);
        // The same runs on a higher-is-better metric are a worsening of
        // 20%: within a 25% bound, past a 10% one.
        assert_eq!(
            compare(&parent, &faster, Better::Higher, 0.25).verdict,
            Verdict::NoWorse
        );
        assert_eq!(
            compare(&parent, &faster, Better::Higher, 0.1).verdict,
            Verdict::Worse
        );
        // Noise around the same value: no worse, not better.
        let same = [23.1, 23.0, 23.3, 22.9, 23.5, 23.0, 23.1, 23.2, 23.2, 23.0];
        let c = compare(&parent, &same, LOWER, 0.25);
        assert_eq!(c.verdict, Verdict::NoWorse);
        assert!(c.change_better < 9);
        // Nine wins of ten, but by less than the parent's IQR: not better.
        let mut barely: Vec<f64> = parent.iter().map(|v| v - 0.01).collect();
        barely[0] += 1.0;
        let c = compare(&parent, &barely, LOWER, 0.25);
        assert_eq!(c.change_better, 9);
        assert_eq!(c.verdict, Verdict::NoWorse);
        // A spread wider than the bound cannot say no worse.
        let wide = [27.6, 45.0, 31.0, 36.5, 42.9, 28.0, 44.0, 30.0, 37.0, 35.0];
        let c = compare(&wide, &wide.map(|v| v * 1.05), LOWER, 0.25);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Identical runs, as for an exact quality metric: no worse.
        let exact = [1.2061875; 10];
        let c = compare(&exact, &exact, LOWER, 0.1);
        assert_eq!((c.change_better, c.verdict), (0, Verdict::NoWorse));
    }

    #[test]
    fn records_append_with_the_next_seq() {
        let mut ledger =
            pipesched_json::parse(r#"{"schema_version": 1, "records": [{"seq": 1}]}"#).unwrap();
        assert_eq!(next_seq(&ledger), 2);
        let spec = MetricSpec {
            name: "latency_us_p50".into(),
            unit: "us".into(),
            better: LOWER,
            bound: 0.25,
        };
        let runs: Vec<_> = (0..10)
            .map(|i| {
                let v = 20.0 + f64::from(i) * 0.1;
                (
                    vec![("latency_us_p50".to_string(), v)],
                    vec![("latency_us_p50".to_string(), v * 0.8)],
                )
            })
            .collect();
        let run = PairsRun {
            parent_rev: "abc1234".into(),
            change_rev: "def5678+".into(),
            workload: "corpus".into(),
            seed: 1,
            seconds: 36.0,
            failed_runs: 0,
        };
        let fingerprint = Fingerprint {
            os: "linux".into(),
            arch: "x86_64".into(),
            cores: 2,
            cpu_model: "test".into(),
        };
        let rec = record(2, &run, &fingerprint, &[spec], &runs);
        append(&mut ledger, rec).unwrap();
        assert_eq!(next_seq(&ledger), 3);
        assert_eq!(ledger.get("schema_version").and_then(Json::as_i64), Some(2));
        let m = ledger.get("records").and_then(Json::as_array).unwrap()[1]
            .get("metrics")
            .and_then(|m| m.get("latency_us_p50"))
            .cloned()
            .unwrap();
        assert_eq!(m.get("verdict").and_then(Json::as_str), Some("better"));
        assert_eq!(
            m.get("change_better_pairs").and_then(Json::as_i64),
            Some(10)
        );
    }

    #[test]
    fn a_perfbench_summary_parses() {
        let out = "# note\nthroughput_per_s 100 1/s\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"throughput_per_s\":{\"value\":100.5,\"unit\":\"1/s\"}}}\n";
        let (metrics, failed) = parse_run(out).unwrap();
        assert!(!failed);
        assert_eq!(metrics, vec![("throughput_per_s".to_string(), 100.5)]);
        assert!(parse_run("no summary").is_err());
    }
}
