//! Minimal Prometheus text-format (version 0.0.4) writer and validator.
//!
//! The service's `/metrics` endpoint builds its exposition through
//! [`PromWriter`]; [`validate`] is the independent parser tests and the CI
//! smoke use to assert the exposition stays machine-readable.

/// Incremental Prometheus text-format writer.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `# HELP` / `# TYPE` headers for a metric family.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Append one unlabeled sample.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.out.push_str(&format!("{name} {}\n", fmt_value(value)));
    }

    /// Append one sample with `{key="value",...}` labels.
    pub fn sample_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        self.out.push_str(&format!(
            "{name}{{{}}} {}\n",
            body.join(","),
            fmt_value(value)
        ));
    }

    /// A family of `kind` with one sample per `(value, sample)`, each
    /// labelled `key="value"`.
    pub fn labeled<'v>(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        key: &str,
        samples: impl IntoIterator<Item = (&'v str, f64)>,
    ) {
        self.header(name, help, kind);
        for (value, sample) in samples {
            self.sample_labeled(name, &[(key, value)], sample);
        }
    }

    /// A counter family with a single unlabeled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, value as f64);
    }

    /// A gauge family with a single unlabeled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, value);
    }

    /// Finish and return the exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Label values escape `\`, `"`, and newlines.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Integers render without a fraction; everything else as plain decimal.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Check that `text` parses as Prometheus exposition: every line is blank,
/// a comment, or `name[{labels}] value` with a well-formed metric name,
/// label syntax, and numeric value. Returns the first offence.
pub fn validate(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| at("sample has no value"))?;
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return Err(at("bad metric name"));
        }
        let rest = &line[name_end..];
        let rest = if let Some(body) = rest.strip_prefix('{') {
            let close = body.find('}').ok_or_else(|| at("unclosed label set"))?;
            validate_labels(&body[..close]).map_err(|m| at(&m))?;
            &body[close + 1..]
        } else {
            rest
        };
        let value = rest.trim();
        let numeric = value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value);
        if !numeric {
            return Err(at("unparseable sample value"));
        }
    }
    Ok(())
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn validate_labels(body: &str) -> Result<(), String> {
    if body.is_empty() {
        return Ok(());
    }
    for pair in body.split(',') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("label without `=`: {pair}"))?;
        if !is_metric_name(key) {
            return Err(format!("bad label name: {key}"));
        }
        if !(value.len() >= 2 && value.starts_with('"') && value.ends_with('"')) {
            return Err(format!("unquoted label value: {value}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_validates() {
        let mut w = PromWriter::new();
        w.counter("pipesched_requests_total", "Requests received.", 42);
        w.gauge("pipesched_cache_entries", "Cached schedules.", 17.0);
        w.header(
            "pipesched_tier_answers_total",
            "Answers by tier.",
            "counter",
        );
        w.sample_labeled("pipesched_tier_answers_total", &[("tier", "bnb")], 3.0);
        w.sample_labeled(
            "pipesched_request_latency_micros",
            &[("quantile", "0.99")],
            812.5,
        );
        let text = w.finish();
        assert!(text.contains("# TYPE pipesched_requests_total counter"));
        assert!(text.contains("pipesched_requests_total 42\n"));
        assert!(text.contains("pipesched_tier_answers_total{tier=\"bnb\"} 3\n"));
        assert!(text.contains("{quantile=\"0.99\"} 812.5\n"));
        validate(&text).expect("writer output must validate");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate("ok_metric 1\n").is_ok());
        assert!(validate("9starts_with_digit 1\n").is_err());
        assert!(validate("no_value\n").is_err());
        assert!(validate("bad_value one\n").is_err());
        assert!(validate("unclosed{label=\"x\" 1\n").is_err());
        assert!(validate("unquoted{label=x} 1\n").is_err());
        assert!(validate("# any comment line\nm{a=\"b\",c=\"d\"} +Inf\n").is_ok());
    }

    #[test]
    fn label_values_escape_quotes_and_backslashes() {
        let mut w = PromWriter::new();
        w.sample_labeled("m", &[("k", "a\"b\\c\nd")], 1.0);
        let text = w.finish();
        assert_eq!(text, "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
        validate(&text).expect("escaped output must validate");
    }
}
