//! The README's diagnostic-code table is a contract: every code the
//! analyzer can emit must be documented, with the right severity and
//! summary, and the table must not advertise codes that no longer exist.
//! This test parses the table out of README.md and diffs it against
//! [`DiagCode::ALL`].

use std::collections::BTreeMap;

use pipesched::analyze::DiagCode;

/// Extract `(code, severity, meaning)` rows from the README's
/// diagnostic-code table (rows shaped `| `A0101` | error | ... |`).
fn readme_rows() -> BTreeMap<String, (String, String)> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let mut rows = BTreeMap::new();
    for line in readme.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // A table row splits into ["", code, severity, meaning, ""].
        if cells.len() != 5 || !cells[1].starts_with("`A0") {
            continue;
        }
        let code = cells[1].trim_matches('`').to_string();
        let dup = rows.insert(code.clone(), (cells[2].to_string(), cells[3].to_string()));
        assert!(dup.is_none(), "README documents {code} twice");
    }
    rows
}

#[test]
fn readme_diagnostic_table_matches_the_analyzer() {
    let rows = readme_rows();
    assert!(
        !rows.is_empty(),
        "no diagnostic-code table rows found in README.md"
    );

    let mut missing = Vec::new();
    let mut wrong = Vec::new();
    for &code in DiagCode::ALL {
        match rows.get(code.as_str()) {
            None => missing.push(code.as_str()),
            Some((severity, meaning)) => {
                if severity != &code.severity().to_string() || meaning != code.summary() {
                    wrong.push(format!(
                        "{}: README says `{severity}` / \"{meaning}\", analyzer says `{}` / \"{}\"",
                        code.as_str(),
                        code.severity(),
                        code.summary()
                    ));
                }
            }
        }
    }
    let stale: Vec<&String> = rows
        .keys()
        .filter(|code| code.parse::<DiagCode>().is_err())
        .collect();

    assert!(
        missing.is_empty() && wrong.is_empty() && stale.is_empty(),
        "README diagnostic table out of sync with crates/analyze/src/diag.rs\n\
         undocumented codes: {missing:?}\n\
         mismatched rows: {wrong:#?}\n\
         stale rows (no such code): {stale:?}"
    );

    // The table and the registry are the same size, so the checks above
    // were exhaustive in both directions.
    assert_eq!(rows.len(), DiagCode::ALL.len());
}

/// Extract the backtick-quoted field names from the README's wide-event
/// table — the rows following the `| wide-event field | meaning |`
/// header, until the first non-table line.
fn readme_wide_event_fields() -> Vec<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let mut fields = Vec::new();
    let mut in_table = false;
    for line in readme.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() == 4 && cells[1] == "wide-event field" && cells[2] == "meaning" {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if cells.len() != 4 {
            break; // table ended
        }
        if cells[1].starts_with("---") {
            continue; // separator row
        }
        let field = cells[1].trim_matches('`').to_string();
        assert!(
            !fields.contains(&field),
            "README wide-event table documents `{field}` twice"
        );
        fields.push(field);
    }
    fields
}

/// The README's wide-event field table is a contract with the flight
/// recorder: it must list exactly [`WideEvent::FIELDS`], in order, so a
/// reader of a dumped NDJSON line can look every column up.
#[test]
fn readme_wide_event_table_matches_the_flight_recorder() {
    use pipesched::trace::flight::WideEvent;

    let documented = readme_wide_event_fields();
    assert!(
        !documented.is_empty(),
        "no `| wide-event field | meaning |` table found in README.md"
    );

    let registered: Vec<&str> = WideEvent::FIELDS.to_vec();
    let missing: Vec<&&str> = registered
        .iter()
        .filter(|f| !documented.iter().any(|d| d == **f))
        .collect();
    let stale: Vec<&String> = documented
        .iter()
        .filter(|d| !registered.contains(&d.as_str()))
        .collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "README wide-event table out of sync with crates/trace/src/flight.rs\n\
         undocumented fields: {missing:?}\n\
         stale rows (no such field): {stale:?}"
    );
    // Same set both ways — now pin the order to emission order, so the
    // table reads in the same order as a dumped NDJSON line.
    assert_eq!(
        documented, registered,
        "README wide-event rows must follow WideEvent::FIELDS emission order"
    );
}

/// Extract `(family, label, meaning)` rows from the README's `/metrics`
/// table — the rows following the `| `/metrics` family | labels |
/// meaning |` header, until the first non-table line. `-` means no label.
fn readme_metric_families() -> Vec<(String, Option<String>, String)> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in readme.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() == 5 && cells[1] == "`/metrics` family" {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if cells.len() != 5 {
            break; // table ended
        }
        if cells[1].starts_with("---") {
            continue; // separator row
        }
        let label = (cells[2] != "-").then(|| cells[2].trim_matches('`').to_string());
        rows.push((
            cells[1].trim_matches('`').to_string(),
            label,
            cells[3].to_string(),
        ));
    }
    rows
}

/// The README's `/metrics` table is a contract with the exposition: it
/// lists exactly the families a scrape of a fresh engine prints, in
/// order, each with the label its samples carry and its `# HELP` text,
/// and every row of the counter table is among them.
#[test]
fn readme_metrics_table_matches_the_exposition() {
    use pipesched::service::metrics::COUNTERS;
    use pipesched::service::{EngineConfig, ServiceEngine};

    let documented = readme_metric_families();
    assert!(
        !documented.is_empty(),
        "no `| `/metrics` family | labels | meaning |` table found in README.md"
    );

    let scrape = ServiceEngine::new(EngineConfig::default(), 4, 1).prometheus();
    let mut exposed: Vec<(String, Option<String>, String)> = Vec::new();
    for line in scrape.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP names its family");
            exposed.push((name.to_string(), None, help.to_string()));
        } else if let Some((_, labels)) = line.split_once('{') {
            let key = labels.split('=').next().expect("a label key");
            let family = exposed.last_mut().expect("samples follow their HELP line");
            family.1 = Some(key.to_string());
        }
    }
    let names = |rows: &[(String, Option<String>, String)]| -> Vec<String> {
        rows.iter().map(|r| r.0.clone()).collect()
    };
    assert_eq!(
        names(&documented),
        names(&exposed),
        "README /metrics table out of sync with the exposition (names, in order)"
    );
    assert_eq!(
        documented, exposed,
        "README /metrics rows must give each family's label and HELP text"
    );

    for row in COUNTERS {
        let label = row.labels.values().map(|(key, _)| key.to_string());
        let documented_row = (row.name.to_string(), label, row.help.to_string());
        assert!(
            documented.contains(&documented_row),
            "counter `{}` has no matching README row",
            row.name
        );
    }
}

/// The dataflow/translation-validation family (`A05xx`) specifically:
/// every code the analyzer registers is documented, and every documented
/// `A05` row names a registered code — in both directions, independently
/// of the full-table check above.
#[test]
fn a05xx_table_complete_both_directions() {
    let rows = readme_rows();
    let registered: Vec<&str> = DiagCode::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|s| s.starts_with("A05"))
        .collect();
    assert!(
        !registered.is_empty(),
        "analyzer registers no A05xx codes — dataflow lints missing"
    );
    let documented: Vec<&String> = rows.keys().filter(|c| c.starts_with("A05")).collect();
    for code in &registered {
        assert!(
            rows.contains_key(*code),
            "A05xx code {code} is not documented in README.md"
        );
    }
    assert_eq!(
        documented.len(),
        registered.len(),
        "README documents A05xx rows for codes the analyzer does not register:\n\
         documented {documented:?}\nregistered {registered:?}"
    );
}

/// The SAT-backend audit family (`A06xx`) specifically: every code the
/// analyzer registers is documented, and every documented `A06` row
/// names a registered code — in both directions, independently of the
/// full-table check above.
#[test]
fn a06xx_table_complete_both_directions() {
    let rows = readme_rows();
    let registered: Vec<&str> = DiagCode::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|s| s.starts_with("A06"))
        .collect();
    assert!(
        !registered.is_empty(),
        "analyzer registers no A06xx codes — SAT-backend audit codes missing"
    );
    let documented: Vec<&String> = rows.keys().filter(|c| c.starts_with("A06")).collect();
    for code in &registered {
        assert!(
            rows.contains_key(*code),
            "A06xx code {code} is not documented in README.md"
        );
    }
    assert_eq!(
        documented.len(),
        registered.len(),
        "README documents A06xx rows for codes the analyzer does not register:\n\
         documented {documented:?}\nregistered {registered:?}"
    );
}

/// The concurrency family (`A07xx`) specifically: every code the
/// analyzer registers is documented, and every documented `A07` row
/// names a registered code — in both directions, independently of the
/// full-table check above. The model checker's own `ViolationCode`
/// strings must also resolve to registered analyzer codes, so a
/// violation surfaced through the CLI always has a documented code.
#[test]
fn a07xx_table_complete_both_directions() {
    let rows = readme_rows();
    let registered: Vec<&str> = DiagCode::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|s| s.starts_with("A07"))
        .collect();
    assert!(
        !registered.is_empty(),
        "analyzer registers no A07xx codes — concurrency codes missing"
    );
    let documented: Vec<&String> = rows.keys().filter(|c| c.starts_with("A07")).collect();
    for code in &registered {
        assert!(
            rows.contains_key(*code),
            "A07xx code {code} is not documented in README.md"
        );
    }
    assert_eq!(
        documented.len(),
        registered.len(),
        "README documents A07xx rows for codes the analyzer does not register:\n\
         documented {documented:?}\nregistered {registered:?}"
    );
    // Cross-registry coherence: every model-checker violation code is a
    // registered (and therefore documented) analyzer code.
    for v in [
        pipesched::check::ViolationCode::DataRace,
        pipesched::check::ViolationCode::LockOrderCycle,
        pipesched::check::ViolationCode::Deadlock,
        pipesched::check::ViolationCode::AcquireMisuse,
        pipesched::check::ViolationCode::InvariantViolated,
        pipesched::check::ViolationCode::LockLeaked,
    ] {
        assert!(
            v.as_str().parse::<DiagCode>().is_ok(),
            "model-checker code {} has no analyzer registration",
            v.as_str()
        );
    }
}
