//! `lint-atomics` — source lint for undocumented `Ordering::Relaxed`.
//!
//! The concurrency-audit discipline (see `crates/core/src/parallel.rs`,
//! "# Concurrency checking"): every *publishing* atomic operation that
//! uses `Ordering::Relaxed` must carry a `// relaxed-ok:` comment — on
//! the same line or within the few lines above — stating the invariant
//! that makes the missing ordering sound (monotone pruning bound, pure
//! counter read after join, flag with no payload, ...). Publishing
//! operations are stores and read-modify-writes whose result other
//! threads may act on:
//!
//! ```text
//! store  swap  fetch_min  fetch_max  fetch_or  fetch_and
//! compare_exchange  compare_exchange_weak
//! ```
//!
//! Plain `load`, `fetch_add` and `fetch_sub` are exempt: relaxed loads
//! of monotone values and statistics counters are the idiomatic sound
//! uses and annotating each would be noise. The model checker
//! (`crates/check`) is the dynamic complement — it *proves* specific
//! protocols; this lint keeps the documentation honest everywhere else.
//!
//! Scans `crates/` and `src/` of the workspace (or the roots given as
//! arguments), skipping `crates/check` (whose instrumented sync and
//! mutation fixtures use raw orderings by design) and `target/`. Exits
//! nonzero listing every undocumented site.

use std::path::PathBuf;

#[path = "../../../check/src/walk.rs"]
mod walk;

/// Publishing operations that require justification under `Relaxed`.
const PUBLISHING_OPS: &[&str] = &[
    ".store(",
    ".swap(",
    ".fetch_min(",
    ".fetch_max(",
    ".fetch_or(",
    ".fetch_and(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

/// How many preceding lines a `// relaxed-ok:` comment may sit above the
/// operation it justifies (a comment block plus a short `if`).
const COMMENT_WINDOW: usize = 10;

/// An undocumented relaxed publishing operation.
struct Finding {
    file: String,
    line: usize,
    text: String,
}

fn scan_file(label: &str, src: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = src.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("Relaxed") {
            continue;
        }
        // Only code, not comments or the lint's own tables.
        let code = line.split("//").next().unwrap_or("");
        if !code.contains("Relaxed") || !PUBLISHING_OPS.iter().any(|op| code.contains(op)) {
            continue;
        }
        let documented = line.contains("relaxed-ok:")
            || lines[i.saturating_sub(COMMENT_WINDOW)..i]
                .iter()
                .any(|l| l.trim_start().starts_with("//") && l.contains("relaxed-ok:"));
        if !documented {
            findings.push(Finding {
                file: label.to_string(),
                line: i + 1,
                text: line.trim().to_string(),
            });
        }
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let roots: Vec<PathBuf> = if args.is_empty() {
        vec!["crates".into(), "src".into()]
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let files = walk::rs_files(&roots, &["check"]);

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        scan_file(&path.display().to_string(), &src, &mut findings);
    }

    if findings.is_empty() {
        println!("lint-atomics: ok ({scanned} file(s), every relaxed publishing op documented)");
        return std::process::ExitCode::SUCCESS;
    }
    eprintln!(
        "lint-atomics: {} undocumented Ordering::Relaxed publishing op(s):",
        findings.len()
    );
    for f in &findings {
        eprintln!("  {}:{}: {}", f.file, f.line, f.text);
    }
    eprintln!("  add a `// relaxed-ok: <invariant>` comment or upgrade the ordering");
    std::process::ExitCode::FAILURE
}
