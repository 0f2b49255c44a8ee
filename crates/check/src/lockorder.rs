//! Static lock-order analysis over Rust sources.
//!
//! A lightweight, line-oriented scan (no syn, no rustc): it tracks
//! `let guard = <path>.lock()` bindings to the end of their enclosing
//! brace block (or an explicit `drop(guard)`), treats any further
//! `.lock()` while a guard is live as a *lock-order edge*
//! `held -> acquired`, and reports cycles in the resulting graph —
//! the static complement of the dynamic edges the model checker
//! collects during exploration.
//!
//! Lock names are the last path segment of the receiver expression
//! (`self.shared.best.lock()` ⇒ `best`), so distinct mutexes stored in
//! same-named fields alias; the scan is a reviewable report
//! (`pipesched lint --concurrency`), not a proof, and it deliberately
//! over-approximates.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// One `held -> acquired` ordering observation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    /// Where the inner acquisition happens.
    pub file: String,
    pub line: usize,
}

/// Scan results for a set of roots.
#[derive(Debug, Default)]
pub struct LockOrderReport {
    /// Total `.lock()` sites seen.
    pub sites: usize,
    /// Files scanned.
    pub files: usize,
    /// Deduplicated ordering edges.
    pub edges: Vec<LockEdge>,
    /// Cycles found in the edge graph (each a name path, first == last).
    pub cycles: Vec<Vec<String>>,
}

struct Held {
    /// The guard binding identifier (for `drop(g)` release).
    binding: String,
    /// Lock name.
    name: String,
    /// Brace depth at which the binding lives; popped when depth drops
    /// below it.
    depth: i32,
}

/// Extract the lock name: the last identifier of the receiver path
/// ending at byte offset `end` (exclusive) in `line`.
fn receiver_name(line: &str, end: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = end;
    // Walk back over the path expression: idents, `.`, `::`, `_`.
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            i -= 1;
        } else {
            break;
        }
    }
    let path = &line[i..end];
    let last = path.rsplit(['.', ':']).find(|s| !s.is_empty())?;
    if last.chars().next()?.is_alphabetic() {
        Some(last.to_string())
    } else {
        None
    }
}

/// The `let <ident> =` binding introduced on this line, if the `.lock()`
/// call at `at` belongs to its initializer.
fn let_binding(line: &str, at: usize) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let eq = trimmed.find('=')?;
    let lead = line.len() - trimmed.len();
    if lead + eq > at {
        return None;
    }
    // `let mut g = ...` / `let g = ...` / `let Some(g) = ...` (skip the
    // destructuring forms: no single binding to track).
    let name_part = rest.trim_start_matches("mut ").trim_start();
    let ident: String = name_part
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() || name_part[ident.len()..].trim_start().starts_with('(') {
        None
    } else {
        Some(ident)
    }
}

/// Strip `//` line comments and string literal *contents* (keeps the
/// quotes so offsets stay meaningful for brace counting).
fn strip_noise(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            out.push(' ');
            if c == '\\' {
                if chars.next().is_some() {
                    out.push(' ');
                }
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push(' ');
            }
            _ => out.push(c),
        }
    }
    out
}

/// Scan one file's source, appending edges and counting sites.
pub fn scan_source(file_label: &str, src: &str, edges: &mut BTreeSet<LockEdge>, sites: &mut usize) {
    let mut depth: i32 = 0;
    let mut held: Vec<Held> = Vec::new();
    for (ln, raw) in src.lines().enumerate() {
        let line = strip_noise(raw);
        // Release guards whose scope this line's closing braces end.
        // Process the line left to right so `}` before a `.lock()` on
        // the same line releases first.
        let mut search = 0usize;
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                _ => {}
            }
        }
        // `.lock()` sites on this line.
        while let Some(pos) = line[search..].find(".lock()") {
            let at = search + pos;
            *sites += 1;
            if let Some(name) = receiver_name(&line, at) {
                for h in &held {
                    if h.name != name {
                        edges.insert(LockEdge {
                            held: h.name.clone(),
                            acquired: name.clone(),
                            file: file_label.to_string(),
                            line: ln + 1,
                        });
                    }
                }
                if let Some(binding) = let_binding(&line, at) {
                    held.push(Held {
                        binding,
                        name,
                        depth,
                    });
                }
            }
            search = at + ".lock()".len();
        }
        // Explicit early releases: `drop(guard)`.
        let mut dsearch = 0usize;
        while let Some(pos) = line[dsearch..].find("drop(") {
            let at = dsearch + pos + "drop(".len();
            let ident: String = line[at..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                held.retain(|h| h.binding != ident);
            }
            dsearch = at;
        }
    }
}

/// Scan every `.rs` file under the given roots.
pub fn scan_paths(roots: &[PathBuf]) -> LockOrderReport {
    let mut edges = BTreeSet::new();
    let mut sites = 0usize;
    let mut files = 0usize;
    for path in crate::walk::rs_files(roots, &[]) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        files += 1;
        scan_source(&path.display().to_string(), &src, &mut edges, &mut sites);
    }
    let cycles = find_cycles(&edges);
    LockOrderReport {
        sites,
        files,
        edges: edges.into_iter().collect(),
        cycles,
    }
}

/// Cycles in the `held -> acquired` name graph (at most one reported per
/// starting node; deterministic order).
pub fn find_cycles(edges: &BTreeSet<LockEdge>) -> Vec<Vec<String>> {
    let pairs: BTreeSet<(String, String)> = edges
        .iter()
        .map(|e| (e.held.clone(), e.acquired.clone()))
        .collect();
    let nodes: BTreeSet<&String> = pairs.iter().flat_map(|(a, b)| [a, b]).collect();

    fn visit<'a>(
        node: &'a String,
        pairs: &'a BTreeSet<(String, String)>,
        visiting: &mut Vec<&'a String>,
        done: &mut BTreeSet<&'a String>,
    ) -> Option<Vec<String>> {
        if done.contains(node) {
            return None;
        }
        if let Some(pos) = visiting.iter().position(|n| *n == node) {
            let mut cycle: Vec<String> = visiting[pos..].iter().map(|s| (*s).clone()).collect();
            cycle.push(node.clone());
            return Some(cycle);
        }
        visiting.push(node);
        for (a, b) in pairs.iter() {
            if a == node {
                if let Some(c) = visit(b, pairs, visiting, done) {
                    return Some(c);
                }
            }
        }
        visiting.pop();
        done.insert(node);
        None
    }

    let mut cycles = Vec::new();
    let mut done = BTreeSet::new();
    for n in &nodes {
        let mut visiting = Vec::new();
        if let Some(c) = visit(n, &pairs, &mut visiting, &mut done) {
            cycles.push(c);
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_produce_edges_and_cycles() {
        let a = r#"
            fn f(&self) {
                let g = self.jobs.lock();
                let h = self.stats.lock();
                drop(h);
            }
        "#;
        let b = r#"
            fn g(&self) {
                let s = self.stats.lock();
                self.jobs.lock().push(1);
            }
        "#;
        let mut edges = BTreeSet::new();
        let mut sites = 0;
        scan_source("a.rs", a, &mut edges, &mut sites);
        scan_source("b.rs", b, &mut edges, &mut sites);
        assert_eq!(sites, 4);
        assert!(edges
            .iter()
            .any(|e| e.held == "jobs" && e.acquired == "stats"));
        assert!(edges
            .iter()
            .any(|e| e.held == "stats" && e.acquired == "jobs"));
        let cycles = find_cycles(&edges);
        assert!(!cycles.is_empty(), "jobs->stats->jobs is a cycle");
    }

    #[test]
    fn scope_end_releases_guards() {
        let src = r#"
            fn f(&self) {
                {
                    let g = self.a.lock();
                }
                let h = self.b.lock();
            }
        "#;
        let mut edges = BTreeSet::new();
        let mut sites = 0;
        scan_source("s.rs", src, &mut edges, &mut sites);
        assert_eq!(sites, 2);
        assert!(
            edges.is_empty(),
            "a's guard died before b locked: {edges:?}"
        );
    }

    #[test]
    fn transient_lock_makes_no_binding() {
        let src = r#"
            fn f(&self) {
                self.a.lock().push(1);
                let g = self.b.lock();
            }
        "#;
        let mut edges = BTreeSet::new();
        let mut sites = 0;
        scan_source("s.rs", src, &mut edges, &mut sites);
        assert!(
            edges.is_empty(),
            "transient a.lock() holds nothing: {edges:?}"
        );
    }
}
