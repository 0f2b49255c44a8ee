//! The workspace source walker both concurrency lints read their files
//! through: `pipesched lint --concurrency` (the lock-order scan) and the
//! `lint-atomics` binary, which compiles this file as its own module so
//! that the benchmark's lock file gains no dependency edge.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `roots`: a root that is a file is taken as is,
/// and a directory is walked in sorted path order, without entering
/// `target`, hidden directories, or directories named in `skip`.
pub fn rs_files(roots: &[PathBuf], skip: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for root in roots {
        if root.is_file() {
            files.push(root.clone());
        } else {
            walk(root, skip, &mut files);
        }
    }
    files
}

fn walk(dir: &Path, skip: &[&str], files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') && !skip.contains(&name) {
                walk(&path, skip, files);
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}
