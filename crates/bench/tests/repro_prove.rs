//! End-to-end test of the `repro` binary's certificate gate: `repro prove`
//! exits zero only when the independent checker accepts every certificate
//! the search emits, and its report line says how many it rejected and
//! what a check costs.

use std::process::Command;

#[test]
fn repro_prove_accepts_every_certificate_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("pipesched_repro_prove_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Run inside the temporary directory so nothing lands in the checkout.
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["prove", "--runs", "6", "--out"])
        .arg(&dir)
        .current_dir(&dir)
        .output()
        .expect("repro prove must launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "repro prove must exit zero\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let report = stdout
        .lines()
        .find(|l| l.starts_with("prove: ") && l.contains("certificates accepted"))
        .unwrap_or_else(|| panic!("no report line in:\n{stdout}"));
    assert!(report.contains(", 0 rejected,"), "report line: {report}");
    // The checker's cost split and its counted allocations.
    assert!(
        report.contains(" us per certificate + "),
        "report line: {report}"
    );
    assert!(
        report.contains(" allocations per certificate") && !report.contains("uncounted"),
        "report line: {report}"
    );
    assert!(dir.join("prove_overhead.txt").is_file());
    std::fs::remove_dir_all(&dir).ok();
}
