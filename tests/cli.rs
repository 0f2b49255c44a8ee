//! Integration tests for the `pipesched` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipesched"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pipesched-cli-{name}-{}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const SOURCE: &str = "p = a * b;\nq = c * d;\nr = p + q;\n";

#[test]
fn emits_asm_with_registers() {
    let src = write_temp("asm.src", SOURCE);
    let out = bin().arg(&src).args(["--emit", "asm"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Load  R0,a"), "{text}");
    assert!(text.contains("Nop"), "{text}");
    assert!(text.contains("Store r,"), "{text}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("optimal"), "{stderr}");
}

#[test]
fn stats_report_optimality() {
    let src = write_temp("stats.src", SOURCE);
    let out = bin().arg(&src).args(["--emit", "stats"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("provably optimal:   true"), "{text}");
    assert!(text.contains("final NOPs"), "{text}");
}

/// `--emit stats` prints the schedule the command made — windowed, or
/// from the SAT backend — with the numbers `--json` reports for it.
#[test]
fn emit_stats_reports_the_schedule_the_command_made() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dotproduct.src");
    let windowed: &[&str] = &["--machine", "functional-units", "--window", "4"];
    for mode in [windowed, &["--backend", "sat"]] {
        let run = |emit: &[&str]| {
            let out = bin().arg(src).args(mode).args(emit).output().unwrap();
            assert!(
                out.status.success(),
                "{mode:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        let text = run(&["--emit", "stats"]);
        let doc = pipesched::json::parse(&run(&["--json"])).unwrap();
        for (label, key) in [("final NOPs:", "nops"), ("omega calls:", "omega_calls")] {
            let printed = text
                .lines()
                .find_map(|line| line.strip_prefix(label))
                .unwrap_or_else(|| panic!("{mode:?}: no `{label}` in\n{text}"));
            assert_eq!(
                printed.trim().parse::<i64>().ok(),
                doc.get(key).and_then(pipesched::json::Json::as_i64),
                "{mode:?}: `{label}` disagrees with --json `{key}`"
            );
        }
    }
}

#[test]
fn tuple_round_trip_through_stdin() {
    let src = write_temp("rt.src", SOURCE);
    let tuples = bin().arg(&src).args(["--emit", "tuples"]).output().unwrap();
    assert!(tuples.status.success());
    let tuple_text = String::from_utf8(tuples.stdout).unwrap();
    assert!(tuple_text.starts_with(";; tuples"));

    let mut child = bin()
        .args(["-", "--emit", "padded", "--machine", "deep-pipeline"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(tuple_text.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Load #a"), "{text}");
}

#[test]
fn dot_output_is_a_digraph() {
    let src = write_temp("dot.src", SOURCE);
    let out = bin().arg(&src).args(["--emit", "dot"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.contains("->"), "{text}");
}

#[test]
fn windowed_and_parallel_modes_run() {
    let src = write_temp("wp.src", SOURCE);
    for extra in [vec!["--window", "4"], vec!["--threads", "2"]] {
        let out = bin()
            .arg(&src)
            .args(["--emit", "padded"])
            .args(&extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn machine_json_file_is_accepted() {
    let machine = pipesched::machine::presets::deep_pipeline();
    let json = pipesched::machine::config::to_json(&machine).unwrap();
    let path =
        std::env::temp_dir().join(format!("pipesched-cli-machine-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let src = write_temp("mj.src", SOURCE);
    let out = bin()
        .arg(&src)
        .args(["--emit", "stats", "--machine"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deep-pipeline"), "{text}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let src = write_temp("bad.src", "x = ;\n");
    let out = bin().arg(&src).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("expected"), "{err}");

    let src2 = write_temp("ok.src", SOURCE);
    let out = bin()
        .arg(&src2)
        .args(["--machine", "nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = bin()
        .arg(&src2)
        .args(["--emit", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn mach_text_machine_file_is_accepted() {
    let mach = "\
machine tiny
pipeline loader latency=3 enqueue=1
map Load -> loader
";
    let path = std::env::temp_dir().join(format!("pipesched-cli-{}.mach", std::process::id()));
    std::fs::write(&path, mach).unwrap();
    let src = write_temp("mach.src", SOURCE);
    let out = bin()
        .arg(&src)
        .args(["--emit", "stats", "--machine"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("tiny"), "{text}");
}

#[test]
fn gantt_emitter_renders_lanes() {
    let src = write_temp("gantt.src", SOURCE);
    let out = bin().arg(&src).args(["--emit", "gantt"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("loader"), "{text}");
    assert!(text.contains("multiplier"), "{text}");
    assert!(text.starts_with("cycle"), "{text}");
}

#[test]
fn prove_certifies_and_streams_a_checkable_certificate() {
    let src = write_temp("prove.src", SOURCE);
    let out = bin().arg("prove").arg(&src).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("optimal-certified"), "{text}");
    assert!(text.contains("digest"), "{text}");

    // Stream the certificate to a file and re-check it independently.
    let cert_path =
        std::env::temp_dir().join(format!("pipesched-cli-prove-{}.ndjson", std::process::id()));
    let out = bin()
        .arg("prove")
        .arg(&src)
        .arg("--proof")
        .arg(&cert_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ndjson = std::fs::read_to_string(&cert_path).unwrap();
    let cert = pipesched::core::proof::Certificate::from_ndjson(&ndjson).unwrap();
    // `prove` compiles through the optimizing sequence path; mirror it.
    let blocks = pipesched::frontend::compile_sequence(SOURCE).unwrap();
    let block = &blocks[0];
    let machine = pipesched::machine::presets::paper_simulation();
    let check = pipesched::proof::check_certificate(block, &machine, &cert);
    assert!(check.is_certified(), "{:?}", check.report);
}

#[test]
fn trace_depth_counts_sum_to_schedule_nodes() {
    // Acceptance gate: the per-depth B&B node counts `pipesched trace`
    // emits must sum to exactly the `nodes_visited` that `schedule --json`
    // reports for the same input — same λ, same search, no sampling.
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dotproduct.src");

    let traced = bin().args(["trace", src, "--ndjson"]).output().unwrap();
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    let mut depth_nodes = 0i64;
    for line in String::from_utf8(traced.stdout).unwrap().lines() {
        let doc = pipesched::json::parse(line).unwrap();
        if doc.get("name").and_then(pipesched::json::Json::as_str) == Some("bnb_depth_nodes") {
            depth_nodes += doc
                .get("value")
                .and_then(pipesched::json::Json::as_i64)
                .unwrap();
        }
    }
    assert!(depth_nodes > 0, "trace emitted no per-depth node counts");

    let scheduled = bin().args(["schedule", src, "--json"]).output().unwrap();
    assert!(scheduled.status.success());
    let doc = pipesched::json::parse(&String::from_utf8(scheduled.stdout).unwrap()).unwrap();
    let nodes_visited = doc
        .get("nodes_visited")
        .and_then(pipesched::json::Json::as_i64)
        .unwrap();
    assert_eq!(
        depth_nodes, nodes_visited,
        "per-depth counts must sum to the search's nodes_visited"
    );
}

#[test]
fn trace_flame_breaks_search_into_depth_frames() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dotproduct.src");
    let out = bin().args(["trace", src, "--flame"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("pipesched;search;depth_00 "), "{text}");
    assert!(text.contains("pipesched;frontend.parse "), "{text}");
    // Folded format: every line is `semicolon;separated;path <count>`.
    for line in text.lines() {
        let (path, count) = line.rsplit_once(' ').expect(line);
        assert!(!path.is_empty());
        count.parse::<u64>().expect(line);
    }
}

#[test]
fn flight_replay_prints_sealed_events_whose_phases_fit_the_request() {
    let reqs = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/data/serve_requests.ndjson"
    );
    let out = bin()
        .args(["flight", reqs, "--ndjson", "-n", "8"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("; warning:"), "{stderr}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 8, "{text}");
    for line in text.lines() {
        let ev = pipesched::trace::flight::WideEvent::from_ndjson(line).expect(line);
        assert!(ev.verify(), "seal broken: {line}");
        let phases: u64 = ev.phases_us.iter().sum();
        assert!(phases <= ev.micros, "phases exceed the request: {line}");
    }
}

/// A small NDJSON workload: two shapes, six requests, isomorphic repeats.
fn cli_requests() -> String {
    let shapes = [
        "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2",
        // Two multiplies contending for the multiplier: the whole-block
        // bound cannot settle it, so a search runs.
        "1: Load #a\n2: Load #b\n3: Mul @1, @2\n4: Mul @1, @1\n5: Add @3, @4\n6: Store #c, @5",
    ];
    (0..6)
        .map(|i| {
            let block = shapes[i % 2].replace('#', &format!("#q{i}_"));
            format!(
                "{}\n",
                pipesched::json::json_object![
                    ("id", i as i64),
                    ("block", block.as_str()),
                    ("machine", "paper-simulation"),
                ]
                .to_compact()
            )
        })
        .collect()
}

#[test]
fn stats_reports_fleet_search_effort() {
    let reqs = write_temp("stats.ndjson", &cli_requests());
    let out = bin()
        .arg("stats")
        .arg(&reqs)
        .args(["--workers", "1", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipesched::json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let metrics = doc.get("metrics").unwrap();
    assert_eq!(
        metrics
            .get("requests")
            .and_then(pipesched::json::Json::as_i64),
        Some(6)
    );
    let search = metrics.get("search").unwrap();
    assert!(
        search
            .get("nodes_visited")
            .and_then(pipesched::json::Json::as_i64)
            .unwrap()
            > 0
    );
    assert_eq!(
        search
            .get("identity_holds")
            .and_then(pipesched::json::Json::as_bool),
        Some(true)
    );
    // 2 distinct shapes -> 2 cache entries, 4 isomorphic hits.
    let cache = doc.get("cache").unwrap();
    assert_eq!(
        cache.get("entries").and_then(pipesched::json::Json::as_i64),
        Some(2)
    );
    assert_eq!(
        cache.get("hits").and_then(pipesched::json::Json::as_i64),
        Some(4)
    );

    // The Prometheus rendering of the same replay must validate.
    let out = bin()
        .arg("stats")
        .arg(&reqs)
        .args(["--workers", "1", "--prom"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    pipesched::trace::prom::validate(&text).unwrap();
    assert!(text.contains("pipesched_requests_total 6"), "{text}");
}

#[test]
fn tcp_serve_answers_batch_and_metrics_scrapes() {
    // End-to-end over a real socket: a traced server, an NDJSON batch
    // replay through `batch --tcp`, then a `/metrics` scrape through
    // `stats --tcp --prom`. `--conns 2` makes the server exit on its own.
    let port = 40_000 + std::process::id() % 20_000;
    let addr = format!("127.0.0.1:{port}");
    let mut server = bin()
        .args([
            "serve",
            "--tcp",
            &addr,
            "--conns",
            "2",
            "--workers",
            "1",
            "--trace",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Wait for the listener; probe connections are not counted.
    let mut up = false;
    for _ in 0..100 {
        if std::net::TcpStream::connect(&addr).is_ok() {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(up, "server never opened {addr}");

    let reqs = write_temp("tcp.ndjson", &cli_requests());
    let out = bin()
        .arg("batch")
        .arg(&reqs)
        .args(["--tcp", &addr, "--check", "--json", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `--quiet` suppresses the response lines on stdout; the `--json`
    // summary goes to stderr so responses stay pipeable.
    let doc = pipesched::json::parse(&String::from_utf8(out.stderr).unwrap()).unwrap();
    assert_eq!(
        doc.get("requests").and_then(pipesched::json::Json::as_i64),
        Some(6)
    );
    assert_eq!(
        doc.get("errors").and_then(pipesched::json::Json::as_i64),
        Some(0)
    );
    assert_eq!(
        doc.get("cache_hits")
            .and_then(pipesched::json::Json::as_i64),
        Some(4)
    );

    let out = bin()
        .args(["stats", "--tcp", &addr, "--prom"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    pipesched::trace::prom::validate(&text).unwrap();
    assert!(text.contains("pipesched_requests_total 6"), "{text}");
    assert!(text.contains("pipesched_search_identity_ok 1"), "{text}");

    assert!(server.wait().unwrap().success());
}
