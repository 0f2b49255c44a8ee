//! Pins of the NDJSON request path: what `parse_request` answers for
//! malformed and unusual lines, and that mutated lines never panic.
//!
//! The tables below pin every diagnostic string byte for byte, so a
//! rewrite of the JSON scanner or of the tuple-text parser must keep the
//! exact wording, byte offsets and line numbers. To print the current
//! outcomes (to add a row), run
//! `PIPESCHED_PIN_PRINT=1 cargo test -p pipesched-service --test request_pin -- --nocapture`.

use pipesched_ir::{BasicBlock, Operand, VarId};
use pipesched_json::json_object;
use pipesched_service::parse_request;
use pipesched_synth::CorpusSpec;
use rand::{Rng, SeedableRng};

/// A line's outcome as one string: the error, or the parsed request.
fn outcome(line: &str) -> String {
    match parse_request(line) {
        Err(e) => format!("err: {e}"),
        Ok(req) => format!(
            "ok: id={:?} machine={} budget_nodes={:?} deadline_ms={:?} vars=[{}]\n{}",
            req.id,
            req.machine.name,
            req.budget_nodes,
            req.deadline_ms,
            var_names(&req.block).join("|"),
            req.block
        ),
    }
}

/// The block's variable names in `VarId` order.
fn var_names(block: &BasicBlock) -> Vec<&str> {
    (0..block.symbols().len() as u32)
        .map(|v| block.symbols().name(VarId(v)).unwrap())
        .collect()
}

fn printing() -> bool {
    std::env::var_os("PIPESCHED_PIN_PRINT").is_some()
}

fn check_table(rows: &[(&str, &str)]) {
    let mut wrong = Vec::new();
    for &(line, expected) in rows {
        let got = outcome(line);
        if printing() {
            println!("GOT {got:?}");
        }
        if got != expected {
            wrong.push(format!(
                "{line:?}\n  expected {expected:?}\n       got {got:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Wrap tuple text into a request on the paper's machine.
fn req(block: &str) -> String {
    json_object![
        ("id", 1i64),
        ("block", block),
        ("machine", "paper-simulation")
    ]
    .to_compact()
}

#[test]
fn malformed_json_is_diagnosed_at_its_byte() {
    check_table(&[
        (
            "",
            "err: bad JSON: JSON error at byte 0: unexpected end of input",
        ),
        (
            "not json",
            "err: bad JSON: JSON error at byte 0: unexpected character `n`",
        ),
        (
            "{\"id\": 1",
            "err: bad JSON: JSON error at byte 8: expected `,` or `}` in object",
        ),
        (
            "{\"id\": 1, \"block\": \"1: Load #x",
            "err: bad JSON: JSON error at byte 30: unterminated string",
        ),
        (
            "{\"id\": 1, \"block\": \"1: Load #x\\",
            "err: bad JSON: JSON error at byte 31: invalid escape sequence",
        ),
        (
            "{\"block\": \"1: Load #x\\q\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 22: invalid escape sequence",
        ),
        (
            "{\"block\": \"\\ud800\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 17: unpaired surrogate",
        ),
        (
            "{\"block\": \"\\ud800\\u0041\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 23: invalid low surrogate",
        ),
        (
            "{\"block\": \"\\udc00\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 17: invalid unicode escape",
        ),
        (
            "{\"block\": \"\\u12\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 15: expected four hex digits",
        ),
        (
            "{\"block\": \"1: Load #x\u{1}\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 21: control character in string",
        ),
        (
            "{\"block\": \"1: Load #x\n2: Neg @1\", \"machine\": \"paper-simulation\"}",
            "err: bad JSON: JSON error at byte 21: control character in string",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\"} x",
            "err: bad JSON: JSON error at byte 55: trailing characters after document",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\"}{}",
            "err: bad JSON: JSON error at byte 54: trailing characters after document",
        ),
        (
            "{\"block\" \"1: Load #x\"}",
            "err: bad JSON: JSON error at byte 9: expected `:`",
        ),
        (
            "{\"block\": }",
            "err: bad JSON: JSON error at byte 10: unexpected character `}`",
        ),
        (
            "{,}",
            "err: bad JSON: JSON error at byte 1: expected string key in object",
        ),
        (
            "{\"id\": -, \"block\": \"1: Load #x\"}",
            "err: bad JSON: JSON error at byte 8: expected digit",
        ),
        (
            "{\"id\": 1., \"block\": \"1: Load #x\"}",
            "err: bad JSON: JSON error at byte 9: expected digit after decimal point",
        ),
        (
            "{\"id\": 1e, \"block\": \"1: Load #x\"}",
            "err: bad JSON: JSON error at byte 9: expected digit in exponent",
        ),
        (
            "{\"id\": nul}",
            "err: bad JSON: JSON error at byte 7: unexpected character `n`",
        ),
        (
            "{\"id\": [1, 2}",
            "err: bad JSON: JSON error at byte 12: expected `,` or `]` in array",
        ),
        (
            "{\"id\": 1,}",
            "err: bad JSON: JSON error at byte 9: expected string key in object",
        ),
    ]);
}

#[test]
fn malformed_fields_are_named() {
    check_table(&[
        ("[1, 2]", "err: missing string field `block`"),
        (
            "{\"machine\": \"paper-simulation\"}",
            "err: missing string field `block`",
        ),
        (
            "{\"block\": 5, \"machine\": \"paper-simulation\"}",
            "err: missing string field `block`",
        ),
        (
            "{\"block\": null, \"machine\": \"paper-simulation\"}",
            "err: missing string field `block`",
        ),
        ("{\"block\": \"1: Load #x\"}", "err: missing field `machine`"),
        (
            "{\"block\": \"1: Load #x\", \"machine\": 3}",
            "err: `machine` must be a preset name or an object",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": [\"paper-simulation\"]}",
            "err: `machine` must be a preset name or an object",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"no-such\"}",
            "err: unknown machine preset `no-such`",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"Paper-Simulation\"}",
            "err: unknown machine preset `Paper-Simulation`",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": {}}",
            "err: machine config JSON error: JSON error at byte 0: missing string field `name`",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\", \"budget_nodes\": -1}",
            "err: `budget_nodes` must be a non-negative integer",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\", \"budget_nodes\": \"5\"}",
            "err: `budget_nodes` must be a non-negative integer",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\", \"budget_nodes\": 1.5}",
            "err: `budget_nodes` must be a non-negative integer",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\", \"deadline_ms\": -7}",
            "err: `deadline_ms` must be a non-negative integer",
        ),
        (
            "{\"block\": \"1: Load #x\", \"machine\": \"paper-simulation\", \"deadline_ms\": true}",
            "err: `deadline_ms` must be a non-negative integer",
        ),
    ]);
}

#[test]
fn malformed_tuple_text_is_diagnosed_at_its_line() {
    check_table(&[
        (
            &req("1: Load #x\nLoad #y"),
            "err: parse error at line 2: expected `<id>: <Op> ...`",
        ),
        (
            &req("1: Load #x\nx: Load #y"),
            "err: parse error at line 2: invalid tuple id `x`",
        ),
        (
            &req("1: Load #x\n: Load #y"),
            "err: parse error at line 2: invalid tuple id ``",
        ),
        (
            &req("1: Load #x\n-2: Load #y"),
            "err: parse error at line 2: invalid tuple id `-2`",
        ),
        (
            &req("1: Load #x\n99999999999: Load #y"),
            "err: parse error at line 2: invalid tuple id `99999999999`",
        ),
        (
            &req("1: Load #x\n\n3: Load #y"),
            "err: parse error at line 3: tuple id 3 out of sequence (expected 2)",
        ),
        (
            &req("1: Load #x\n1: Load #y"),
            "err: parse error at line 2: tuple id 1 out of sequence (expected 2)",
        ),
        (&req("1: Fnord #x"), "err: unknown operation `Fnord`"),
        (&req("1: lOAD #x"), "err: unknown operation `lOAD`"),
        (&req("1:"), "err: unknown operation ``"),
        (
            &req("1: Load #x\n2: Add @1, @1, @1"),
            "err: parse error at line 2: more than two operands",
        ),
        (
            &req("1: Load #x\n2: Add #, @1, @1"),
            "err: parse error at line 2: empty variable name",
        ),
        (
            &req("1: Load #"),
            "err: parse error at line 1: empty variable name",
        ),
        (
            &req("1: Load #x\n2: Neg @0"),
            "err: parse error at line 2: tuple references are 1-based",
        ),
        (
            &req("1: Load #x\n2: Neg @x"),
            "err: parse error at line 2: invalid tuple reference `@x`",
        ),
        (
            &req("1: Load #x\n2: Neg @"),
            "err: parse error at line 2: invalid tuple reference `@`",
        ),
        (
            &req("1: Load #x\n2: Neg @-1"),
            "err: parse error at line 2: invalid tuple reference `@-1`",
        ),
        (
            &req("1: Const 1x"),
            "err: parse error at line 1: cannot parse operand `1x`",
        ),
        (
            &req("1: Const 99999999999999999999"),
            "err: parse error at line 1: cannot parse operand `99999999999999999999`",
        ),
        (
            &req("1: Load #x\n2: Mul @1,"),
            "err: parse error at line 2: cannot parse operand ``",
        ),
        (
            &req("1: Const 1 2"),
            "err: parse error at line 1: cannot parse operand `1 2`",
        ),
        (
            &req("1: Neg @2\n2: Const 1"),
            "err: tuple 1 references tuple 2, which is not earlier",
        ),
        (
            &req("1: Load #x\n2: Neg @2"),
            "err: tuple 2 references tuple 2, which is not earlier",
        ),
        (
            &req("1: Load #x\n2: Store #y, @1\n3: Neg @2"),
            "err: tuple 3 references tuple 2, which produces no value",
        ),
        (
            &req("1: Const #x"),
            "err: tuple 1 has invalid operands: Const requires an immediate operand",
        ),
        (
            &req("1: Load 5"),
            "err: tuple 1 has invalid operands: Load requires a variable operand",
        ),
        (
            &req("1: Const 1\n2: Store @1, @1"),
            "err: tuple 2 has invalid operands: Store requires a variable first operand",
        ),
        (
            &req("1: Const 1\n2: Add @1"),
            "err: tuple 2 has invalid operands: Add takes 2 operand(s), found 1",
        ),
        (
            &req("1: Load _"),
            "err: tuple 1 has invalid operands: Load takes 1 operand(s), found 0",
        ),
        (
            &req("1: Const _, 4"),
            "err: tuple 1 has invalid operands: Const requires an immediate operand",
        ),
        (
            &req("1: Nop"),
            "err: tuple 1 has invalid operands: Nop is not a schedulable block instruction",
        ),
        (
            &req(";; tuples\n1: Load #x\n2: Neg @1 @1"),
            "err: parse error at line 3: invalid tuple reference `@1 @1`",
        ),
        (
            &req("1: Load #x\n2: Neg\u{a0}@9"),
            "err: tuple 2 references tuple 9, which is not earlier",
        ),
        (
            &req("1: Load #x\n2\u{3000}: Neg @1\n3: Store #y, @4"),
            "err: tuple 3 references tuple 4, which is not earlier",
        ),
        (
            &req("1: Load #x\n2: Store #y, @1\u{2028}x"),
            "err: parse error at line 2: invalid tuple reference `@1\u{2028}x`",
        ),
        (
            &req("1: Load #x\n2: Neg\u{b}@1\n3: Neg\u{c}@2\n4: Neg\u{1c}@3"),
            "err: unknown operation `Neg\u{1c}@3`",
        ),
        (
            "{\"block\": \"r = ;\", \"machine\": \"paper-simulation\"}",
            "err: 1:5: expected an expression, found `;`",
        ),
    ]);
}

#[test]
fn unusual_but_valid_requests_are_accepted() {
    check_table(&[
        (
            &req("1: Load #x\r\n2: Mul @1, @1\r\n3: Store #y, @2\r\n"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Mul @1, @1\n3: Store #y, @2\n",
        ),
        (
            &req(";; tuples\n; head\n\n1: Load #x ; tail ; more\n\n  ;\n2: Store #y, @1;"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            &req("1: LOAD #x\n2: load #y\n3: Add @1, @2\n4: mul @3, @3\n5: STORE #z, @4"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y|z]\n1: Load #x\n2: Load #y\n3: Add @1, @2\n4: Mul @3, @3\n5: Store #z, @4\n",
        ),
        (
            &req("1: const 3, _\n2: NEG @1, _\n3: Store #x, @2"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x]\n1: Const 3\n2: Neg @1\n3: Store #x, @2\n",
        ),
        (
            &req("1: Load #é\n2: Load #😀\n3: Add @1, @2\n4: Store #é, @3"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[é|😀]\n1: Load #é\n2: Load #😀\n3: Add @1, @2\n4: Store #é, @3\n",
        ),
        (
            "{\"id\": 2, \"block\": \"1: Load #caf\\u00e9\\n2: Store #\\ud83d\\ude00, @1\\n\", \"machine\": \"paper-simulation\"}",
            "ok: id=Some(2) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[café|😀]\n1: Load #café\n2: Store #😀, @1\n",
        ),
        (
            &req(";; tuples\n  1 : Load\t#x y\n 2:Neg   @+1\n+3: Const -5\n4: Const +5\n5: Store # x, @2"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x y| x]\n1: Load #x y\n2: Neg @1\n3: Const -5\n4: Const 5\n5: Store # x, @2\n",
        ),
        (
            &req("1:\u{a0}Load\u{2003}#x\u{3000}\n2: Store #x#@, @1"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|x#@]\n1: Load #x\n2: Store #x#@, @1\n",
        ),
        (
            &req(";; tuples\n01: Const 9223372036854775807\n2: Const -9223372036854775808\n3: Add @1, @2\n4: Store #q, @3"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[q]\n1: Const 9223372036854775807\n2: Const -9223372036854775808\n3: Add @1, @2\n4: Store #q, @3\n",
        ),
        (
            "{\"id\": \"seven\", \"block\": \"1: Load #x\\n2: Store #y, @1\", \"machine\": \"deep-pipeline\", \"budget_nodes\": 1e3, \"deadline_ms\": 0}",
            "ok: id=None machine=deep-pipeline budget_nodes=Some(1000) deadline_ms=Some(0) vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            "{\"id\": -4, \"block\": \"1: Load #x\\n2: Store #y, @1\", \"machine\": \"unpipelined\", \"budget_nodes\": null, \"deadline_ms\": null, \"extra\": [{}]}",
            "ok: id=Some(-4) machine=unpipelined budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            "{\"id\": 5, \"block\": \"\", \"machine\": \"paper-simulation\"}",
            "ok: id=Some(5) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[]\n",
        ),
        (
            &req("1 : Load #x\n2: Store #y, @1"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            &req("01: Load #x\n2: Store #y, @1"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            &req("; head\n\n  ; more\n1: Load #x\n2: Store #y, @1"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            &req("\n+1:\u{a0}Load #x ; tail\n2: Store #y, @1"),
            "ok: id=Some(1) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[x|y]\n1: Load #x\n2: Store #y, @1\n",
        ),
        (
            "{\"id\": 6, \"block\": \";; tuples\", \"machine\": \"paper-simulation\"}",
            "ok: id=Some(6) machine=paper-simulation budget_nodes=None deadline_ms=None vars=[]\n",
        ),
    ]);
}

/// The 64-bit FNV-1a digest the mutation sweep folds its outcomes into.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// What the sweep inserts: the request grammar's punctuation and
/// multi-byte characters, one of them Unicode whitespace.
const INSERTS: [&str; 12] = [
    "\"", "\\", ";", ":", "@", "#", ",", "é", "😀", "\u{a0}", "\\n", "\\u00e9",
];

fn mutate(line: &str, rng: &mut rand::rngs::StdRng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..3u32) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes.truncate(at),
            _ => {
                let insert = INSERTS[rng.gen_range(0..INSERTS.len())];
                bytes.splice(at..at, insert.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_requests_never_panic_and_keep_their_outcomes() {
    let text = include_str!("../../../examples/data/serve_requests.ndjson");
    let lines: Vec<&str> = text.lines().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_2023);
    let (mut digest, mut accepted) = (0xcbf2_9ce4_8422_2325u64, 0usize);
    for case in 0..20_000 {
        let line = mutate(lines[case % lines.len()], &mut rng);
        let got = std::panic::catch_unwind(|| outcome(&line))
            .unwrap_or_else(|_| panic!("parse_request panicked on {line:?}"));
        accepted += usize::from(got.starts_with("ok: "));
        fnv(&mut digest, got.as_bytes());
        fnv(&mut digest, &[0xFF]);
    }
    if printing() {
        println!("accepted {accepted}, digest {digest:#018x}");
    }
    assert_eq!((accepted, digest), (668, 0x526f_ee86_34c5_e9c2));
}

#[test]
fn corpus_blocks_parse_back_with_the_same_numbering() {
    let spec = CorpusSpec::paper_default();
    for k in 0..500 {
        let block = spec.block(k);
        // Rendered the way the serve_miss benchmark renders a request.
        let text = block.to_string().replace('#', &format!("#r{k}_"));
        let line = json_object![
            ("id", k as i64),
            ("block", text.as_str()),
            ("machine", "paper-simulation"),
        ]
        .to_compact();
        let req = parse_request(&line).unwrap_or_else(|e| panic!("block {k}: {e}"));
        assert_eq!(req.id, Some(k as i64));
        assert_eq!(req.block.to_string(), text, "block {k}");
        // The same tuples, each variable renamed; the parser numbers
        // variables in order of first appearance.
        let name = |b: &BasicBlock, v: VarId| b.symbols().name(v).unwrap().to_string();
        let mut next = 0;
        assert_eq!(req.block.len(), block.len(), "block {k}");
        for (got, want) in req.block.tuples().iter().zip(block.tuples()) {
            assert_eq!((got.id, got.op), (want.id, want.op), "block {k}");
            for (g, w) in [(got.a, want.a), (got.b, want.b)] {
                match (g, w) {
                    (Operand::Var(g), Operand::Var(w)) => {
                        assert_eq!(name(&req.block, g), format!("r{k}_{}", name(&block, w)));
                        assert!(g.0 <= next, "block {k}: {g:?} before VarId({next})");
                        next += u32::from(g.0 == next);
                    }
                    (g, w) => assert_eq!(g, w, "block {k}"),
                }
            }
        }
        assert_eq!(next as usize, req.block.symbols().len(), "block {k}");
    }
}
