//! Golden wide-event bytes: `WideEvent::to_ndjson` with its checksum on
//! fixed events, the `pipesched flight` table and flame renderings of
//! them, a dump's NDJSON, `from_ndjson` round trips, and the lines
//! `from_ndjson` must refuse. Dumped lines are read back by `pipesched
//! flight --tcp` and by outside tools, so a change to how an event is
//! declared or written must leave these bytes unchanged.
//! `PIPESCHED_PIN_PRINT=1 cargo test -p pipesched-trace --test flight_pin
//! -- --nocapture` prints the values instead of checking them.

use pipesched_trace::flight::{self, Dump, Outcome, Phase, WideEvent};

fn printing() -> bool {
    std::env::var_os("PIPESCHED_PIN_PRINT").is_some()
}

fn check(rows: &[(String, &str)]) {
    for (got, expected) in rows {
        if printing() {
            println!("GOT {got:?}");
            continue;
        }
        assert_eq!(got, expected);
    }
}

/// Compare a multi-line rendering line by line.
fn check_lines(got: &str, expected: &[&str]) {
    if printing() {
        for line in got.lines() {
            println!("{line:?},");
        }
        return;
    }
    assert_eq!(got.lines().collect::<Vec<_>>(), expected);
}

/// A wide-event line with every field given; `checksum` is whatever the
/// caller passes, so the event may or may not verify.
#[allow(clippy::too_many_arguments)]
fn line(
    req: i64,
    tier: &str,
    backend: &str,
    cache: &str,
    outcome: &str,
    big: i64,
    checksum: i64,
) -> String {
    format!(
        "{{\"seq\":{big},\"req\":{req},\"trace_id\":9,\"canon\":{big},\"n\":31,\
         \"machine_fp\":-1,\"tier\":\"{tier}\",\"backend\":\"{backend}\",\"threads\":2,\
         \"cache\":\"{cache}\",\"outcome\":\"{outcome}\",\"nops\":4,\"optimal\":false,\
         \"nodes\":77,\"omega\":91,\"pruned\":15,\"proof_digest\":{big},\"deadline_hit\":true,\
         \"micros\":5000,\"us_parse\":11,\"us_dag\":12,\"us_canon\":13,\"us_cache\":14,\
         \"us_search\":4000,\"us_prove\":15,\"us_respond\":16,\"checksum\":{checksum}}}"
    )
}

/// The pinned events: the defaults, a loaded event built field by field
/// with outcomes raised in turn, and two parsed from lines.
fn events() -> Vec<WideEvent> {
    let mut fresh = WideEvent::new(-1);
    fresh.seal();

    let mut loaded = WideEvent::new(42);
    (loaded.seq, loaded.trace_id, loaded.canon) = (7, 3, 0xfeed_beef_dead_cafe);
    (loaded.n, loaded.machine_fp, loaded.threads) = (12, u64::MAX, 4);
    (loaded.nops, loaded.optimal, loaded.deadline_hit) = (2, true, false);
    (loaded.nodes, loaded.omega, loaded.pruned) = (1_000, 1_234, 56);
    (loaded.proof_digest, loaded.micros) = (0x0123_4567_89ab_cdef, 812);
    loaded.phases_us = [10, 20, 30, 40, 500, 60, 70];
    loaded.raise(Outcome::BudgetExhausted);
    loaded.raise(Outcome::Ok);
    loaded.seal();

    let mut parsed = WideEvent::from_ndjson(&line(
        i64::MIN,
        "windowed",
        "sat",
        "hit",
        "admission_reject",
        i64::MAX,
        0,
    ))
    .expect("a complete line parses");
    parsed.raise(Outcome::DeadlineMiss);
    parsed.seal();

    let mut listed =
        WideEvent::from_ndjson(&line(0, "list", "race", "miss", "error", -2, 0)).unwrap();
    listed.raise(Outcome::BudgetExhausted);
    listed.seal();
    vec![fresh, loaded, parsed, listed]
}

#[test]
fn sealed_lines_are_pinned() {
    let expected = [
        "{\"seq\":0,\"req\":-1,\"trace_id\":0,\"canon\":0,\"n\":0,\"machine_fp\":0,\"tier\":\"-\",\"backend\":\"-\",\"threads\":1,\"cache\":\"-\",\"outcome\":\"ok\",\"nops\":0,\"optimal\":false,\"nodes\":0,\"omega\":0,\"pruned\":0,\"proof_digest\":0,\"deadline_hit\":false,\"micros\":0,\"us_parse\":0,\"us_dag\":0,\"us_canon\":0,\"us_cache\":0,\"us_search\":0,\"us_prove\":0,\"us_respond\":0,\"checksum\":8336624471782215087}",
        "{\"seq\":7,\"req\":42,\"trace_id\":3,\"canon\":-77195681153037570,\"n\":12,\"machine_fp\":-1,\"tier\":\"-\",\"backend\":\"-\",\"threads\":4,\"cache\":\"-\",\"outcome\":\"budget_exhausted\",\"nops\":2,\"optimal\":true,\"nodes\":1000,\"omega\":1234,\"pruned\":56,\"proof_digest\":81985529216486895,\"deadline_hit\":false,\"micros\":812,\"us_parse\":10,\"us_dag\":20,\"us_canon\":30,\"us_cache\":40,\"us_search\":500,\"us_prove\":60,\"us_respond\":70,\"checksum\":948589450263241260}",
        "{\"seq\":9223372036854775807,\"req\":-9223372036854775808,\"trace_id\":9,\"canon\":9223372036854775807,\"n\":31,\"machine_fp\":-1,\"tier\":\"windowed\",\"backend\":\"sat\",\"threads\":2,\"cache\":\"hit\",\"outcome\":\"deadline_miss\",\"nops\":4,\"optimal\":false,\"nodes\":77,\"omega\":91,\"pruned\":15,\"proof_digest\":9223372036854775807,\"deadline_hit\":true,\"micros\":5000,\"us_parse\":11,\"us_dag\":12,\"us_canon\":13,\"us_cache\":14,\"us_search\":4000,\"us_prove\":15,\"us_respond\":16,\"checksum\":945600318781526056}",
        "{\"seq\":-2,\"req\":0,\"trace_id\":9,\"canon\":-2,\"n\":31,\"machine_fp\":-1,\"tier\":\"list\",\"backend\":\"race\",\"threads\":2,\"cache\":\"miss\",\"outcome\":\"error\",\"nops\":4,\"optimal\":false,\"nodes\":77,\"omega\":91,\"pruned\":15,\"proof_digest\":-2,\"deadline_hit\":true,\"micros\":5000,\"us_parse\":11,\"us_dag\":12,\"us_canon\":13,\"us_cache\":14,\"us_search\":4000,\"us_prove\":15,\"us_respond\":16,\"checksum\":1841528460012465417}",
    ];
    let got: Vec<String> = events().iter().map(WideEvent::to_ndjson).collect();
    assert_eq!(got.len(), expected.len());
    check(&got.into_iter().zip(expected).collect::<Vec<_>>());
}

#[test]
fn renderings_are_pinned() {
    let events = events();
    check_lines(
        &flight::render_table(&events),
        &[
            "   seq    req tier     backend cache outcome          nops opt     nodes        µs     n    trace",
            "     0     -1 -        -       -     ok                  0  no         0         0     0        0",
            "     7     42 -        -       -     budget_exhausted    2 yes      1000       812    12        3",
            "9223372036854775807 -9223372036854775808 windowed sat     hit   deadline_miss       4  no        77      5000    31        9",
            "18446744073709551614      0 list     race    miss  error               4  no        77      5000    31        9",
        ],
    );
    check_lines(
        &flight::render_flame(&events),
        &[
            "serve;-;parse 10",
            "serve;-;dag 20",
            "serve;-;canon 30",
            "serve;-;cache 40",
            "serve;-;search 500",
            "serve;-;prove 60",
            "serve;-;respond 70",
            "serve;-;other 82",
            "serve;windowed;parse 11",
            "serve;windowed;dag 12",
            "serve;windowed;canon 13",
            "serve;windowed;cache 14",
            "serve;windowed;search 4000",
            "serve;windowed;prove 15",
            "serve;windowed;respond 16",
            "serve;windowed;other 919",
            "serve;list;parse 11",
            "serve;list;dag 12",
            "serve;list;canon 13",
            "serve;list;cache 14",
            "serve;list;search 4000",
            "serve;list;prove 15",
            "serve;list;respond 16",
            "serve;list;other 919",
        ],
    );
    let dump = Dump {
        id: 3,
        anomaly: "deadline_miss",
        trigger_seq: events[2].seq,
        events: events[1..3].to_vec(),
    };
    check_lines(
        &dump.to_ndjson(),
        &[
            "{\"dump\":3,\"anomaly\":\"deadline_miss\",\"trigger_seq\":9223372036854775807,\"events\":2}",
            "{\"seq\":7,\"req\":42,\"trace_id\":3,\"canon\":-77195681153037570,\"n\":12,\"machine_fp\":-1,\"tier\":\"-\",\"backend\":\"-\",\"threads\":4,\"cache\":\"-\",\"outcome\":\"budget_exhausted\",\"nops\":2,\"optimal\":true,\"nodes\":1000,\"omega\":1234,\"pruned\":56,\"proof_digest\":81985529216486895,\"deadline_hit\":false,\"micros\":812,\"us_parse\":10,\"us_dag\":20,\"us_canon\":30,\"us_cache\":40,\"us_search\":500,\"us_prove\":60,\"us_respond\":70,\"checksum\":948589450263241260}",
            "{\"seq\":9223372036854775807,\"req\":-9223372036854775808,\"trace_id\":9,\"canon\":9223372036854775807,\"n\":31,\"machine_fp\":-1,\"tier\":\"windowed\",\"backend\":\"sat\",\"threads\":2,\"cache\":\"hit\",\"outcome\":\"deadline_miss\",\"nops\":4,\"optimal\":false,\"nodes\":77,\"omega\":91,\"pruned\":15,\"proof_digest\":9223372036854775807,\"deadline_hit\":true,\"micros\":5000,\"us_parse\":11,\"us_dag\":12,\"us_canon\":13,\"us_cache\":14,\"us_search\":4000,\"us_prove\":15,\"us_respond\":16,\"checksum\":945600318781526056}",
        ],
    );
}

#[test]
fn lines_round_trip_and_keep_their_seal() {
    for ev in events() {
        let back = WideEvent::from_ndjson(&ev.to_ndjson()).expect("an emitted line parses");
        assert_eq!(back, ev);
        assert!(back.verify());
        assert_eq!(back.to_ndjson(), ev.to_ndjson());
    }
    // Phase slots follow `Phase` order.
    let ev = &events()[1];
    assert_eq!(ev.phases_us[Phase::Search as usize], 500);
    assert_eq!(ev.phases_us[Phase::Respond as usize], 70);
}

#[test]
fn foreign_lines_are_refused() {
    let sealed = events()[3].to_ndjson();
    let checksum = events()[3].checksum as i64;
    // A forged checksum still parses, and the seal catches it.
    let forged = sealed.replace(&format!("\"checksum\":{checksum}"), "\"checksum\":12345");
    let forged = WideEvent::from_ndjson(&forged).expect("a forged checksum parses");
    assert!(!forged.verify());
    // So does a forged field under the original checksum.
    let forged = WideEvent::from_ndjson(&sealed.replace("\"nops\":4", "\"nops\":3")).unwrap();
    assert!(!forged.verify());
    // Names outside the recorder's vocabulary are refused outright.
    for (field, good, bad) in [
        ("tier", "list", "forged"),
        ("tier", "list", "LIST"),
        ("backend", "race", "cdcl"),
        ("cache", "miss", "maybe"),
        ("cache", "miss", ""),
        ("outcome", "error", "fine"),
        ("outcome", "error", "latency_outlier"),
    ] {
        let from = format!("\"{field}\":\"{good}\"");
        assert!(sealed.contains(&from), "{field}");
        let line = sealed.replace(&from, &format!("\"{field}\":\"{bad}\""));
        assert_eq!(WideEvent::from_ndjson(&line), None, "{field} = {bad:?}");
    }
    // A missing field, a mistyped one, a dump header and non-JSON.
    let missing = sealed.replace("\"us_prove\":15,", "");
    assert_eq!(WideEvent::from_ndjson(&missing), None);
    let mistyped = sealed.replace("\"optimal\":false", "\"optimal\":0");
    assert_eq!(WideEvent::from_ndjson(&mistyped), None);
    let mistyped = sealed.replace("\"n\":31", "\"n\":\"31\"");
    assert_eq!(WideEvent::from_ndjson(&mistyped), None);
    assert_eq!(
        WideEvent::from_ndjson("{\"dump\":1,\"anomaly\":\"deadline_miss\"}"),
        None
    );
    assert_eq!(WideEvent::from_ndjson("not json"), None);
    assert_eq!(WideEvent::from_ndjson(""), None);
}
