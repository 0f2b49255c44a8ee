//! Golden response lines: `response_json(..).to_compact()` byte for byte,
//! across null pipes, an empty block, a proof digest, a trace id, a large
//! Ω count and negative or absent ids. Clients pair and parse these lines,
//! so a change to how a response is written must leave them unchanged.

use pipesched_ir::TupleId;
use pipesched_machine::PipelineId;
use pipesched_service::{error_json, response_json, Answer, Backend, Tier};

fn answer(order: &[u32], assignment: &[Option<u32>], etas: &[u32]) -> Answer {
    Answer {
        order: order.iter().map(|&t| TupleId(t)).collect(),
        assignment: assignment.iter().map(|p| p.map(PipelineId)).collect(),
        etas: etas.to_vec(),
        nops: etas.iter().sum(),
        optimal: true,
        cache_hit: false,
        tier: Tier::Bnb,
        backend: Backend::Bnb,
        omega_calls: 14,
        deadline_hit: false,
        proof_digest: None,
    }
}

fn check(rows: &[(String, &str)]) {
    for (got, expected) in rows {
        if std::env::var_os("PIPESCHED_PIN_PRINT").is_some() {
            println!("GOT {got:?}");
            continue;
        }
        assert_eq!(got, expected);
    }
}

#[test]
fn response_lines_are_pinned() {
    let plain = answer(&[0, 2, 1], &[Some(0), Some(2), None], &[0, 0, 2]);
    let mut cached = answer(&[1, 0], &[None, None], &[0, 0]);
    (cached.cache_hit, cached.tier, cached.optimal) = (true, Tier::Cache, false);
    cached.omega_calls = 0;
    let empty = answer(&[], &[], &[]);
    let mut proved = answer(
        &[3, 0, 1, 2],
        &[Some(1), Some(0), Some(1), Some(3)],
        &[1, 0, 4, 0],
    );
    proved.proof_digest = Some(0x0123_4567_89ab_cdef);
    proved.omega_calls = 9_007_199_254_740_993;
    let mut listed = answer(&[0], &[Some(0)], &[0]);
    (listed.tier, listed.omega_calls, listed.deadline_hit) = (Tier::List, 0, true);
    let mut windowed = answer(&[1, 0, 2], &[Some(1), Some(1), Some(0)], &[0, 3, 0]);
    (windowed.tier, windowed.backend) = (Tier::Windowed, Backend::Sat);
    windowed.proof_digest = Some(7);
    check(&[
        (response_json(Some(7), &plain, 312, None).to_compact(), "{\"id\":7,\"ok\":true,\"nops\":2,\"optimal\":true,\"cache_hit\":false,\"tier\":\"bnb\",\"backend\":\"bnb\",\"order\":[1,3,2],\"pipes\":[0,null,2],\"etas\":[0,0,2],\"omega_calls\":14,\"deadline_hit\":false,\"micros\":312}"),
        (response_json(None, &cached, 0, None).to_compact(), "{\"id\":null,\"ok\":true,\"nops\":0,\"optimal\":false,\"cache_hit\":true,\"tier\":\"cache\",\"backend\":\"bnb\",\"order\":[2,1],\"pipes\":[null,null],\"etas\":[0,0],\"omega_calls\":0,\"deadline_hit\":false,\"micros\":0}"),
        (response_json(Some(0), &empty, 5, None).to_compact(), "{\"id\":0,\"ok\":true,\"nops\":0,\"optimal\":true,\"cache_hit\":false,\"tier\":\"bnb\",\"backend\":\"bnb\",\"order\":[],\"pipes\":[],\"etas\":[],\"omega_calls\":14,\"deadline_hit\":false,\"micros\":5}"),
        (
            response_json(Some(-42), &proved, u64::from(u32::MAX), Some(1)).to_compact(),
            "{\"id\":-42,\"ok\":true,\"nops\":5,\"optimal\":true,\"cache_hit\":false,\"tier\":\"bnb\",\"backend\":\"bnb\",\"order\":[4,1,2,3],\"pipes\":[3,1,0,1],\"etas\":[1,0,4,0],\"omega_calls\":9007199254740993,\"deadline_hit\":false,\"micros\":4294967295,\"proof_digest\":\"0123456789abcdef\",\"trace_id\":1}",
        ),
        (
            response_json(Some(i64::MIN), &listed, 1, Some(u64::from(u32::MAX) + 1)).to_compact(),
            "{\"id\":-9223372036854775808,\"ok\":true,\"nops\":0,\"optimal\":true,\"cache_hit\":false,\"tier\":\"list\",\"backend\":\"bnb\",\"order\":[1],\"pipes\":[0],\"etas\":[0],\"omega_calls\":0,\"deadline_hit\":true,\"micros\":1,\"trace_id\":4294967296}",
        ),
        (
            response_json(Some(i64::MAX), &windowed, 99, None).to_compact(),
            "{\"id\":9223372036854775807,\"ok\":true,\"nops\":3,\"optimal\":true,\"cache_hit\":false,\"tier\":\"windowed\",\"backend\":\"sat\",\"order\":[2,1,3],\"pipes\":[1,1,0],\"etas\":[0,3,0],\"omega_calls\":14,\"deadline_hit\":false,\"micros\":99,\"proof_digest\":\"0000000000000007\"}",
        ),
        (
            error_json(Some(3), "bad JSON: \"x\"\n\t\u{1}é").to_compact(),
            "{\"id\":3,\"ok\":false,\"error\":\"bad JSON: \\\"x\\\"\\n\\t\\u0001é\"}",
        ),
        (error_json(None, "").to_compact(), "{\"id\":null,\"ok\":false,\"error\":\"\"}"),
    ]);
}
