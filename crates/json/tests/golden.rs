//! Golden output of the JSON writer: every escape class, multi-byte text,
//! integers at both ends of `i64`, floats and nesting, compact and pretty.
//! Response lines, cache files and certificate digests are these bytes,
//! so a change to the writer must leave every line here unchanged.

use pipesched_json::{json_object, parse, Json};

fn check(rows: &[(Json, &str, &str)]) {
    let print = std::env::var_os("PIPESCHED_PIN_PRINT").is_some();
    for (doc, compact, pretty) in rows {
        if print {
            println!("GOT {:?}\nGOT {:?}", doc.to_compact(), doc.to_pretty());
            continue;
        }
        assert_eq!(doc.to_compact(), *compact, "{doc:?}");
        assert_eq!(doc.to_pretty(), *pretty, "{doc:?}");
        // Whatever the writer emits reads back as the same document.
        assert_eq!(parse(compact).unwrap(), *doc, "{compact}");
        assert_eq!(parse(pretty).unwrap(), *doc, "{pretty}");
    }
}

#[test]
fn writer_output_is_pinned() {
    check(&[
        (Json::Str("plain text, no escapes".into()), "\"plain text, no escapes\"", "\"plain text, no escapes\""),
        (
            Json::Str("quote \" backslash \\ slash / newline \n return \r tab \t".into()),
            "\"quote \\\" backslash \\\\ slash / newline \\n return \\r tab \\t\"",
            "\"quote \\\" backslash \\\\ slash / newline \\n return \\r tab \\t\"",
        ),
        (
            Json::Str("\u{0}\u{1}\u{7}\u{8}\u{b}\u{c}\u{e}\u{1b}\u{1f} \u{7f}".into()),
            "\"\\u0000\\u0001\\u0007\\u0008\\u000b\\u000c\\u000e\\u001b\\u001f \u{7f}\"",
            "\"\\u0000\\u0001\\u0007\\u0008\\u000b\\u000c\\u000e\\u001b\\u001f \u{7f}\"",
        ),
        (
            Json::Str("é ß 😀 \u{a0}\u{2028}\u{2029}\u{feff} 日本".into()),
            "\"é ß 😀 \u{a0}\u{2028}\u{2029}\u{feff} 日本\"",
            "\"é ß 😀 \u{a0}\u{2028}\u{2029}\u{feff} 日本\"",
        ),
        (
            json_object![("key \"quoted\"\n", "x"), ("ключ", "значение"), ("", ""),],
            "{\"key \\\"quoted\\\"\\n\":\"x\",\"ключ\":\"значение\",\"\":\"\"}",
            "{\n  \"key \\\"quoted\\\"\\n\": \"x\",\n  \"ключ\": \"значение\",\n  \"\": \"\"\n}",
        ),
        (
            Json::Array(vec![
                Json::Int(0),
                Json::Int(7),
                Json::Int(-1),
                Json::Int(-42),
                Json::Int(1_000_000_007),
                Json::Int(9_007_199_254_740_993),
                Json::Int(i64::MAX),
                Json::Int(i64::MIN),
            ]),
            "[0,7,-1,-42,1000000007,9007199254740993,9223372036854775807,-9223372036854775808]",
            "[\n  0,\n  7,\n  -1,\n  -42,\n  1000000007,\n  9007199254740993,\n  9223372036854775807,\n  -9223372036854775808\n]",
        ),
        (
            Json::Array(vec![
                Json::Float(2.0),
                Json::Float(0.5),
                Json::Float(-1.25),
                Json::Float(1e-7),
                Json::Float(6.02e23),
                Json::Null,
                Json::Bool(true),
                Json::Bool(false),
            ]),
            "[2.0,0.5,-1.25,0.0000001,602000000000000000000000.0,null,true,false]",
            "[\n  2.0,\n  0.5,\n  -1.25,\n  0.0000001,\n  602000000000000000000000.0,\n  null,\n  true,\n  false\n]",
        ),
        (
            json_object![
                ("empty_array", Json::Array(vec![])),
                ("empty_object", Json::Object(vec![])),
                (
                    "nested",
                    json_object![("a", vec![vec![1i64], vec![]]), ("b", Json::Null)]
                ),
            ],
            "{\"empty_array\":[],\"empty_object\":{},\"nested\":{\"a\":[[1],[]],\"b\":null}}",
            "{\n  \"empty_array\": [],\n  \"empty_object\": {},\n  \"nested\": {\n    \"a\": [\n      [\n        1\n      ],\n      []\n    ],\n    \"b\": null\n  }\n}",
        ),
        (Json::Array(vec![]), "[]", "[]"),
    ]);
}

#[test]
fn non_finite_floats_print_as_null() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Float(f).to_compact(), "null");
        assert_eq!(Json::Array(vec![Json::Float(f)]).to_compact(), "[null]");
    }
}
