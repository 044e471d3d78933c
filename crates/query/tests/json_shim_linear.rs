//! The vendored `serde_json` shim parses every JSON body the test suites
//! and the benchmark check (`query_range` responses, dashboards), so its
//! `from_str` must be linear in the document.  It used to re-validate the
//! whole remaining input as UTF-8 for every character of every string —
//! quadratic: a document like the one below took well over 20 s.

use std::time::{Duration, Instant};

use serde_json::Value;

#[test]
fn from_str_is_linear_in_long_strings_and_in_many_short_ones() {
    // One ≥ 1 MB string with multi-byte characters on both sides of escapes
    // (`\n`, `\"`, `\\` and a `\u` control character), then 150 000 short
    // strings: ≥ 2 MB of JSON text in all.
    let unit = "päge→\n\"é\\ü\u{1}☃ plain ascii run ";
    let long: String = unit.repeat(1_000_000 / unit.len() + 1);
    let mut items = vec![Value::String(long)];
    items.extend((0..150_000).map(|i| Value::String(format!("é{i}\tü"))));
    let document = Value::Array(items);

    let text = serde_json::to_string(&document).expect("rendering a Value tree cannot fail");
    assert!(text.len() >= 2 << 20, "document is only {} bytes", text.len());

    #[expect(
        clippy::disallowed_methods,
        reason = "times the JSON shim's parse, not a query; the wall clock is the measurement"
    )]
    let started = Instant::now();
    let parsed: Value = serde_json::from_str(&text).expect("the shim parses its own output");
    let elapsed = started.elapsed();
    assert_eq!(parsed, document);
    assert!(elapsed < Duration::from_secs(2), "parsing {} bytes took {elapsed:?}", text.len());
}

#[test]
fn string_errors_are_unchanged() {
    for bad in [r#""unterminated"#, r#""bad \q escape""#, r#""short \u12"#, r#""\ud800""#] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad} must be rejected");
    }
    let ok: Value = serde_json::from_str(r#""éé\\\"ü""#).expect("valid string");
    assert_eq!(ok, Value::String("éé\\\"ü".into()));
}
