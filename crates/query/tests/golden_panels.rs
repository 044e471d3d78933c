//! Golden test: the **byte-exact** `/api/v1/query_range` bodies of the four
//! dashboard panel shapes (wide fan-in `sum by (rate)`, `quantile_over_time`,
//! a bare instant selector, `max by (increase)` over the whole stored range)
//! over a small fixed store.  `golden/dashboard_panels.step_major.json` was
//! captured from the step-major evaluator and the `serde::Value` renderer
//! this pipeline replaced, and the `quantile_over_time` and bare-selector
//! bodies are still those bytes.  The two `rate` / `increase` bodies are what
//! the streamer renders since a window without a reset is read off its end
//! points — one subtraction where the step-major evaluator summed a delta a
//! pair, so a value may differ from the capture in its last digits and in
//! nothing else: `golden/dashboard_panels.json` pins the bytes rendered now,
//! and the test holds them to the step-major capture outside the value
//! strings byte for byte and inside them to 1e-12 relative.  (As captured,
//! six values of the `rate` body moved, each by one unit in the last place;
//! the `increase` body did not.)

use teemon_metrics::Labels;
use teemon_query::{json, QueryEngine};
use teemon_tsdb::{TimeSeriesDb, TsdbConfig};

const ORIGIN_MS: u64 = 1_000_000;
const TICK_MS: u64 = 5_000;
const TICKS: u64 = 60;

/// 4 counters × 3 nodes × 2 pods, 60 samples each at 5 s, chunks of 16 (three
/// sealed Gorilla chunks plus a raw head).  Series `i` rises by a fractional
/// slope plus a small wobble so rates and quantiles are not round numbers;
/// every other `m3` series resets half-way.
fn store() -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 16, retention_ms: u64::MAX });
    let mut i = 0u32;
    for name in 0..4 {
        for node in ["node-3", "node-7", "node-12"] {
            for pod in ["pod-a", "pod-b"] {
                let labels = Labels::from_pairs([("node", node), ("pod", pod)]);
                let slope = 25.5 + 1.25 * f64::from(i);
                for tick in 0..TICKS {
                    let since = if name == 3 && i.is_multiple_of(2) && tick >= 30 {
                        tick - 30
                    } else {
                        tick
                    };
                    // A deterministic wobble keeps window sums off round values.
                    let wobble = f64::from((i * 31 + tick as u32 * 17) % 13) * 0.37;
                    let value = f64::from(1000 * i) + slope * since as f64 + wobble;
                    db.append(&format!("m{name}"), &labels, ORIGIN_MS + tick * TICK_MS, value);
                }
                i += 1;
            }
        }
    }
    db
}

#[test]
fn dashboard_panel_bodies_are_byte_identical_to_the_captured_ones() {
    let engine = QueryEngine::new(store());
    let end = ORIGIN_MS + (TICKS - 1) * TICK_MS;
    let panels: [(&str, u64, u64, u64); 4] = [
        ("sum by (node) (rate(m0[1m]))", ORIGIN_MS + 100_000, end, 15_000),
        ("quantile_over_time(0.99, m1{node=\"node-7\"}[1m])", ORIGIN_MS + 100_000, end, 15_000),
        // Starts off the whole second: timestamps render with a fraction.
        ("m2{node=\"node-3\"}", ORIGIN_MS + 250_500, end, 5_000),
        // The end is off the step grid (295 s of data, 30 s steps).
        ("max by (node) (increase(m3[30s]))", ORIGIN_MS, end, 30_000),
    ];
    let rendered: Vec<String> = panels
        .iter()
        .map(|&(query, start, end, step)| {
            json::range_response(&engine.range_query(query, start, end, step).expect(query))
        })
        .collect();
    let golden: Vec<&str> = include_str!("golden/dashboard_panels.json").lines().collect();
    let step_major: Vec<&str> =
        include_str!("golden/dashboard_panels.step_major.json").lines().collect();
    assert_eq!((golden.len(), step_major.len()), (panels.len(), panels.len()));
    for (((body, want), captured), (query, ..)) in
        rendered.iter().zip(&golden).zip(&step_major).zip(&panels)
    {
        assert_eq!(body, want, "`{query}`");
        if query.contains("rate(") || query.contains("increase(") {
            assert_differs_in_rounding_only(want, captured, query);
        } else {
            assert_eq!(want, captured, "`{query}` is not an end-point function");
        }
    }
}

/// Two bodies that are byte-equal except inside sample values — the quoted
/// string of a `[timestamp,"value"]` pair — where they parse to within 1e-12
/// relative of each other.
fn assert_differs_in_rounding_only(body: &str, captured: &str, query: &str) {
    // Split on the quote: odd pieces are the quoted strings (the fixture has
    // no escapes), and a sample value is the one behind `<digit>,`.
    let (ours, theirs): (Vec<&str>, Vec<&str>) =
        (body.split('"').collect(), captured.split('"').collect());
    assert_eq!(ours.len(), theirs.len(), "`{query}`: framing");
    let mut before = "";
    for (i, (a, b)) in ours.iter().zip(&theirs).enumerate() {
        if a != b {
            let after_timestamp = before
                .strip_suffix(',')
                .is_some_and(|head| head.ends_with(|c: char| c.is_ascii_digit()));
            assert!(i % 2 == 1 && after_timestamp, "`{query}`: `{a}` vs `{b}` is not a value");
            let (x, y): (f64, f64) = (a.parse().expect(a), b.parse().expect(b));
            assert!((x - y).abs() <= 1e-12 * x.abs().max(y.abs()), "`{query}`: {a} vs {b}");
        }
        before = a;
    }
}
