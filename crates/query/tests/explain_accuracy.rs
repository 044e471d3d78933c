//! EXPLAIN/ANALYZE accuracy: the counters `QueryEngine::analyze` reports
//! must match ground truth computed independently — the per-step oracle for
//! the result shape, and direct storage inspection for the decode counter.

mod support;

use teemon_metrics::Labels;
use teemon_query::{parse, QueryEngine};
use teemon_tsdb::{Selector, TimeSeriesDb};

const NODES: [&str; 3] = ["n1", "n2", "n3"];

/// Counters every 5 s for 100 s on three nodes.
fn db() -> TimeSeriesDb {
    let db = TimeSeriesDb::new();
    for t in 0..=20u64 {
        for (i, node) in NODES.iter().enumerate() {
            db.append(
                "requests_total",
                &Labels::from_pairs([("node", *node)]),
                t * 5_000,
                t as f64 * 10.0 * (i + 1) as f64,
            );
        }
    }
    db
}

/// Ground truth for the streaming decode counter: every stored sample in
/// `[start - window, end]` is admitted (decoded) exactly once per window
/// machine, and when `end` lands on the step grid no read-ahead extends
/// past it.
fn samples_in(db: &TimeSeriesDb, selector: &Selector, start: u64, end: u64) -> u64 {
    db.select(selector).iter().map(|series| series.points_in(start, end).len() as u64).sum()
}

#[test]
fn analyze_decode_counter_matches_storage_ground_truth() {
    let db = db();
    let engine = QueryEngine::new(db.clone());
    let (start, end, step, window) = (30_000, 90_000, 15_000, 30_000);
    let analyze = engine
        .analyze("sum by (node) (rate(requests_total[30s]))", start, end, step)
        .expect("query runs");
    let expected = samples_in(&db, &Selector::metric("requests_total"), start - window, end);
    assert_eq!(
        analyze.samples_decoded, expected,
        "each stored sample in [start - window, end] decodes exactly once"
    );
    assert!(analyze.window_rebuilds <= analyze.samples_decoded);
    // Counters that only rise are read off their windows' end points; one
    // that restarts keeps a running pair sum, and is counted.
    assert_eq!(analyze.irregular_series, 0);
    db.append("requests_total", &Labels::from_pairs([("node", "n2")]), 105_000, 1.0);
    let restarted = engine
        .analyze("sum by (node) (rate(requests_total[30s]))", start, 105_000, step)
        .expect("query runs");
    assert_eq!((restarted.irregular_series, restarted.window_rebuilds), (1, 0));
    assert!(restarted.to_string().contains("irregular: 1 series"), "{restarted}");
}

#[test]
fn analyze_result_counters_match_the_per_step_oracle() {
    let engine = QueryEngine::new(db());
    let (start, end, step) = (30_000, 90_000, 15_000);
    for query in [
        "sum by (node) (rate(requests_total[30s]))",
        "requests_total",
        "avg(requests_total) * 2",
        "requests_total + requests_total",
    ] {
        let analyze = engine.analyze(query, start, end, step).expect("query runs");
        let expr = parse(query).expect("query parses");
        let oracle = support::range(&engine, &expr, start, end, step).expect("oracle runs");
        assert_eq!(analyze.series_returned(), oracle.len(), "`{query}` series count vs oracle");
        assert_eq!(
            analyze.points_returned(),
            oracle.iter().map(|s| s.points.len() as u64).sum::<u64>(),
            "`{query}` point count vs oracle"
        );
        assert!(support::ranges_equivalent(&analyze.result, &oracle), "`{query}` result vs oracle");
        // Every series is present somewhere in the range, so the plan's
        // count is the result's.
        assert_eq!(analyze.explain.root.series, oracle.len(), "`{query}` explained count");
        assert!(analyze.wall_seconds > 0.0);
    }
}

#[test]
fn explain_series_counts_resolve_against_the_live_index() {
    let db = db();
    let engine = QueryEngine::new(db.clone());
    let explain = engine.explain("rate(requests_total[30s])", 0, 100_000).unwrap();
    assert_eq!(explain.root.series, NODES.len());
    // A selector that matches nothing explains as zero series, not an error.
    let none = engine.explain("no_such_metric", 0, 100_000).unwrap();
    assert_eq!(none.root.series, 0);
}
