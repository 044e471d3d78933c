//! Property tests: an instant query is the range query of a one-step grid —
//! bit for bit, because it runs the very same plan — and it matches the
//! step-major instant walker in `support` up to floating-point
//! re-association, over generated series contents and expressions that nest
//! range functions, aggregations, constant arithmetic, vector-vector
//! matching and `scalar()`.

mod support;

use proptest::proptest;
use support::{bit_identical, ranges_equivalent};
use teemon_metrics::Labels;
use teemon_query::{parse, QueryEngine, RangeSeries, Value};
use teemon_tsdb::{Sample, TimeSeriesDb, TsdbConfig};

/// One generated series: metric, node and `(gap, raw value)` samples.
type SeriesSpec = (u8, u8, Vec<(u8, u16)>);

/// Three metrics over three nodes — a counter with resets, a gauge with
/// negative values, a fractional gauge — a sample every few seconds, and now
/// and then a gap long enough that a window, or the lookback, holds nothing.
fn build_db(series_specs: &[SeriesSpec]) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 6, retention_ms: u64::MAX });
    for (i, (metric, node, samples)) in series_specs.iter().enumerate() {
        let name = ["requests_total", "queue_depth", "free_pages"][usize::from(metric % 3)];
        let labels =
            Labels::from_pairs([("node", format!("n{}", node % 3)), ("idx", format!("{i}"))]);
        let mut ts = u64::from(*node) * 700;
        let mut counter = 0.0f64;
        for (gap, raw) in samples {
            ts += match gap % 16 {
                0 => 0,                        // duplicate timestamp
                15 if raw % 8 == 0 => 400_000, // longer than the lookback
                g => u64::from(g) * 1_000,
            };
            let value = match metric % 3 {
                0 if raw % 13 == 0 => {
                    counter = f64::from(raw % 4);
                    counter
                }
                0 => {
                    counter += f64::from(raw % 90) * 1.25;
                    counter
                }
                1 => f64::from(*raw) / 9.0 - 3_000.0,
                _ => f64::from(raw % 300) * 0.75,
            };
            db.append(name, &labels, ts, value);
        }
    }
    db
}

/// An instant vector labelled `{node, idx}` (one series per stored series).
fn leaf(pick: u8, w: u8) -> String {
    let window = ["3s", "10s", "30s", "2m"][usize::from(w % 4)];
    match pick % 10 {
        0 => "requests_total".to_string(),
        1 => format!("rate(requests_total[{window}])"),
        2 => format!("increase(requests_total[{window}])"),
        3 => format!("avg_over_time(queue_depth[{window}])"),
        4 => format!("min_over_time(queue_depth[{window}])"),
        5 => format!("max_over_time(free_pages[{window}])"),
        6 => format!("sum_over_time(free_pages[{window}])"),
        7 => format!("count_over_time(queue_depth[{window}])"),
        8 => format!("quantile_over_time(0.{w}, queue_depth[{window}])"),
        _ => "free_pages".to_string(),
    }
}

/// The leaves under every operator: constant arithmetic and filters on
/// either side, aggregations, vector-vector arithmetic and comparisons
/// between `by (node)` groups of different metrics (node sets that overlap
/// in part) and between leaves of one metric (identical label sets), and
/// `scalar()` against a vector and against another scalar.
fn compose(shape: u8, a: u8, b: u8, w: u8) -> String {
    let (x, y) = (leaf(a, w), leaf(b, w / 4));
    let agg = ["sum", "avg", "min", "max", "count"][usize::from(shape / 10 % 5)];
    match shape % 12 {
        0 => x,
        1 => format!("({x}) * 2 - 1"),
        2 => format!("1000 >= ({x})"),
        3 => format!("{agg} by (node) ({x})"),
        4 => format!("{agg} without (node) ({x}) / 4"),
        5 => format!("{agg} by (node) ({x}) + sum by (node) ({y})"),
        6 => format!("{agg} by (node) ({x}) > max by (node) ({y})"),
        7 => format!("rate(requests_total[{}s]) - increase(requests_total[20s])", 10 + 5 * w),
        8 => format!("{agg}((queue_depth < avg_over_time(queue_depth[30s])) * 3)"),
        9 => "4 + 4 * 2".to_string(),
        10 => format!("({x}) / scalar({agg}({y})) >= 0.5"),
        _ => format!("scalar({agg}({x})) * 2 - scalar(count({y}))"),
    }
}

/// A value as the series a range query would return at `t`, in the value's
/// own order.
fn as_series(value: Value, t: u64) -> Vec<RangeSeries> {
    let at_t = |value| vec![Sample { timestamp_ms: t, value }];
    match value {
        Value::Scalar(v) => {
            vec![RangeSeries { name: None, labels: Labels::new(), points: at_t(v) }]
        }
        Value::Vector(samples) => samples
            .into_iter()
            .map(|s| RangeSeries { name: s.name, labels: s.labels, points: at_t(s.value) })
            .collect(),
        Value::Matrix(series) => series,
    }
}

fn sorted(mut series: Vec<RangeSeries>) -> Vec<RangeSeries> {
    series.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    series
}

proptest! {
    #[test]
    fn an_instant_query_is_a_one_step_range_query(
        series_specs in proptest::collection::vec(
            (0u8..6, 0u8..6, proptest::collection::vec((0u8..16, 0u16..u16::MAX), 5..50)),
            3..10,
        ),
        shape in (0u8..50, 0u8..20, 0u8..20),
        w in 0u8..8,
        at in 0u64..150_000,
        step in 1u64..100_000,
    ) {
        let engine = QueryEngine::new(build_db(&series_specs));
        let query = compose(shape.0, shape.1, shape.2, w);
        let expr = parse(&query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
        let instant = engine.instant(&expr, at).unwrap_or_else(|e| panic!("`{query}`: {e}"));
        // Not sorted here: a vector comes out in key order, as a range
        // query's series do.
        let instant = as_series(instant, at);
        let range = engine.range(&expr, at, at, step).unwrap();
        assert!(bit_identical(&instant, &range), "`{query}` at {at}\n{instant:?}\n{range:?}");
    }

    #[test]
    fn an_instant_query_matches_the_instant_walker(
        series_specs in proptest::collection::vec(
            (0u8..6, 0u8..6, proptest::collection::vec((0u8..16, 0u16..u16::MAX), 5..50)),
            3..10,
        ),
        shape in (0u8..50, 0u8..20, 0u8..20),
        w in 0u8..8,
        at in 0u64..150_000,
    ) {
        let engine = QueryEngine::new(build_db(&series_specs));
        // A bare range selector is the one value that is not a step.
        let query = match shape.1 {
            19 => "queue_depth[1m]".to_string(),
            _ => compose(shape.0, shape.1, shape.2, w),
        };
        let expr = parse(&query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
        let streamed = sorted(as_series(engine.instant(&expr, at).unwrap(), at));
        let walked = sorted(as_series(support::instant(&engine, &expr, at).unwrap(), at));
        assert!(
            ranges_equivalent(&streamed, &walked),
            "`{query}` at {at}\nstreamed: {streamed:?}\nwalked: {walked:?}"
        );
    }
}
