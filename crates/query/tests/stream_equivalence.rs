//! Property test: the streaming range evaluator must be indistinguishable
//! (up to floating-point re-association in the running sums) from the
//! per-step oracle it replaced, over generated series contents, expressions,
//! ranges and step sizes.

use proptest::proptest;
use teemon_metrics::Labels;
use teemon_query::stream::{plan_or_reason, ranges_equivalent};
use teemon_query::{parse, QueryEngine, RangeSeries};
use teemon_tsdb::{TimeSeriesDb, TsdbConfig};

/// One generated series: metric selector, node selector and sample shapes.
type SeriesSpec = (u8, u8, Vec<(u8, u16)>);

/// Builds a database from generated per-series shapes.  `chunk_size` is kept
/// tiny so sealed (compressed) chunks are exercised, not just the head.
fn build_db(series_specs: &[SeriesSpec]) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 7, retention_ms: u64::MAX });
    for (i, (metric_kind, node, samples)) in series_specs.iter().enumerate() {
        let metric = ["requests_total", "queue_depth", "free_pages"][*metric_kind as usize % 3];
        let labels =
            Labels::from_pairs([("node", format!("n{}", node % 3)), ("idx", format!("{i}"))]);
        let mut ts = u64::from(*node % 3) * 1_700; // stagger the series
        let mut counter = 0.0f64;
        for (gap, raw) in samples {
            ts += u64::from(gap % 4) * 2_500; // gap 0 → duplicate timestamp
            let value = match metric_kind % 3 {
                0 => {
                    // Counter with occasional resets.
                    if raw % 17 == 0 {
                        counter = f64::from(raw % 5);
                    } else {
                        counter += f64::from(raw % 100);
                    }
                    counter
                }
                1 => f64::from(*raw) / 7.0 - 4_000.0, // gauge, negative values
                _ => f64::from(raw % 512) * 0.25,
            };
            db.append(metric, &labels, ts, value);
        }
    }
    db
}

/// The streamable expression pool; `pick` selects, `w`/`q` parameterise.
fn build_query(pick: u8, w: u8, q: u8) -> String {
    let window = ["7s", "20s", "45s", "2m"][w as usize % 4];
    let quantile = f64::from(q % 11) / 10.0;
    match pick % 14 {
        0 => "requests_total".to_string(),
        1 => format!("rate(requests_total[{window}])"),
        2 => format!("increase(requests_total[{window}])"),
        3 => format!("avg_over_time(queue_depth[{window}])"),
        4 => format!("min_over_time(queue_depth[{window}])"),
        5 => format!("max_over_time(queue_depth[{window}])"),
        6 => format!("sum_over_time(free_pages[{window}])"),
        7 => format!("count_over_time(queue_depth[{window}])"),
        8 => format!("last_over_time(free_pages[{window}])"),
        9 => format!("quantile_over_time({quantile}, queue_depth[{window}])"),
        10 => format!("sum by (node) (rate(requests_total[{window}]))"),
        11 => "max without (idx) (queue_depth) * 3 - 1".to_string(),
        12 => format!("avg(sum_over_time(free_pages[{window}])) > 100"),
        _ => format!("count by (node) (increase(requests_total[{window}])) + 0.5"),
    }
}

proptest! {
    #[test]
    fn streaming_matches_per_step_oracle(
        series_specs in proptest::collection::vec(
            (0u8..6, 0u8..6, proptest::collection::vec((0u8..8, 0u16..u16::MAX), 1..40)),
            1..6,
        ),
        pick in 0u8..56,
        w in 0u8..8,
        q in 0u8..22,
        start in 0u64..120_000,
        span in 1u64..300_000,
        step in 1u64..40_000,
    ) {
        let db = build_db(&series_specs);
        let engine = QueryEngine::new(db.clone());
        let query = build_query(pick, w, q);
        let expr = parse(&query).unwrap();
        let end = start + span;
        let step = step.max(span / 10_000 + 1); // inside `MAX_RANGE_STEPS`

        // Every template must actually exercise the streaming path.
        let streamed = plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end)
            .unwrap_or_else(|why| panic!("`{query}` must stream: {why}"))
            .run(start, end, step);
        assert_eq!(engine.range(&expr, start, end, step).as_deref(), Ok(&streamed[..]));

        let oracle = engine.range_per_step(&expr, start, end, step).unwrap();
        assert!(
            ranges_equivalent(&streamed, &oracle),
            "`{query}` over [{start}, {end}] step {step} diverged\n\
             streamed: {streamed:?}\noracle: {oracle:?}"
        );
    }
}

/// A harsher store for the composed-expression property below: one metric,
/// tiny chunks (sealed Gorilla chunks plus a raw head per series), counter
/// resets, duplicate timestamps, gaps longer than every window, and the IEEE
/// specials in the data.
fn build_wild_db(series_specs: &[(u8, Vec<(u8, u16)>)]) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 5, retention_ms: u64::MAX });
    for (i, (node, samples)) in series_specs.iter().enumerate() {
        let labels =
            Labels::from_pairs([("node", format!("n{}", node % 3)), ("idx", format!("{i}"))]);
        let mut ts = u64::from(*node) * 900;
        let mut counter = 0.0f64;
        for (gap, raw) in samples {
            ts += match gap % 8 {
                0 => 0,       // duplicate timestamp
                7 => 190_000, // longer than the longest window
                g => u64::from(g) * 1_500,
            };
            let value = match raw % 23 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => {
                    counter = f64::from(raw % 3); // reset
                    counter
                }
                4 => -f64::from(*raw) / 3.0,
                _ => {
                    counter += f64::from(raw % 97) * 0.5;
                    counter
                }
            };
            db.append("wild", &labels, ts, value);
        }
    }
    db
}

/// Every range function × {no grouping, `by`, `without`} × a wrapper that
/// nests `Map` and `Group` nodes above it.
fn compose(func: u8, grouping: u8, wrap: u8, w: u8, q: u8) -> String {
    let window = ["4s", "11s", "40s", "3m"][w as usize % 4];
    let quantile = f64::from(q % 11) / 10.0;
    let leaf = match func % 10 {
        0 => format!("rate(wild[{window}])"),
        1 => format!("increase(wild[{window}])"),
        2 => format!("avg_over_time(wild[{window}])"),
        3 => format!("min_over_time(wild[{window}])"),
        4 => format!("max_over_time(wild[{window}])"),
        5 => format!("sum_over_time(wild[{window}])"),
        6 => format!("count_over_time(wild[{window}])"),
        7 => format!("last_over_time(wild[{window}])"),
        8 => format!("quantile_over_time({quantile}, wild[{window}])"),
        _ => "wild".to_string(),
    };
    let agg = ["sum", "avg", "min", "max", "count"][(func / 10 + grouping / 3) as usize % 5];
    let grouped = match grouping % 3 {
        0 => leaf,
        1 => format!("{agg} by (node) ({leaf})"),
        _ => format!("{agg} without (idx) ({leaf})"),
    };
    match wrap % 6 {
        0 => grouped,
        1 => format!("({grouped}) * 2 - 1"),
        2 => format!("max(({grouped}) + 1)"),
        3 => format!("({grouped}) > 0"),
        4 => format!("sum by (node) (({grouped}) >= -1000) / 3"),
        _ => format!("100 - count(3 < ({grouped}))"),
    }
}

proptest! {
    /// Series-major evaluation — one reused window per leaf, columns folded
    /// into group accumulators — against the per-step oracle over composed
    /// expressions and hostile data, with ranges that start mid-chunk.
    #[test]
    fn composed_expressions_match_per_step_oracle(
        series_specs in proptest::collection::vec(
            (0u8..6, proptest::collection::vec((0u8..16, 0u16..u16::MAX), 1..30)),
            1..7,
        ),
        shape in (0u8..50, 0u8..15, 0u8..12),
        params in (0u8..8, 0u8..22),
        range in (0u64..90_000, 1u64..250_000, 1u64..30_000),
    ) {
        let db = build_wild_db(&series_specs);
        let engine = QueryEngine::new(db.clone());
        let query = compose(shape.0, shape.1, shape.2, params.0, params.1);
        let expr = parse(&query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
        let (start, end) = (range.0, range.0 + range.1);
        let step = range.2.max(range.1 / 10_000 + 1); // inside `MAX_RANGE_STEPS`

        let streamed = plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end)
            .unwrap_or_else(|why| panic!("`{query}` must stream: {why}"))
            .run(start, end, step);
        // Planning and running twice is bit-for-bit repeatable (`==` would
        // reject the NaNs this data produces).
        let again = engine.range(&expr, start, end, step).unwrap();
        assert!(bit_identical(&again, &streamed), "`{query}`: {again:?} vs {streamed:?}");
        let oracle = engine.range_per_step(&expr, start, end, step).unwrap();
        assert!(
            ranges_equivalent(&streamed, &oracle),
            "`{query}` over [{start}, {end}] step {step} diverged\n\
             streamed: {streamed:?}\noracle: {oracle:?}"
        );
    }
}

fn bit_identical(a: &[RangeSeries], b: &[RangeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (&x.name, &x.labels) == (&y.name, &y.labels)
                && x.points.len() == y.points.len()
                && x.points
                    .iter()
                    .zip(&y.points)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}
