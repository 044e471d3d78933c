//! Property test: the streaming range evaluator must be indistinguishable
//! (up to floating-point re-association in the running sums) from the
//! per-step oracle in `support`, over generated series contents,
//! expressions (vector-vector matching on partly overlapping label sets
//! included), ranges and step sizes — and, for `rate` / `increase`, over
//! series built to sit on either side of the evaluator's one per-series
//! decision (a window is its end points unless the series holds an
//! irregular pair), with the decision itself checked against the definition.

mod support;

use proptest::proptest;
use support::{bit_identical, ranges_equivalent};
use teemon_metrics::Labels;
use teemon_query::stream::plan_or_reason;
use teemon_query::{parse, QueryEngine};
use teemon_tsdb::{Sample, Selector, TimeSeriesDb, TsdbConfig};

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

/// The expression pool; `pick` selects, `w`/`q` parameterise.  The
/// vector-vector shapes match `by (node)` groups of different metrics, whose
/// node sets overlap in part (every series' node is drawn), and windows that
/// go empty between samples make either side absent at some steps.
fn build_query(pick: u8, w: u8, q: u8) -> String {
    let window = ["7s", "20s", "45s", "2m"][w as usize % 4];
    let quantile = f64::from(q % 11) / 10.0;
    match pick % 23 {
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
        13 => format!("count by (node) (increase(requests_total[{window}])) + 0.5"),
        14 => {
            format!("sum by (node) (rate(requests_total[{window}])) / max by (node) (queue_depth)")
        }
        15 => format!(
            "max by (node) (queue_depth) > min by (node) (last_over_time(free_pages[{window}]))"
        ),
        16 => format!("rate(requests_total[{window}]) - increase(requests_total[{window}])"),
        17 => format!("count_over_time(queue_depth[{window}]) <= count_over_time(queue_depth[7s])"),
        18 => format!(
            "sum by (node) ((avg without (idx) (avg_over_time(free_pages[{window}])) \
             - sum by (node) (queue_depth)) * 2)"
        ),
        19 => format!("queue_depth != last_over_time(queue_depth[{window}])"),
        // `scalar()`: a share of a one-element total, a scalar-vector filter
        // fed by scalar arithmetic (NaN where a vector is not one element),
        // and a comparison of two scalars (1 or 0).
        20 => format!(
            "sum by (node) (increase(requests_total[{window}])) \
             / scalar(sum(increase(requests_total[{window}]))) >= 0.5"
        ),
        21 => format!(
            "scalar(max(queue_depth)) - scalar(count_over_time(free_pages[{window}])) * 2 \
             < queue_depth"
        ),
        _ => "scalar(sum(free_pages)) > 100".to_string(),
    }
}

proptest! {
    #[test]
    fn streaming_matches_per_step_oracle(
        series_specs in proptest::collection::vec(
            (0u8..6, 0u8..6, proptest::collection::vec((0u8..8, 0u16..u16::MAX), 1..40)),
            1..6,
        ),
        pick in 0u8..60,
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

        // Every template must actually exercise the streaming path.  The
        // engine runs the same plan, bit for bit (`==` would reject the NaN
        // a `scalar()` of no or several elements is).
        let streamed = plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end)
            .unwrap_or_else(|why| panic!("`{query}` must stream: {why}"))
            .run(start, end, step);
        let again = engine.range(&expr, start, end, step).unwrap();
        assert!(bit_identical(&again, &streamed), "`{query}`: {again:?} vs {streamed:?}");

        let oracle = support::range(&engine, &expr, start, end, step).unwrap();
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
/// nests `Map`, `Group` and `Join` nodes above it.
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
    match wrap % 10 {
        0 => grouped,
        1 => format!("({grouped}) * 2 - 1"),
        2 => format!("max(({grouped}) + 1)"),
        3 => format!("({grouped}) > 0"),
        4 => format!("sum by (node) (({grouped}) >= -1000) / 3"),
        5 => format!("100 - count(3 < ({grouped}))"),
        6 => format!("({grouped}) - ({grouped}) * 0.5"),
        7 => format!("({grouped}) < max by (node) (wild)"),
        8 => format!("sum by (node) (({grouped}) / ({grouped} > 1))"),
        _ => format!("({grouped}) / scalar(max({grouped})) - scalar(count({grouped}))"),
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
        shape in (0u8..50, 0u8..15, 0u8..18),
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
        let oracle = support::range(&engine, &expr, start, end, step).unwrap();
        assert!(
            ranges_equivalent(&streamed, &oracle),
            "`{query}` over [{start}, {end}] step {step} diverged\n\
             streamed: {streamed:?}\noracle: {oracle:?}"
        );
    }
}

/// One series of [`build_edge_db`]: `(node, what bends it, where)` and its
/// `(gap, raw)` samples.
type EdgeSpec = ((u8, u8, u8), Vec<(u8, u16)>);

/// Series that rise by fractional amounts on a one-second cadence — so a
/// sample can sit exactly on a window edge of an on-cadence grid — each bent
/// at most once: not at all, by a reset, by a NaN / +∞ / −∞ singleton, by a
/// finite step too large for an `f64` (−MAX up to there, MAX from there), or
/// never bent but mostly flat (equal consecutive values).  The bend falls on
/// the first pair, a middle one, the last, or anywhere; a gap of zero repeats
/// a timestamp.
fn build_edge_db(specs: &[EdgeSpec]) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 6, retention_ms: u64::MAX });
    for (i, ((node, kind, place), samples)) in specs.iter().enumerate() {
        let labels =
            Labels::from_pairs([("node", format!("n{}", node % 3)), ("idx", format!("{i}"))]);
        let len = samples.len();
        let at = match place % 4 {
            0 => 1,
            1 => len / 2,
            2 => len.saturating_sub(1),
            _ => usize::from(*place) % len.max(1),
        };
        let mut ts = u64::from(node % 3) * 1_000;
        let mut value = 0.0f64;
        for (j, (gap, raw)) in samples.iter().enumerate() {
            ts += [0, 1_000, 1_000, 2_000][usize::from(gap % 4)];
            let flat = kind % 7 == 6 && raw % 3 != 0;
            value += if flat { 0.0 } else { f64::from(raw % 50) * 0.37 };
            let stored = match kind % 7 {
                1 if j == at => {
                    value = f64::from(raw % 3) * 0.5;
                    value
                }
                2 if j == at => f64::NAN,
                3 if j == at => f64::INFINITY,
                4 if j == at => f64::NEG_INFINITY,
                5 if j < at => -f64::MAX,
                5 => f64::MAX,
                _ => value,
            };
            db.append("edge", &labels, ts, stored);
        }
    }
    db
}

/// The windows hold none, one, two or many samples of a one-second cadence.
const EDGE_WINDOWS_MS: [u64; 6] = [500, 1_000, 2_000, 3_000, 7_000, 60_000];

fn edge_query(func: u8, wrap: u8, window_ms: u64) -> String {
    let leaf = format!("{}(edge[{window_ms}ms])", ["rate", "increase"][usize::from(func % 2)]);
    match wrap % 3 {
        0 => leaf,
        1 => format!("sum by (node) ({leaf})"),
        _ => format!("max by (node) ({leaf})"),
    }
}

/// The definition the streamer's per-series fork is held to: consecutive
/// samples without `next >= prev`, or whose difference is not finite.
fn has_irregular_pair(points: &[Sample]) -> bool {
    points.windows(2).any(|pair| {
        let (prev, next) = (pair[0].value, pair[1].value);
        next.is_nan() || prev.is_nan() || next < prev || !(next - prev).is_finite()
    })
}

/// Streams `query` and holds it to the per-step oracle, and the number of
/// series that took the incremental road to the definition applied to what
/// each series holds in the decoded range.
fn assert_both_roads_match(db: &TimeSeriesDb, query: &str, window_ms: u64, grid: (u64, u64, u64)) {
    let (start, end, step) = grid;
    let engine = QueryEngine::new(db.clone());
    let expr = parse(query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    let (streamed, stats) = plan_or_reason(db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end)
        .unwrap_or_else(|why| panic!("`{query}` must stream: {why}"))
        .run_with_stats(start, end, step);
    let oracle = support::range(&engine, &expr, start, end, step).unwrap();
    assert!(
        ranges_equivalent(&streamed, &oracle),
        "`{query}` over [{start}, {end}] step {step} diverged\n\
         streamed: {streamed:?}\noracle: {oracle:?}"
    );
    let irregular = db
        .select(&Selector::metric("edge"))
        .iter()
        .filter(|series| {
            has_irregular_pair(&series.points_in(start.saturating_sub(window_ms), end))
        })
        .count();
    assert_eq!(stats.irregular_series, irregular as u64, "`{query}` over [{start}, {end}]");
    assert!(bit_identical(&engine.range(&expr, start, end, step).unwrap(), &streamed));
}

proptest! {
    /// `rate` / `increase`, bare and under `sum by` / `max by`, over series
    /// on both sides of the end-point decision, on grids that share the
    /// samples' cadence (window edges land on samples, resets included) and
    /// on grids that do not.
    #[test]
    fn end_point_and_incremental_windows_match_per_step_oracle(
        specs in proptest::collection::vec(
            ((0u8..6, 0u8..14, 0u8..40), proptest::collection::vec((0u8..8, 0u16..u16::MAX), 1..40)),
            1..6,
        ),
        shape in (0u8..2, 0u8..3, 0usize..6),
        on_cadence in 0u8..2,
        range in (0u64..40_000, 1u64..90_000, 1u64..9_000),
    ) {
        let db = build_edge_db(&specs);
        let window_ms = EDGE_WINDOWS_MS[shape.2];
        let query = edge_query(shape.0, shape.1, window_ms);
        let (start, step) = if on_cadence == 1 {
            (range.0 / 1_000 * 1_000, (1 + range.2 % 5) * 1_000)
        } else {
            (range.0, range.2.max(range.1 / 10_000 + 1))
        };
        assert_both_roads_match(&db, &query, window_ms, (start, start + range.1, step));
    }
}

#[test]
fn bends_on_every_window_edge_match_per_step_oracle() {
    // Whatever the property test happens to draw: every kind of bend at the
    // first, a middle and the last pair of a 24-sample series, every window
    // length, one-second steps from zero — so each sample, the bent one
    // included, is in turn the newest of a window, the oldest of one, and
    // one millisecond outside it — and a grid off the cadence.
    let samples: Vec<(u8, u16)> =
        (0..24u16).map(|j| (if j % 7 == 3 { 0 } else { 1 }, 7 + j * 11)).collect();
    for kind in 0..7 {
        for place in 0..3 {
            let db =
                build_edge_db(&[((0, kind, place), samples.clone()), ((1, 0, 0), samples.clone())]);
            for window_ms in EDGE_WINDOWS_MS {
                for (func, wrap) in [(0, 0), (1, 0), (0, 1), (1, 2)] {
                    let query = edge_query(func, wrap, window_ms);
                    assert_both_roads_match(&db, &query, window_ms, (0, 30_000, 1_000));
                    assert_both_roads_match(&db, &query, window_ms, (1_234, 29_000, 1_700));
                }
            }
        }
    }
}
