//! The TeeQL evaluator: instant and range queries over a [`TimeSeriesDb`].

use std::fmt;

use teemon_metrics::Labels;
use teemon_obs::{probes, slow, Stopwatch};
use teemon_tsdb::{Sample, TimeSeriesDb};

use crate::ast::{Expr, RangeFunc};
use crate::lexer::ParseError;
use crate::parser::parse;
use crate::stream::{self, PlanKind};

/// One sample of an instant vector.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSample {
    /// Metric name, when the value still carries one (selectors keep it,
    /// functions and aggregations drop it, mirroring PromQL).
    pub name: Option<String>,
    /// Series labels.
    pub labels: Labels,
    /// The sample value.
    pub value: f64,
}

/// One series of a range (matrix) result.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeSeries {
    /// Metric name, when the series still carries one.
    pub name: Option<String>,
    /// Series labels.
    pub labels: Labels,
    /// Points in chronological order, as the store's [`Sample`]s.
    pub points: Vec<Sample>,
}

impl RangeSeries {
    /// A display label for the series: `name{labels}`, `name`, or the labels
    /// alone when the name was dropped by the expression.
    pub fn display_name(&self) -> String {
        match (&self.name, self.labels.is_empty()) {
            (Some(name), true) => name.clone(),
            (Some(name), false) => format!("{name}{}", self.labels),
            (None, _) => self.labels.to_string(),
        }
    }
}

/// What one instrumented range evaluation did (the per-run view of the
/// `teemon_query_*` probes; `analyze` folds it into its report).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RangeRun {
    /// Measured wall time in seconds.
    pub wall_seconds: f64,
    /// The streamer's work counters.
    pub stats: stream::RunStats,
}

/// The result of evaluating an expression at one instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar.
    Scalar(f64),
    /// An instant vector: one sample per matching series.
    Vector(Vec<VectorSample>),
    /// A range vector: per-series points over a window (only produced by a
    /// bare range selector like `m[5m]`).
    Matrix(Vec<RangeSeries>),
}

impl Value {
    /// The instant-vector samples, when this value is a vector.
    pub fn as_vector(&self) -> Option<&[VectorSample]> {
        match self {
            Value::Vector(samples) => Some(samples),
            _ => None,
        }
    }
}

/// Why an evaluation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A range-vector function was applied to something that is not a range
    /// selector.
    RangeRequired(RangeFunc),
    /// A range vector appeared where an instant vector or scalar is needed.
    UnexpectedRange,
    /// The quantile parameter is outside `[0, 1]`.
    InvalidQuantile(f64),
    /// An aggregation was applied to a scalar.
    VectorRequired(&'static str),
    /// A range query was issued with `step_ms == 0`.
    ZeroStep,
    /// A range query asked for this many steps, more than
    /// `QueryEngine::MAX_RANGE_STEPS`.
    TooManySteps(u64),
    /// A vector-vector binary operation found several right-hand series
    /// with the same label set, so matching would be ambiguous.
    ManyToOneMatch(Labels),
    /// Several output series share this label set once the metric name is
    /// dropped (`rate({node="n1"}[5m])` over two metrics), so they cannot be
    /// told apart.
    DuplicateSeries(Labels),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::RangeRequired(func) => {
                write!(f, "{func} expects a range vector argument like `metric[5m]`")
            }
            EvalError::UnexpectedRange => {
                write!(f, "range vectors are only valid as range-function arguments")
            }
            EvalError::InvalidQuantile(q) => {
                write!(f, "quantile must be between 0 and 1, got {q}")
            }
            EvalError::VectorRequired(what) => {
                write!(f, "{what} expects an instant vector operand")
            }
            EvalError::ZeroStep => write!(f, "range query step must be non-zero"),
            EvalError::TooManySteps(steps) => write!(
                f,
                "range query would evaluate {steps} steps per series, above the limit of {}; \
                 raise `step` or narrow the range",
                QueryEngine::MAX_RANGE_STEPS
            ),
            EvalError::ManyToOneMatch(labels) => {
                write!(f, "many-to-one matching: multiple right-hand series share {labels}")
            }
            EvalError::DuplicateSeries(labels) => write!(
                f,
                "several result series share {labels} once the metric name is dropped; \
                 aggregate them or select one metric"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// A parse or evaluation failure for string-level query entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query parsed but could not be evaluated.
    Eval(EvalError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        QueryError::Eval(e)
    }
}

/// Evaluates TeeQL expressions against a [`TimeSeriesDb`].  Instant
/// selectors look back [`QueryEngine::DEFAULT_LOOKBACK_MS`], a constant
/// shared with the storage engine's stale-head rule.
///
/// ```
/// use teemon_metrics::Labels;
/// use teemon_query::{QueryEngine, Value};
/// use teemon_tsdb::TimeSeriesDb;
///
/// let db = TimeSeriesDb::new();
/// for (t, v) in [(0u64, 0.0), (5_000, 100.0), (10_000, 200.0)] {
///     db.append("requests_total", &Labels::from_pairs([("node", "n1")]), t, v);
/// }
/// let engine = QueryEngine::new(db);
/// let value = engine.instant_query("rate(requests_total[10s])", 10_000).unwrap();
/// let Value::Vector(samples) = value else { panic!() };
/// assert_eq!(samples[0].value, 20.0); // 200 requests over 10 s
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    db: TimeSeriesDb,
}

impl QueryEngine {
    /// The staleness window of instant selectors, a constant: samples older
    /// than this (relative to the query time) are not returned.  The
    /// storage engine's stale-head rule is the same window: a series no
    /// instant selector sees any more stops holding an uncompressed head.
    pub const DEFAULT_LOOKBACK_MS: u64 = teemon_tsdb::STALE_HEAD_MS;

    /// The most steps one range query may evaluate (Prometheus' fixed
    /// 11 000 points per series).  Work and result size grow with
    /// `series × steps`, so without a bound a single request — a ten-year
    /// range at millisecond steps — asks for unbounded time and memory.
    pub(crate) const MAX_RANGE_STEPS: u64 = 11_000;

    /// Creates an engine over `db`.
    pub fn new(db: TimeSeriesDb) -> Self {
        Self { db }
    }

    /// The database queried.
    pub fn db(&self) -> &TimeSeriesDb {
        &self.db
    }

    /// Parses and evaluates `query` at `at_ms`.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the evaluation error.
    pub fn instant_query(&self, query: &str, at_ms: u64) -> Result<Value, QueryError> {
        Ok(self.instant(&parse(query)?, at_ms)?)
    }

    /// Parses and evaluates `query` at every step of `[start_ms, end_ms]`.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the evaluation error.
    pub fn range_query(
        &self,
        query: &str,
        start_ms: u64,
        end_ms: u64,
        step_ms: u64,
    ) -> Result<Vec<RangeSeries>, QueryError> {
        Ok(self.range(&parse(query)?, start_ms, end_ms, step_ms)?)
    }

    /// Evaluates a parsed expression at one instant: the plan
    /// [`QueryEngine::range`] would run, over a grid of the one step
    /// `at_ms` — the same windows, the same rounding.  A bare range selector
    /// (`m[5m]`), which has no value at a step, yields the raw samples of
    /// its window as [`Value::Matrix`].
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] when the expression is not well-typed (e.g. a
    /// range function over an instant vector) or its result series cannot be
    /// told apart — see [`stream::plan_or_reason`].
    pub fn instant(&self, expr: &Expr, at_ms: u64) -> Result<Value, EvalError> {
        if let Expr::Range { selector, window_ms } = expr {
            let start = at_ms.saturating_sub(*window_ms);
            let series = self.db.select(selector).into_iter().filter_map(|snapshot| {
                let points = snapshot.points_in(start, at_ms);
                let name = Some(snapshot.name().to_string());
                (!points.is_empty()).then(|| RangeSeries {
                    name,
                    labels: snapshot.to_labels(),
                    points,
                })
            });
            return Ok(Value::Matrix(series.collect()));
        }
        let plan = stream::plan_or_reason(&self.db, Self::DEFAULT_LOOKBACK_MS, expr, at_ms, at_ms)?;
        if !matches!(plan.kind, PlanKind::Vector { .. }) {
            let series = plan.run(at_ms, at_ms, 1);
            let point = series.first().and_then(|series| series.points.first());
            return Ok(Value::Scalar(point.map_or(f64::NAN, |point| point.value)));
        }
        let samples = plan.run(at_ms, at_ms, 1).into_iter().filter_map(|series| {
            let value = series.points.first()?.value;
            Some(VectorSample { name: series.name, labels: series.labels, value })
        });
        Ok(Value::Vector(samples.collect()))
    }

    /// Evaluates a parsed expression at every step of `[start_ms, end_ms]`
    /// through the streaming planner ([`crate::stream`]): each series is
    /// decoded once and two monotone indices slide its window across all the
    /// steps, updating the window aggregates incrementally, so the whole
    /// range costs `O(samples touched)` instead of `O(steps × window)`.
    /// Series come back in key order.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::ZeroStep`] for a zero step,
    /// [`EvalError::TooManySteps`] when the grid has more than
    /// `QueryEngine::MAX_RANGE_STEPS` steps (refused before any planning),
    /// and the planner's error for an expression it refuses
    /// ([`stream::plan_or_reason`]) — a whole-query range selector (`m[5m]`)
    /// among them, with [`EvalError::UnexpectedRange`].
    ///
    /// Selectors are resolved against the storage index once for the whole
    /// query; every step then reads the same immutable `Arc`-shared chunk
    /// snapshots, so concurrent ingestion cannot make one selector's data
    /// shift between steps.
    pub fn range(
        &self,
        expr: &Expr,
        start_ms: u64,
        end_ms: u64,
        step_ms: u64,
    ) -> Result<Vec<RangeSeries>, EvalError> {
        Ok(self.range_with_run(expr, start_ms, end_ms, step_ms)?.0)
    }

    /// The instrumented range funnel shared by [`QueryEngine::range`] and
    /// `analyze`: evaluates, feeds the `teemon_query_*` probes (mode
    /// counter, decode/rebuild counters, wall-time histogram, slow-query
    /// ring) and reports what the run did.
    pub(crate) fn range_with_run(
        &self,
        expr: &Expr,
        start_ms: u64,
        end_ms: u64,
        step_ms: u64,
    ) -> Result<(Vec<RangeSeries>, RangeRun), EvalError> {
        if step_ms == 0 {
            return Err(EvalError::ZeroStep);
        }
        if start_ms > end_ms {
            return Ok((Vec::new(), RangeRun::default()));
        }
        let steps = ((end_ms - start_ms) / step_ms).saturating_add(1);
        if steps > Self::MAX_RANGE_STEPS {
            return Err(EvalError::TooManySteps(steps));
        }
        let watch = Stopwatch::start();
        let plan =
            stream::plan_or_reason(&self.db, Self::DEFAULT_LOOKBACK_MS, expr, start_ms, end_ms)?;
        let (result, stats) = plan.run_with_stats(start_ms, end_ms, step_ms);
        probes::QUERY_STREAMED.inc();
        probes::QUERY_SAMPLES_DECODED.add(stats.samples_decoded);
        probes::QUERY_WINDOW_REBUILDS.add(stats.window_rebuilds);
        probes::QUERY_IRREGULAR_SERIES.add(stats.irregular_series);
        let wall_ns = watch.elapsed_ns();
        probes::QUERY_NS.record_ns(wall_ns);
        // Only offenders pay for rendering the expression back to text.
        if wall_ns >= slow::threshold_ns() {
            slow::maybe_record(
                &expr.to_string(),
                wall_ns,
                stats.samples_decoded,
                stats.irregular_series,
            );
        }
        Ok((result, RangeRun { wall_seconds: wall_ns as f64 / 1e9, stats }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// 2 nodes × 2 syscalls of counters at 5 s resolution, plus a gauge.
    fn db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..13u64 {
            for (node, scale) in [("n1", 1.0), ("n2", 3.0)] {
                for (syscall, per_tick) in [("read", 100.0), ("futex", 20.0)] {
                    db.append(
                        "teemon_syscalls_total",
                        &Labels::from_pairs([("node", node), ("syscall", syscall)]),
                        t * 5_000,
                        t as f64 * per_tick * scale,
                    );
                }
                db.append(
                    "sgx_nr_free_pages",
                    &Labels::from_pairs([("node", node)]),
                    t * 5_000,
                    24_000.0 - t as f64 * 1_000.0 * scale,
                );
            }
        }
        db
    }

    fn vector(engine: &QueryEngine, q: &str, at: u64) -> Vec<VectorSample> {
        match engine.instant_query(q, at).unwrap() {
            Value::Vector(v) => v,
            other => panic!("expected vector for `{q}`, got {other:?}"),
        }
    }

    #[test]
    fn selectors_respect_matchers_and_lookback() {
        let engine = QueryEngine::new(db());
        assert_eq!(vector(&engine, "sgx_nr_free_pages", 60_000).len(), 2);
        let one = vector(&engine, r#"sgx_nr_free_pages{node="n2"}"#, 60_000);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name.as_deref(), Some("sgx_nr_free_pages"));
        assert_eq!(one[0].value, 24_000.0 - 12.0 * 3_000.0);
        // Beyond the lookback window the series goes stale.
        assert!(vector(&engine, "sgx_nr_free_pages", 500_000).is_empty());
    }

    #[test]
    fn rate_and_aggregation_by_node() {
        let engine = QueryEngine::new(db());
        // Each node's read counter grows 100·scale per 5 s → 20·scale per s;
        // futex adds 4·scale per s.
        let per_node = vector(&engine, "sum by (node) (rate(teemon_syscalls_total[30s]))", 60_000);
        assert_eq!(per_node.len(), 2);
        let value_of = |node: &str| {
            per_node.iter().find(|s| s.labels.get("node") == Some(node)).map(|s| s.value).unwrap()
        };
        assert!((value_of("n1") - 24.0).abs() < 1e-9);
        assert!((value_of("n2") - 72.0).abs() < 1e-9);
        // `without` keeps the complementary labels.
        let per_syscall =
            vector(&engine, "sum without (node) (rate(teemon_syscalls_total[30s]))", 60_000);
        assert_eq!(per_syscall.len(), 2);
        assert!(per_syscall.iter().all(|s| s.labels.get("syscall").is_some()));
        // Global sum collapses everything.
        let total = vector(&engine, "sum(rate(teemon_syscalls_total[30s]))", 60_000);
        assert_eq!(total.len(), 1);
        assert!(total[0].labels.is_empty());
        assert!((total[0].value - 96.0).abs() < 1e-9);
    }

    #[test]
    fn over_time_functions_summarise_windows() {
        let engine = QueryEngine::new(db());
        let q = r#"avg_over_time(sgx_nr_free_pages{node="n1"}[20s])"#;
        // Window [40s, 60s]: values at t=8..=12 → 24_000 - 1_000·{8..12}.
        let avg = vector(&engine, q, 60_000);
        assert!((avg[0].value - (24_000.0 - 10_000.0)).abs() < 1e-9);
        let max = vector(&engine, r#"max_over_time(sgx_nr_free_pages{node="n1"}[20s])"#, 60_000);
        assert_eq!(max[0].value, 16_000.0);
        let count = vector(&engine, "count_over_time(sgx_nr_free_pages[20s])", 60_000);
        assert_eq!(count.len(), 2);
        assert_eq!(count[0].value, 5.0);
        let median = vector(
            &engine,
            r#"quantile_over_time(0.5, sgx_nr_free_pages{node="n1"}[20s])"#,
            60_000,
        );
        assert_eq!(median[0].value, 14_000.0);
        let last = vector(&engine, r#"last_over_time(sgx_nr_free_pages{node="n1"}[20s])"#, 60_000);
        assert_eq!(last[0].value, 12_000.0);
    }

    #[test]
    fn arithmetic_and_comparisons_filter_vectors() {
        let engine = QueryEngine::new(db());
        // Scalar arithmetic on a vector.
        let pct = vector(&engine, "sgx_nr_free_pages / 24000 * 100", 0);
        assert_eq!(pct.len(), 2);
        assert!((pct[0].value - 100.0).abs() < 1e-9);
        assert_eq!(pct[0].name, None, "arithmetic drops the metric name");
        // Comparison keeps only matching samples (filter semantics).
        let low = vector(&engine, "sgx_nr_free_pages < 5000", 60_000);
        assert_eq!(low.len(), 1, "only n2 dropped below 5000 pages");
        assert_eq!(low[0].labels.get("node"), Some("n2"));
        assert_eq!(low[0].name.as_deref(), Some("sgx_nr_free_pages"));
        // Scalar-scalar comparison returns 0/1.
        assert_eq!(engine.instant_query("1 + 1 == 2", 0).unwrap(), Value::Scalar(1.0));
        // Vector-vector arithmetic matches on identical label sets.
        let ratio = vector(
            &engine,
            "sum by (node) (teemon_syscalls_total) / sum by (node) (sgx_nr_free_pages)",
            0,
        );
        assert_eq!(ratio.len(), 2);
    }

    #[test]
    fn range_queries_stitch_instant_steps() {
        let engine = QueryEngine::new(db());
        let series = engine
            .range_query("sum by (node) (rate(teemon_syscalls_total[30s]))", 30_000, 60_000, 15_000)
            .unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 3, "steps at 30, 45, 60 s");
            assert!(s.points.windows(2).all(|w| w[0].timestamp_ms < w[1].timestamp_ms));
        }
        // Scalar expressions produce one label-less series.
        let scalar = engine.range_query("42", 0, 10_000, 5_000).unwrap();
        assert_eq!(scalar.len(), 1);
        let at = |timestamp_ms| Sample { timestamp_ms, value: 42.0 };
        assert_eq!(scalar[0].points, [at(0), at(5_000), at(10_000)]);
        assert_eq!(scalar[0].display_name(), "{}");
    }

    #[test]
    fn type_errors_are_reported() {
        let engine = QueryEngine::new(db());
        assert_eq!(
            engine.instant_query("rate(sgx_nr_free_pages)", 0),
            Err(QueryError::Eval(EvalError::RangeRequired(RangeFunc::Rate)))
        );
        assert_eq!(
            engine.instant_query("sum(1)", 0),
            Err(QueryError::Eval(EvalError::VectorRequired("aggregation")))
        );
        assert_eq!(
            engine.instant_query("sgx_nr_free_pages[5m] + 1", 0),
            Err(QueryError::Eval(EvalError::UnexpectedRange))
        );
        assert_eq!(
            engine.instant_query("quantile_over_time(1.5, sgx_nr_free_pages[5m])", 0),
            Err(QueryError::Eval(EvalError::InvalidQuantile(1.5)))
        );
        assert!(matches!(
            engine.range_query("up", 0, 1, 0),
            Err(QueryError::Eval(EvalError::ZeroStep))
        ));
        // An inverted range is empty, not a phantom sample at start_ms.
        assert_eq!(engine.range_query("sgx_nr_free_pages", 20_000, 10_000, 5_000), Ok(Vec::new()));
        assert!(matches!(engine.instant_query("up[", 0), Err(QueryError::Parse(_))));
        // A name-less rhs selector matching several metrics with identical
        // label sets is ambiguous, not a silent pick.
        let dup = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        dup.append("metric_a", &labels, 0, 7.0);
        dup.append("metric_b", &labels, 0, 100.0);
        let dup_engine = QueryEngine::new(dup);
        assert!(matches!(
            dup_engine.instant_query(r#"metric_a + {node="n1"}"#, 0),
            Err(QueryError::Eval(EvalError::ManyToOneMatch(_)))
        ));
        let msg = EvalError::ManyToOneMatch(labels).to_string();
        assert!(msg.contains("many-to-one"), "{msg}");
        // Errors render readable messages.
        let msg = QueryError::from(EvalError::RangeRequired(RangeFunc::Rate)).to_string();
        assert!(msg.contains("rate"), "{msg}");
    }

    #[test]
    fn scalar_is_the_value_of_a_one_element_vector() {
        let engine = QueryEngine::new(db());
        let scalar = |q: &str, at| match engine.instant_query(q, at).unwrap() {
            Value::Scalar(v) => v,
            other => panic!("expected a scalar for `{q}`, got {other:?}"),
        };
        assert_eq!(scalar(r#"scalar(sgx_nr_free_pages{node="n1"})"#, 0), 24_000.0);
        // An empty or a two-element vector is NaN, and nothing compares
        // true against NaN: a rule built on it does not fire.
        for q in ["scalar(sgx_nr_free_pages)", "scalar(missing)"] {
            assert!(scalar(q, 0).is_nan(), "`{q}`");
            let filtered = format!("sgx_nr_free_pages / {q} >= 0");
            assert!(vector(&engine, &filtered, 0).is_empty(), "`{filtered}`");
        }
        // A share of the whole: both nodes hold 24 000 pages at t = 0.
        let share = vector(
            &engine,
            "sum by (node) (sgx_nr_free_pages) / scalar(sum(sgx_nr_free_pages)) >= 0.5",
            0,
        );
        assert_eq!(share.iter().map(|s| s.value).collect::<Vec<_>>(), [0.5, 0.5]);
        // Between two scalars a comparison is 1 or 0.
        assert_eq!(scalar("scalar(sum(sgx_nr_free_pages)) > 1", 0), 1.0);
        assert_eq!(scalar("2 * scalar(sum(sgx_nr_free_pages)) < 1", 0), 0.0);
        // Over a range: one series with a value at every step, NaN until
        // n1 alone has dropped below 20 000 pages (from 25 s on).
        let low = r#"scalar(sgx_nr_free_pages{node="n1"} < 20000)"#;
        let series = engine.range_query(low, 0, 60_000, 5_000).unwrap();
        assert_eq!(series.len(), 1);
        let values: Vec<f64> = series[0].points.iter().map(|p| p.value).collect();
        assert!(values[..5].iter().all(|v| v.is_nan()), "{values:?}");
        assert_eq!(
            values[5..],
            [19_000.0, 18_000.0, 17_000.0, 16_000.0, 15_000.0, 14_000.0, 13_000.0, 12_000.0]
        );
        // Only an instant vector has a `scalar()`.
        for q in ["scalar(1)", "scalar(sgx_nr_free_pages[1m])"] {
            assert_eq!(
                engine.instant_query(q, 0),
                Err(QueryError::Eval(EvalError::VectorRequired("scalar"))),
                "`{q}`"
            );
        }
    }

    #[test]
    fn series_that_collide_once_the_name_is_dropped_are_refused() {
        // Two metrics with one label set: `rate` drops the names that told
        // them apart, so the answer would be one series holding two values
        // a step (range) or two samples with one identity (instant) — which
        // a recording rule would then append at one timestamp.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for t in 0..10u64 {
            db.append("metric_a", &labels, t * 1_000, t as f64);
            db.append("metric_b", &labels, t * 1_000, t as f64 * 2.0);
        }
        let engine = QueryEngine::new(db);
        let refused = Some(QueryError::Eval(EvalError::DuplicateSeries(labels.clone())));
        for query in [r#"rate({node="n1"}[10s])"#, r#"{node="n1"} * 2"#] {
            assert_eq!(engine.range_query(query, 0, 9_000, 1_000).err(), refused, "`{query}`");
            assert_eq!(engine.instant_query(query, 9_000).err(), refused, "`{query}`");
        }
        let msg = refused.map(|e| e.to_string()).unwrap_or_default();
        assert!(msg.contains(r#"{node="n1"}"#) && msg.contains("metric name"), "{msg}");
        // Names kept, or the two folded into one, tell them apart.
        assert_eq!(engine.range_query(r#"{node="n1"}"#, 0, 9_000, 1_000).unwrap().len(), 2);
        assert_eq!(vector(&engine, r#"sum(rate({node="n1"}[10s]))"#, 9_000).len(), 1);
    }

    #[test]
    fn range_queries_are_bounded_in_steps() {
        let engine = QueryEngine::new(db());
        // Exactly the limit is served — vector-vector matching included — and
        // one step more is refused unplanned.
        for query in ["1", "sgx_nr_free_pages", "sgx_nr_free_pages + sgx_nr_free_pages"] {
            let at_limit = engine.range_query(query, 5_000, 5_000 + 10_999, 1).unwrap();
            assert_eq!(at_limit[0].points.len(), 11_000, "`{query}`");
            assert_eq!(
                engine.range_query(query, 5_000, 5_000 + 11_000, 1),
                Err(QueryError::Eval(EvalError::TooManySteps(11_001))),
                "`{query}`"
            );
        }
        // The shape that used to ask for 4·10¹² points answers at once.
        let refused = engine.range_query("1", 0, 4_000_000_000_000, 1).unwrap_err();
        assert_eq!(refused, QueryError::Eval(EvalError::TooManySteps(4_000_000_000_001)));
        assert!(refused.to_string().contains("11000"), "{refused}");
        assert_eq!(
            engine.range_query("1", 0, u64::MAX, 1),
            Err(QueryError::Eval(EvalError::TooManySteps(u64::MAX)))
        );
    }

    #[test]
    fn bare_range_selector_returns_a_matrix() {
        let engine = QueryEngine::new(db());
        let Value::Matrix(series) = engine.instant_query("sgx_nr_free_pages[10s]", 60_000).unwrap()
        else {
            panic!("expected matrix");
        };
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 3);
        assert_eq!(series[0].display_name(), "sgx_nr_free_pages{node=\"n1\"}");
    }
}
