//! The per-step reference evaluator the streaming planner is held to,
//! written against the crate's public API only.
//!
//! [`instant`] walks the expression tree at one instant — selectors read
//! each series' latest sample inside the lookback, range functions
//! re-extract and re-reduce their whole window, aggregations and binary
//! operations combine whole vectors — and [`range`] runs that walk at every
//! step of the grid and stitches the answers into series.  That costs
//! `O(steps × window)` where `teemon_query::stream` costs `O(samples
//! touched)`, and it is simple enough to be obviously right, which is all a
//! reference has to be — it is test code, so nothing ships it.  Where the
//! streamer refuses an expression at plan time, the walker meets the same
//! fault while evaluating: the error is the same, except that it reports a
//! many-to-one match or two series with one key only at a step where both
//! are present.
//!
//! The unit tests of `stream.rs` include this file too, so it names the
//! crate as `teemon_query` and allows what one includer leaves unused.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use teemon_metrics::Labels;
use teemon_query::{
    AggregateOp, BinOp, EvalError, Expr, Grouping, QueryEngine, RangeFunc, RangeSeries, Value,
    VectorSample,
};
use teemon_tsdb::{Sample, Selector, SeriesSnapshot};

/// A result series' identity: metric name (when kept) and labels.
type Key = (Option<String>, Labels);

/// One selected series with its key strings materialised once per query.
struct SelectedSeries {
    snapshot: SeriesSnapshot,
    name: String,
    labels: Labels,
}

/// Per-query cache of selector evaluations, keyed by the selector's address
/// inside the expression tree: each selector hits the index once per query,
/// not once per step, and every step reads the same snapshots.
#[derive(Default)]
struct SelectionCache {
    by_selector: HashMap<*const Selector, Rc<Vec<SelectedSeries>>>,
}

impl SelectionCache {
    fn selection(&mut self, engine: &QueryEngine, selector: &Selector) -> Rc<Vec<SelectedSeries>> {
        let selected = self.by_selector.entry(selector as *const Selector).or_insert_with(|| {
            let series = engine.db().select(selector).into_iter().map(|snapshot| SelectedSeries {
                name: snapshot.name().to_string(),
                labels: snapshot.to_labels(),
                snapshot,
            });
            Rc::new(series.collect())
        });
        Rc::clone(selected)
    }
}

/// Evaluates `expr` at `at_ms`, step-major.
pub fn instant(engine: &QueryEngine, expr: &Expr, at_ms: u64) -> Result<Value, EvalError> {
    eval(engine, expr, at_ms, &mut SelectionCache::default())
}

/// Evaluates `expr` at every step of `[start_ms, end_ms]` by running the
/// instant walk at each, series sorted by key.
pub fn range(
    engine: &QueryEngine,
    expr: &Expr,
    start_ms: u64,
    end_ms: u64,
    step_ms: u64,
) -> Result<Vec<RangeSeries>, EvalError> {
    if step_ms == 0 {
        return Err(EvalError::ZeroStep);
    }
    let mut cache = SelectionCache::default();
    let mut series: BTreeMap<Key, Vec<Sample>> = BTreeMap::new();
    let mut t = start_ms;
    while t <= end_ms {
        let point = |value| Sample { timestamp_ms: t, value };
        match eval(engine, expr, t, &mut cache)? {
            Value::Scalar(v) => series.entry((None, Labels::new())).or_default().push(point(v)),
            Value::Vector(samples) => {
                for sample in samples {
                    series
                        .entry((sample.name, sample.labels))
                        .or_default()
                        .push(point(sample.value));
                }
            }
            Value::Matrix(_) => return Err(EvalError::UnexpectedRange),
        }
        let Some(next) = t.checked_add(step_ms) else { break };
        t = next;
    }
    let series = series.into_iter().map(|((name, labels), points)| {
        // A step holding two points is two series with one key.
        if points.windows(2).any(|pair| pair[0].timestamp_ms == pair[1].timestamp_ms) {
            return Err(EvalError::DuplicateSeries(labels));
        }
        Ok(RangeSeries { name, labels, points })
    });
    series.collect()
}

fn eval(
    engine: &QueryEngine,
    expr: &Expr,
    at_ms: u64,
    cache: &mut SelectionCache,
) -> Result<Value, EvalError> {
    match expr {
        Expr::Number(n) => Ok(Value::Scalar(*n)),
        Expr::Selector(selector) => {
            let oldest_live = at_ms.saturating_sub(QueryEngine::DEFAULT_LOOKBACK_MS);
            let selection = cache.selection(engine, selector);
            let samples = selection.iter().filter_map(|series| {
                let sample = series.snapshot.at(at_ms).filter(|s| s.timestamp_ms >= oldest_live)?;
                Some(VectorSample {
                    name: Some(series.name.clone()),
                    labels: series.labels.clone(),
                    value: sample.value,
                })
            });
            Ok(Value::Vector(samples.collect()))
        }
        Expr::Range { selector, window_ms } => {
            let start = at_ms.saturating_sub(*window_ms);
            let selection = cache.selection(engine, selector);
            let series = selection.iter().filter_map(|series| {
                let points = series.snapshot.points_in(start, at_ms);
                (!points.is_empty()).then(|| RangeSeries {
                    name: Some(series.name.clone()),
                    labels: series.labels.clone(),
                    points,
                })
            });
            Ok(Value::Matrix(series.collect()))
        }
        Expr::Call { func, param, arg } => {
            let Value::Matrix(series) = eval(engine, arg, at_ms, cache)? else {
                return Err(EvalError::RangeRequired(*func));
            };
            if let Some(q) = param.filter(|q| !(0.0..=1.0).contains(q)) {
                return Err(EvalError::InvalidQuantile(q));
            }
            let samples = series.into_iter().filter_map(|s| {
                let value = apply_range_func(*func, *param, &s.points)?;
                Some(VectorSample { name: None, labels: s.labels, value })
            });
            Ok(Value::Vector(samples.collect()))
        }
        Expr::Aggregate { op, grouping, expr } => {
            let Value::Vector(samples) = eval(engine, expr, at_ms, cache)? else {
                return Err(EvalError::VectorRequired("aggregation"));
            };
            Ok(Value::Vector(aggregate(&samples, *op, grouping)))
        }
        Expr::Scalar(arg) => {
            let Value::Vector(samples) = eval(engine, arg, at_ms, cache)? else {
                return Err(EvalError::VectorRequired("scalar"));
            };
            Ok(Value::Scalar(match samples[..] {
                [ref only] => only.value,
                _ => f64::NAN,
            }))
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = eval(engine, lhs, at_ms, cache)?;
            let rhs = eval(engine, rhs, at_ms, cache)?;
            binary(*op, lhs, rhs)
        }
    }
}

fn apply_range_func(func: RangeFunc, param: Option<f64>, points: &[Sample]) -> Option<f64> {
    let values = || points.iter().map(|p| p.value).collect::<Vec<f64>>();
    match func {
        RangeFunc::Rate => rate(points),
        RangeFunc::Increase => increase(points),
        RangeFunc::AvgOverTime => apply(AggregateOp::Avg, &values()),
        RangeFunc::MinOverTime => apply(AggregateOp::Min, &values()),
        RangeFunc::MaxOverTime => apply(AggregateOp::Max, &values()),
        RangeFunc::SumOverTime => apply(AggregateOp::Sum, &values()),
        RangeFunc::CountOverTime => apply(AggregateOp::Count, &values()),
        RangeFunc::QuantileOverTime => quantile(values(), param.unwrap_or(0.5)),
        RangeFunc::LastOverTime => points.last().map(|p| p.value),
    }
}

/// The window's increase: the sum of every adjacent pair's delta, where a
/// decrease is a counter reset and the post-reset value is the increase.
fn increase(points: &[Sample]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let mut total = 0.0;
    for pair in points.windows(2) {
        let (prev, next) = (pair[0].value, pair[1].value);
        total += if next >= prev { next - prev } else { next };
    }
    Some(total)
}

/// [`increase`] per second of the span between the window's first and last
/// samples.
fn rate(points: &[Sample]) -> Option<f64> {
    let (t0, t1) = (points.first()?.timestamp_ms, points.last()?.timestamp_ms);
    if t1 <= t0 {
        return None;
    }
    Some(increase(points)? / ((t1 - t0) as f64 / 1000.0))
}

/// `op` over a whole set of values; `None` for an empty set.
fn apply(op: AggregateOp, values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(match op {
        AggregateOp::Sum => values.iter().sum(),
        AggregateOp::Avg => values.iter().sum::<f64>() / values.len() as f64,
        AggregateOp::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        AggregateOp::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggregateOp::Count => values.len() as f64,
    })
}

/// The exact `q`-quantile, interpolated between the two nearest ranks of
/// the values in IEEE total order (`NaN`s rank above every number).
fn quantile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * values.len().checked_sub(1)? as f64;
    let (lower, upper) = (pos.floor() as usize, pos.ceil() as usize);
    let w = pos - lower as f64;
    Some(if lower == upper { values[lower] } else { values[lower] * (1.0 - w) + values[upper] * w })
}

fn aggregate(samples: &[VectorSample], op: AggregateOp, grouping: &Grouping) -> Vec<VectorSample> {
    let mut groups: BTreeMap<Labels, Vec<f64>> = BTreeMap::new();
    for sample in samples {
        groups.entry(grouping.key_for(&sample.labels)).or_default().push(sample.value);
    }
    let samples = groups.into_iter().filter_map(|(labels, values)| {
        apply(op, &values).map(|value| VectorSample { name: None, labels, value })
    });
    samples.collect()
}

fn binary(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, EvalError> {
    // A vector sample against the other operand, on the side it stood:
    // arithmetic drops the name, a comparison filters and keeps the sample.
    let combine = |sample: VectorSample, other: f64, vector_left: bool| {
        let (a, b) = if vector_left { (sample.value, other) } else { (other, sample.value) };
        if op.is_comparison() {
            op.compare(a, b).then_some(sample)
        } else {
            Some(VectorSample { name: None, labels: sample.labels, value: op.apply(a, b) })
        }
    };
    Ok(match (lhs, rhs) {
        (Value::Matrix(_), _) | (_, Value::Matrix(_)) => return Err(EvalError::UnexpectedRange),
        (Value::Scalar(a), Value::Scalar(b)) => Value::Scalar(op.apply(a, b)),
        (Value::Vector(v), Value::Scalar(s)) => {
            Value::Vector(v.into_iter().filter_map(|sample| combine(sample, s, true)).collect())
        }
        (Value::Scalar(s), Value::Vector(v)) => {
            Value::Vector(v.into_iter().filter_map(|sample| combine(sample, s, false)).collect())
        }
        (Value::Vector(lhs), Value::Vector(rhs)) => {
            // One-to-one matching on identical label sets, names ignored.
            let mut by_labels: BTreeMap<&Labels, f64> = BTreeMap::new();
            for sample in &rhs {
                if by_labels.insert(&sample.labels, sample.value).is_some() {
                    return Err(EvalError::ManyToOneMatch(sample.labels.clone()));
                }
            }
            let matched = lhs.into_iter().filter_map(|sample| {
                let other = *by_labels.get(&sample.labels)?;
                combine(sample, other, true)
            });
            Value::Vector(matched.collect())
        }
    })
}

/// `true` when two range results agree: identical series keys and step
/// grids, and per-point values equal up to floating-point re-association
/// (relative 1e-9, treating equal-sign infinities and NaN pairs as equal).
pub fn ranges_equivalent(a: &[RangeSeries], b: &[RangeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.labels == y.labels
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| {
                    p.timestamp_ms == q.timestamp_ms && values_close(p.value, q.value)
                })
        })
}

/// `true` when two range results are the same bit for bit: series keys,
/// timestamps and the values' bit patterns.
pub fn bit_identical(a: &[RangeSeries], b: &[RangeSeries]) -> bool {
    let same = |p: &Sample, q: &Sample| {
        p.timestamp_ms == q.timestamp_ms && p.value.to_bits() == q.value.to_bits()
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (&x.name, &x.labels) == (&y.name, &y.labels)
                && x.points.len() == y.points.len()
                && x.points.iter().zip(&y.points).all(|(p, q)| same(p, q))
        })
}

fn values_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true; // equal finites, equal-sign infinities, two NaNs
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= scale * 1e-9 + 1e-12
}
