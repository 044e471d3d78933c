//! Streaming range-query evaluation, series by series.
//!
//! The per-step evaluator ([`crate::QueryEngine::range_per_step`]) re-runs
//! the whole instant pipeline at every step: a 1 h / 15 s-step
//! `rate(m[5m])` query extracts and re-aggregates ~240 overlapping 5 m
//! windows per series, so its cost is `O(steps × window)`.  This module
//! evaluates **series-major** instead: one series at a time is taken across
//! the *whole* step grid before the next one is touched.
//!
//! **The leaf.**  A series' samples for `[start − window, end]` are decoded
//! once — sealed chunks in bulk — into a flat `(timestamp, value)` buffer
//! that the next series reuses.  Two indices then slide over that buffer as
//! the steps advance: the *entry* index admits samples with `ts <= t`, the
//! *exit* index evicts samples with `ts < t − window`, and the window at a
//! step is simply the contiguous slice between them.  Every sample is
//! admitted once and evicted once, and what the function needs of the
//! window is either read off the slice or updated incrementally —
//! `O(samples touched)` overall:
//!
//! * `rate`/`increase` are the sum of the window's reset-adjusted pair
//!   deltas, and for a counter that did not reset that sum telescopes to
//!   `last − first`: the window is its end points, and no arithmetic is done
//!   per sample.  What stands in the way is an *irregular pair* — consecutive
//!   samples `(prev, next)` without `next >= prev` (a reset, a NaN) or whose
//!   difference is not finite (an infinity, an overflowing step).  One pass
//!   over the decoded series looks for one; a series that has any, anywhere
//!   in its range, keeps the running pair sum described next for all of its
//!   windows.  The fork is per series,
//!   not per window, because the alternative for a window that holds an
//!   irregular pair is to sum it afresh, and a sawtooth gauge under `rate()`
//!   or a NaN flood would make that `O(steps × window)`; it is made from the
//!   samples alone, and [`RunStats::irregular_series`] counts the series on
//!   the slower side of it.
//! * `sum`/`avg` (and that pair sum) are running deltas: a sample's
//!   contribution is added when it enters and subtracted when it leaves.
//!   Non-finite values are counted, not summed, so a `NaN`/`±inf` passing
//!   through the window cannot poison it forever.
//! * `min`/`max` use a monotonic deque keyed by buffer index (amortised O(1)
//!   per sample).
//! * `count`/`last_over_time` (and instant selectors, which are
//!   `last_over_time` over the staleness lookback) read the slice's ends.
//! * `quantile_over_time` re-sorts, but into one scratch buffer reused for
//!   every step of every series.
//!
//! **Columns.**  What a leaf hands to its parent is that series' *column*:
//! one `Option<f64>` per step of the grid, `None` where the function is
//! undefined.  Every node's output universe (its series names/labels, one
//! *slot* each) is resolved **once** at plan time, and a node emits its
//! columns to its parent in slot order.  `Map` (arithmetic or a filtering
//! comparison against a constant) rewrites a column in place and passes it
//! on.  `Group` folds each child column into its row of a `groups × steps`
//! accumulator through a slot→group table computed at plan time, and emits
//! the rows as columns once its child is done.  The root turns each column
//! into a [`RangeSeries`].
//!
//! **Why the floats are bit-identical.**  A step-major evaluator would fill
//! every slot for step 0, fold them, then move to step 1.  For one cell
//! `(group, step)` of a `Group` the only thing that matters is the order in
//! which that cell's additions happen, and because children emit in slot
//! order each cell still sees its members' values in slot order — exactly
//! the per-step aggregator's order, so not one addition is re-associated.
//! Inside a leaf, a series' window operations (admit up to `t`, evict below
//! `t − window`, check the drift guard, evaluate) run in the same order step
//! after step whether or not other series are interleaved between them.
//! (Identical from one streamed run to the next, that is.  Against a
//! step-major evaluator the running sums re-associate, and an end-point
//! `rate`/`increase` makes one rounding where a sum of `n` non-negative
//! deltas makes `n` — both within `n·ε` of the true value; see the last
//! paragraph.)
//!
//! **The memory bound.**  Live at any moment: one series' decoded samples,
//! one column per pipeline stage, the `groups × steps` accumulators, and the
//! result being built — never `series × steps` intermediate cells, and never
//! more than one series decoded at a time.
//!
//! [`plan_or_reason`] refuses expressions outside this shape (vector-vector
//! binary operations, aggregations over scalars, type errors, output-key
//! collisions after name-dropping) with the reason; the caller falls back
//! to the per-step path, which also remains the equivalence oracle — see
//! [`ranges_equivalent`] and the `TEEMON_VERIFY_STREAM` cross-check in
//! [`crate::QueryEngine::range`].  Streamed results match the oracle exactly
//! except for floating-point association in the running sums — and the
//! single subtraction that stands for a regular counter's pair sum — which
//! can differ in the last bits; the sums monitor their own accumulated error
//! bound and rebuild exactly from the live window when cancellation (e.g. a
//! huge sample leaving the window) would make the drift visible.

use std::collections::VecDeque;

use teemon_metrics::Labels;
use teemon_tsdb::query::{quantile_of_sorted, reset_adjusted_delta};
use teemon_tsdb::{AggregateOp, OwnedSampleCursor, Sample, TimeSeriesDb};

use crate::ast::{BinOp, Expr, RangeFunc};
use crate::eval::RangeSeries;

/// Work counters of one plan execution, totalled across every series when
/// [`StreamPlan::run_with_stats`] finishes.  These feed the
/// `teemon_query_samples_decoded_total` / `teemon_query_window_rebuilds_total`
/// probes and `QueryEngine::analyze`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Chunk samples the windows consumed: every sample admitted (each stored
    /// sample exactly once) plus, per series, the first one past the last
    /// step — the sample that tells a reader the grid is done with it.
    pub samples_decoded: u64,
    /// Exact window-aggregate rebuilds triggered by numeric-drift guards.
    pub window_rebuilds: u64,
    /// Series under `rate`/`increase` whose decoded range held an irregular
    /// pair — a reset, a NaN, an infinity — and so paid for the incremental
    /// pair sum instead of reading their windows off the end points.
    pub irregular_series: u64,
}

/// Output identity of one streamed series, resolved once at plan time.
type SeriesKey = (Option<String>, Labels);

/// A compiled streaming evaluation: the node tree plus the output universe.
///
/// Built by [`plan_or_reason`]; consumed by [`StreamPlan::run`].  Selectors
/// were already resolved against the storage index during planning, so running
/// the plan touches no locks and no index — only the immutable `Arc`-shared
/// chunk snapshots each leaf's cursors drain.
pub struct StreamPlan {
    kind: PlanKind,
}

enum PlanKind {
    /// A constant scalar expression: one label-less series, present at every
    /// step (what the per-step path produces for scalar queries).
    Scalar(f64),
    Vector {
        root: Node,
        keys: Vec<SeriesKey>,
    },
}

impl StreamPlan {
    /// Evaluates the plan over `[start_ms, end_ms]` at `step_ms` intervals.
    /// The step grid is identical to the per-step evaluator's (`start`,
    /// `start + step`, … up to and including the last step `<= end`).  Columns
    /// and accumulators are sized by the grid: bounding the number of steps
    /// is the caller's business ([`crate::QueryEngine::range`] refuses more
    /// than [`crate::QueryEngine::MAX_RANGE_STEPS`]).
    pub fn run(self, start_ms: u64, end_ms: u64, step_ms: u64) -> Vec<RangeSeries> {
        self.run_with_stats(start_ms, end_ms, step_ms).0
    }

    /// [`StreamPlan::run`], also returning the work counters totalled across
    /// every series of the plan.
    pub fn run_with_stats(
        self,
        start_ms: u64,
        end_ms: u64,
        step_ms: u64,
    ) -> (Vec<RangeSeries>, RunStats) {
        let grid = Grid::new(start_ms, end_ms, step_ms);
        let mut stats = RunStats::default();
        match self.kind {
            PlanKind::Scalar(value) => {
                let points = grid.times().map(|t| (t, value)).collect();
                (vec![RangeSeries { name: None, labels: Labels::new(), points }], stats)
            }
            PlanKind::Vector { root, keys } => {
                let mut series = Vec::new();
                // Columns arrive in slot order, one per key.
                let mut keys = keys.into_iter();
                root.emit(&grid, &mut stats, &mut |column| {
                    let Some((name, labels)) = keys.next() else { return };
                    let present = column.iter().flatten().count();
                    if present == 0 {
                        return;
                    }
                    let mut points = Vec::with_capacity(present);
                    points.extend(
                        grid.times().zip(column.iter()).filter_map(|(t, v)| v.map(|v| (t, v))),
                    );
                    series.push(RangeSeries { name, labels, points });
                });
                // The per-step accumulator returns series sorted by key (keys
                // are unique — `plan_or_reason` refuses collisions).
                series.sort_unstable_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
                (series, stats)
            }
        }
    }
}

/// The step grid of one run: `start`, `start + step`, … up to and including
/// the last step `<= end` — identical to the per-step evaluator's, and
/// overflow-safe at the top of the `u64` range because every step is
/// `<= end`.  A grid is never empty (`end < start` still evaluates `start`).
struct Grid {
    start_ms: u64,
    step_ms: u64,
    steps: usize,
}

impl Grid {
    fn new(start_ms: u64, end_ms: u64, step_ms: u64) -> Self {
        let step_ms = step_ms.max(1);
        let after_first = end_ms.saturating_sub(start_ms) / step_ms;
        let steps = usize::try_from(after_first).unwrap_or(usize::MAX).saturating_add(1);
        Self { start_ms, step_ms, steps }
    }

    /// The step timestamps, in order.
    fn times(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.steps as u64).map(|k| self.start_ms + k * self.step_ms)
    }
}

/// Compiles `expr` into a streaming plan, or reports *why* the expression
/// stays on the per-step fallback.  `lookback_ms` is the engine's instant-
/// selector staleness window; `start_ms`/`end_ms` bound the sample range the
/// leaves will ever decode.  The reason strings surface in
/// `QueryEngine::explain` plans and make the
/// `teemon_query_range_total{mode="fallback"}` counter actionable.
pub fn plan_or_reason(
    db: &TimeSeriesDb,
    lookback_ms: u64,
    expr: &Expr,
    start_ms: u64,
    end_ms: u64,
) -> Result<StreamPlan, &'static str> {
    if let Some(value) = fold_const(expr) {
        return Ok(StreamPlan { kind: PlanKind::Scalar(value) });
    }
    let (root, keys) = plan_vector(db, lookback_ms, expr, start_ms, end_ms)?;
    // Two output series with the same key would be merged (interleaved) by
    // the per-step accumulator; that shape stays on the fallback path.
    let mut sorted: Vec<&SeriesKey> = keys.iter().collect();
    sorted.sort();
    if sorted.iter().zip(sorted.iter().skip(1)).any(|(a, b)| a == b) {
        return Err("output series keys collide after name-dropping");
    }
    Ok(StreamPlan { kind: PlanKind::Vector { root, keys } })
}

/// Evaluates pure-number subtrees to their constant value.
fn fold_const(expr: &Expr) -> Option<f64> {
    match expr {
        Expr::Number(n) => Some(*n),
        Expr::Binary { op, lhs, rhs } => Some(op.apply(fold_const(lhs)?, fold_const(rhs)?)),
        _ => None,
    }
}

fn plan_vector(
    db: &TimeSeriesDb,
    lookback_ms: u64,
    expr: &Expr,
    start_ms: u64,
    end_ms: u64,
) -> Result<(Node, Vec<SeriesKey>), &'static str> {
    match expr {
        // An instant selector is `last_over_time` over the lookback window,
        // with the metric name kept.
        Expr::Selector(selector) => {
            let window_ms = lookback_ms;
            let mut keys = Vec::new();
            let mut cursors = Vec::new();
            for snapshot in db.select(selector) {
                keys.push((Some(snapshot.name().to_string()), snapshot.to_labels()));
                cursors.push(snapshot.owned_cursor(start_ms.saturating_sub(window_ms), end_ms));
            }
            Ok((Node::Windows { cursors, window_ms, func: WindowFunc::Last }, keys))
        }
        // A range function over a range selector: one cursor per series,
        // one window slid over each in turn; the name is dropped (function
        // semantics).
        Expr::Call { func, param, arg } => {
            let Expr::Range { selector, window_ms } = &**arg else {
                return Err("range function over a non-range argument (type error)");
            };
            if let Some(q) = param {
                if !(0.0..=1.0).contains(q) {
                    // The fallback reports InvalidQuantile.
                    return Err("quantile parameter outside [0, 1] (type error)");
                }
            }
            let func = match func {
                RangeFunc::Rate => WindowFunc::Rate,
                RangeFunc::Increase => WindowFunc::Increase,
                RangeFunc::AvgOverTime => WindowFunc::Avg,
                RangeFunc::MinOverTime => WindowFunc::Min,
                RangeFunc::MaxOverTime => WindowFunc::Max,
                RangeFunc::SumOverTime => WindowFunc::Sum,
                RangeFunc::CountOverTime => WindowFunc::Count,
                RangeFunc::QuantileOverTime => WindowFunc::Quantile(param.unwrap_or(0.5)),
                RangeFunc::LastOverTime => WindowFunc::Last,
            };
            let mut keys = Vec::new();
            let mut cursors = Vec::new();
            for snapshot in db.select(selector) {
                keys.push((None, snapshot.to_labels()));
                cursors.push(snapshot.owned_cursor(start_ms.saturating_sub(*window_ms), end_ms));
            }
            Ok((Node::Windows { cursors, window_ms: *window_ms, func }, keys))
        }
        // Grouped aggregation: the slot→group table and the group label sets
        // are fixed by the child's (plan-time) universe.
        Expr::Aggregate { op, grouping, expr } => {
            let (child, child_keys) = plan_vector(db, lookback_ms, expr, start_ms, end_ms)?;
            let group_labels: Vec<Labels> =
                child_keys.iter().map(|(_, labels)| grouping.key_for(labels)).collect();
            let mut unique = group_labels.clone();
            unique.sort();
            unique.dedup();
            let slot_group: Vec<usize> = group_labels
                .iter()
                // teemon-verify: allow(no-unwrap): invariant — `unique` is a sorted dedup of these exact labels
                .map(|labels| unique.binary_search(labels).expect("deduped from the same set"))
                .collect();
            let keys: Vec<SeriesKey> = unique.into_iter().map(|labels| (None, labels)).collect();
            let groups = keys.len();
            Ok((Node::Group { input: Box::new(child), op: *op, slot_group, groups }, keys))
        }
        // Arithmetic / comparison against a constant side (either order).
        // Arithmetic drops the metric name; comparisons filter and keep it.
        Expr::Binary { op, lhs, rhs } => {
            let (scalar, vector, scalar_left) = if let Some(s) = fold_const(lhs) {
                (s, rhs, true)
            } else if let Some(s) = fold_const(rhs) {
                (s, lhs, false)
            } else {
                return Err("vector-vector matching stays on the per-step path");
            };
            let (child, child_keys) = plan_vector(db, lookback_ms, vector, start_ms, end_ms)?;
            let keys = if op.is_comparison() {
                child_keys
            } else {
                child_keys.into_iter().map(|(_, labels)| (None, labels)).collect()
            };
            Ok((Node::Map { input: Box::new(child), op: *op, scalar, scalar_left }, keys))
        }
        // `Number` is handled by `fold_const`; a bare `Range` is a type
        // error for range queries — the fallback reports it.
        Expr::Range { .. } => Err("bare range selector is not rangeable (type error)"),
        _ => Err("expression shape outside the streaming planner"),
    }
}

/// One operator of the streaming pipeline.  [`Node::emit`] hands the node's
/// output columns to `sink` one series at a time, in slot order.
enum Node {
    /// The leaves: one storage cursor per series, all sliding the same window
    /// function over the same window length.
    Windows { cursors: Vec<OwnedSampleCursor>, window_ms: u64, func: WindowFunc },
    /// Vector ⇄ constant arithmetic or filtering comparison.
    Map { input: Box<Node>, op: BinOp, scalar: f64, scalar_left: bool },
    /// Grouped cross-series aggregation via a plan-time slot→group table.
    Group { input: Box<Node>, op: AggregateOp, slot_group: Vec<usize>, groups: usize },
}

/// Receives one output column — a series' value at every step of the grid,
/// `None` meaning absent — per call, in slot order.  The column is scratch
/// the callee may rewrite; it is reused for the next series.
type ColumnSink<'a> = &'a mut dyn FnMut(&mut [Option<f64>]);

impl Node {
    fn emit(self, grid: &Grid, stats: &mut RunStats, sink: ColumnSink<'_>) {
        match self {
            Node::Windows { cursors, window_ms, func } => {
                let mut window = Window::new(window_ms, func);
                let mut column = vec![None; grid.steps];
                for cursor in cursors {
                    window.evaluate_series(cursor, grid, &mut column, stats);
                    sink(&mut column);
                }
            }
            Node::Map { input, op, scalar, scalar_left } => {
                input.emit(grid, stats, &mut |column| {
                    for slot in column.iter_mut() {
                        *slot = slot.and_then(|v| {
                            let (lhs, rhs) = if scalar_left { (scalar, v) } else { (v, scalar) };
                            if op.is_comparison() {
                                // Comparisons filter: the sample survives as-is.
                                op.compare(lhs, rhs).then_some(v)
                            } else {
                                Some(op.apply(lhs, rhs))
                            }
                        });
                    }
                    sink(column);
                })
            }
            Node::Group { input, op, slot_group, groups } => {
                let steps = grid.steps;
                let init = match op {
                    AggregateOp::Min => f64::INFINITY,
                    AggregateOp::Max => f64::NEG_INFINITY,
                    _ => 0.0,
                };
                // Row `g` of each accumulator is group `g`'s cell at every step.
                let mut acc_value = vec![init; groups * steps];
                let mut acc_count = vec![0u32; groups * steps];
                // Children arrive in slot order, so every cell folds its
                // members in slot order: the same accumulation order (and
                // therefore bit-identical floats) as the per-step aggregator.
                let mut slot_group = slot_group.iter();
                input.emit(grid, stats, &mut |column| {
                    // One table entry per child slot, every entry `< groups`:
                    // neither lookup can miss.
                    let Some(&group) = slot_group.next() else { return };
                    let row = group * steps..(group + 1) * steps;
                    let (Some(values), Some(counts)) =
                        (acc_value.get_mut(row.clone()), acc_count.get_mut(row))
                    else {
                        return;
                    };
                    let cells = values.iter_mut().zip(counts.iter_mut()).zip(column.iter());
                    for ((acc, count), value) in cells {
                        let Some(v) = *value else { continue };
                        *count += 1;
                        match op {
                            AggregateOp::Sum | AggregateOp::Avg => *acc += v,
                            AggregateOp::Min => *acc = acc.min(v),
                            AggregateOp::Max => *acc = acc.max(v),
                            AggregateOp::Count => {}
                        }
                    }
                });
                let mut column = vec![None; steps];
                for (values, counts) in acc_value.chunks(steps).zip(acc_count.chunks(steps)) {
                    for ((slot, value), count) in column.iter_mut().zip(values).zip(counts) {
                        *slot = (*count > 0).then(|| match op {
                            AggregateOp::Sum | AggregateOp::Min | AggregateOp::Max => *value,
                            AggregateOp::Avg => *value / f64::from(*count),
                            AggregateOp::Count => f64::from(*count),
                        });
                    }
                    sink(&mut column);
                }
            }
        }
    }
}

/// The aggregate a [`Window`] maintains.
#[derive(Clone, Copy)]
enum WindowFunc {
    Rate,
    Increase,
    Sum,
    Avg,
    Min,
    Max,
    Count,
    Last,
    Quantile(f64),
}

/// A running sum that tracks non-finite contributions by *count* instead of
/// folding them into the float, so add/subtract streams cannot get stuck at
/// `NaN`/`±inf` after the offending sample leaves the window.  `value()`
/// reproduces what a fresh left-to-right sum of the window would produce.
///
/// Incremental add/subtract accumulates rounding error — catastrophically so
/// when a huge-magnitude sample absorbs smaller ones and then leaves the
/// window.  The sum therefore tracks the largest magnitude its float ever
/// reached and the number of operations applied; [`RunningSum::drifted`]
/// reports when the accumulated error bound is no longer negligible against
/// the current value (or simply after a few thousand operations), and the
/// window responds by rebuilding the sum exactly from its live contents —
/// O(window), amortised away by the rebuild period.
#[derive(Debug, Default, Clone, PartialEq)]
struct RunningSum {
    finite: f64,
    nan: u32,
    pos_inf: u32,
    neg_inf: u32,
    /// Largest |finite| the running float has reached since the last rebuild.
    peak: f64,
    /// Add/subtract operations since the last rebuild.
    ops: u32,
}

/// Rebuild at the latest after this many incremental operations: keeps the
/// worst-case relative drift around `PERIOD · ε ≈ 1e-12` of the peak.
const REBUILD_PERIOD: u32 = 4096;

impl RunningSum {
    /// The sum of `values` added left to right — the same order as a fresh
    /// per-step evaluation — with the drift bookkeeping starting over.
    fn exact(values: impl Iterator<Item = f64>) -> Self {
        let mut sum = Self::default();
        for value in values {
            sum.add(value);
        }
        sum.ops = 0;
        sum.peak = sum.finite.abs();
        sum
    }

    fn add(&mut self, v: f64) {
        if v.is_finite() {
            self.finite += v;
            self.peak = self.peak.max(self.finite.abs());
            self.ops += 1;
        } else {
            *self.special(v) += 1;
        }
    }

    fn sub(&mut self, v: f64) {
        if v.is_finite() {
            self.finite -= v;
            self.peak = self.peak.max(self.finite.abs());
            self.ops += 1;
        } else {
            *self.special(v) -= 1;
        }
    }

    /// The counter a non-finite `v` is tallied in.
    fn special(&mut self, v: f64) -> &mut u32 {
        if v.is_nan() {
            &mut self.nan
        } else if v > 0.0 {
            &mut self.pos_inf
        } else {
            &mut self.neg_inf
        }
    }

    /// `true` when the error accumulated by incremental updates may no
    /// longer be negligible relative to the current value (cancellation),
    /// when the accumulator itself stopped being finite (overflow — the
    /// add/subtract stream can never bring it back, only a rebuild can), or
    /// when the periodic rebuild is due.
    fn drifted(&self) -> bool {
        !self.finite.is_finite()
            || self.ops >= REBUILD_PERIOD
            || f64::from(self.ops) * f64::EPSILON * self.peak > self.finite.abs() * 1e-10
    }

    fn value(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            f64::NAN
        } else if self.pos_inf > 0 {
            f64::INFINITY
        } else if self.neg_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.finite
        }
    }
}

/// The sliding-window evaluator of one leaf, reused from series to series.
///
/// [`Window::evaluate_series`] decodes one series into `samples` and walks
/// the step grid with two indices into it: `entry` (the next sample not yet
/// admitted) and `exit` (the oldest sample not yet evicted).  The window at a
/// step is `samples[exit..entry]`.  Both indices only move forward, which is
/// what makes whole-range cost `O(samples touched)`.
struct Window {
    window_ms: u64,
    func: WindowFunc,
    /// One series' samples over `[start − window, end]`, in time order.
    samples: Vec<Sample>,
    /// Running Σvalue (for `sum`/`avg`).
    sum: RunningSum,
    /// Running Σ reset-adjusted pair deltas (for `rate`/`increase` over a
    /// series with an irregular pair).
    pairs: RunningSum,
    /// Whether the series being evaluated keeps per-sample state — see
    /// [`Window::evaluate_series`], which decides it.
    incremental: bool,
    /// Monotonic deque of (sample index, value) whose front is the window's
    /// min (or max, per `func`).  NaN samples are skipped — `f64::min`/`max`
    /// ignore them.
    extremes: VecDeque<(usize, f64)>,
    /// Reused sort buffer for `quantile_over_time`.
    scratch: Vec<f64>,
    /// Work meter: buffer positions read — every edge crossing of either
    /// index, every sample a rebuild or a quantile re-reads — plus steps
    /// evaluated, over the series seen so far.  The tests hold it to a
    /// multiple of `samples + steps` on the inputs that tempt a rescan.
    touched: u64,
}

impl Window {
    fn new(window_ms: u64, func: WindowFunc) -> Self {
        Self {
            window_ms,
            func,
            samples: Vec::new(),
            sum: RunningSum::default(),
            pairs: RunningSum::default(),
            incremental: true,
            extremes: VecDeque::new(),
            scratch: Vec::new(),
            touched: 0,
        }
    }

    /// Fills `column` with the function's value over `[t − window_ms, t]` at
    /// every step `t` of `grid` for the series behind `cursor` (`None` where
    /// it is undefined), and adds the work done to `stats`.
    fn evaluate_series(
        &mut self,
        mut cursor: OwnedSampleCursor,
        grid: &Grid,
        column: &mut [Option<f64>],
        stats: &mut RunStats,
    ) {
        self.samples.clear();
        cursor.read_into(&mut self.samples);
        self.sum = RunningSum::default();
        self.pairs = RunningSum::default();
        self.extremes.clear();
        // The one fork of the leaf, made per series from its decoded samples
        // alone.  `sum`/`avg`/`min`/`max` keep per-sample state; `count`,
        // `last` and the quantile read the slice.  The pair sum behind
        // `rate`/`increase` telescopes to `last − first` unless some pair is
        // irregular, and only then is it worth maintaining: recomputing the
        // windows that hold such a pair from scratch would be `O(steps ×
        // window)` for a sawtooth gauge or a NaN flood.
        self.incremental = match self.func {
            WindowFunc::Rate | WindowFunc::Increase => {
                let irregular = has_irregular_pair(&self.samples);
                stats.irregular_series += u64::from(irregular);
                irregular
            }
            WindowFunc::Sum | WindowFunc::Avg | WindowFunc::Min | WindowFunc::Max => true,
            WindowFunc::Count | WindowFunc::Last | WindowFunc::Quantile(_) => false,
        };
        let (mut exit, mut entry) = (0usize, 0usize);
        for (t, slot) in grid.times().zip(column.iter_mut()) {
            let window_start = t.saturating_sub(self.window_ms);
            if self.incremental {
                // Entry edge: admit samples up to t.
                while let Some(sample) = self.samples.get(entry).filter(|s| s.timestamp_ms <= t) {
                    let value = sample.value;
                    let newest = if entry > exit { self.samples.get(entry - 1) } else { None };
                    self.admit(entry, value, newest.map(|s| s.value));
                    entry += 1;
                }
                // Exit edge: evict samples the trailing boundary passed.
                while exit < entry {
                    let Some(sample) =
                        self.samples.get(exit).filter(|s| s.timestamp_ms < window_start)
                    else {
                        break;
                    };
                    let value = sample.value;
                    let oldest = if exit + 1 < entry { self.samples.get(exit + 1) } else { None };
                    self.evict(exit, value, oldest.map(|s| s.value));
                    exit += 1;
                }
            } else {
                // The same two edges, on timestamps alone.
                let ahead = self.samples.get(entry..).unwrap_or(&[]);
                entry += ahead.iter().take_while(|s| s.timestamp_ms <= t).count();
                let held = self.samples.get(exit..entry).unwrap_or(&[]);
                exit += held.iter().take_while(|s| s.timestamp_ms < window_start).count();
            }
            *slot = self.evaluate(exit, entry, stats);
        }
        // See `RunStats::samples_decoded`: admitted, plus one look-ahead.
        stats.samples_decoded += self.samples.len().min(entry + 1) as u64;
        self.touched += (entry + exit + grid.steps) as u64;
    }

    /// A sample joins the window's newest end; `newest` is the value it
    /// follows, when the window is not empty.
    fn admit(&mut self, index: usize, value: f64, newest: Option<f64>) {
        match self.func {
            WindowFunc::Sum | WindowFunc::Avg => self.sum.add(value),
            WindowFunc::Rate | WindowFunc::Increase => {
                if let Some(prev) = newest {
                    self.pairs.add(reset_adjusted_delta(prev, value));
                }
            }
            WindowFunc::Min | WindowFunc::Max => {
                if !value.is_nan() {
                    let keep_min = matches!(self.func, WindowFunc::Min);
                    while self.extremes.back().is_some_and(|&(_, back)| {
                        if keep_min {
                            back >= value
                        } else {
                            back <= value
                        }
                    }) {
                        self.extremes.pop_back();
                    }
                    self.extremes.push_back((index, value));
                }
            }
            WindowFunc::Count | WindowFunc::Last | WindowFunc::Quantile(_) => {}
        }
    }

    /// The window's oldest sample leaves; `oldest` is the value that becomes
    /// the oldest, when one remains.
    fn evict(&mut self, index: usize, value: f64, oldest: Option<f64>) {
        match self.func {
            WindowFunc::Sum | WindowFunc::Avg => self.sum.sub(value),
            WindowFunc::Rate | WindowFunc::Increase => {
                if let Some(next) = oldest {
                    self.pairs.sub(reset_adjusted_delta(value, next));
                }
            }
            WindowFunc::Min | WindowFunc::Max => {
                if self.extremes.front().is_some_and(|&(front, _)| front == index) {
                    self.extremes.pop_front();
                }
            }
            WindowFunc::Count | WindowFunc::Last | WindowFunc::Quantile(_) => {}
        }
    }

    /// The function over the window `samples[exit..entry]`; `None` when it is
    /// undefined there.
    fn evaluate(&mut self, exit: usize, entry: usize, stats: &mut RunStats) -> Option<f64> {
        let window = self.samples.get(exit..entry)?;
        let (first, last) = (window.first()?, window.last()?);
        match self.func {
            WindowFunc::Rate | WindowFunc::Increase => {
                if window.len() < 2 {
                    return None;
                }
                let increase =
                    if self.incremental {
                        if self.pairs.drifted() {
                            self.touched += window.len() as u64;
                            self.pairs =
                                RunningSum::exact(window.iter().zip(window.iter().skip(1)).map(
                                    |(prev, next)| reset_adjusted_delta(prev.value, next.value),
                                ));
                            stats.window_rebuilds += 1;
                        }
                        self.pairs.value()
                    } else {
                        // No irregular pair anywhere in the series: every pair
                        // delta is `next − prev >= 0` and their sum telescopes —
                        // one correctly rounded subtraction where the per-step
                        // sum makes a rounding a pair.
                        last.value - first.value
                    };
                if matches!(self.func, WindowFunc::Increase) {
                    return Some(increase);
                }
                let (t0, t1) = (first.timestamp_ms, last.timestamp_ms);
                (t1 > t0).then(|| increase / ((t1 - t0) as f64 / 1000.0))
            }
            WindowFunc::Sum | WindowFunc::Avg => {
                if self.sum.drifted() {
                    self.touched += window.len() as u64;
                    self.sum = RunningSum::exact(window.iter().map(|s| s.value));
                    stats.window_rebuilds += 1;
                }
                Some(match self.func {
                    WindowFunc::Avg => self.sum.value() / window.len() as f64,
                    _ => self.sum.value(),
                })
            }
            WindowFunc::Min => Some(self.extremes.front().map_or(f64::INFINITY, |&(_, v)| v)),
            WindowFunc::Max => Some(self.extremes.front().map_or(f64::NEG_INFINITY, |&(_, v)| v)),
            WindowFunc::Count => Some(window.len() as f64),
            WindowFunc::Last => Some(last.value),
            WindowFunc::Quantile(q) => {
                self.touched += window.len() as u64;
                self.scratch.clear();
                self.scratch.extend(window.iter().map(|s| s.value));
                self.scratch.sort_by(|a, b| a.total_cmp(b));
                quantile_of_sorted(&self.scratch, q)
            }
        }
    }
}

/// `true` when some consecutive pair of `samples` is *irregular*: not
/// `next >= prev` (a counter reset, or a NaN on either side) or with a
/// difference that is not finite (an infinity, or two finite values too far
/// apart for an `f64`).  Without one, every reset-adjusted pair delta is the
/// plain non-negative difference, and any window's sum of them is its last
/// value less its first.
fn has_irregular_pair(samples: &[Sample]) -> bool {
    // No early exit: the common answer is "none", which has to see every
    // pair anyway, and a loop without a branch in it vectorises.
    samples.iter().zip(samples.iter().skip(1)).fold(false, |irregular, (prev, next)| {
        // `next >= prev` exactly when the difference is not negative, and
        // a NaN, `inf − inf` or an overflow falls outside the range too.
        irregular | !(0.0..=f64::MAX).contains(&(next.value - prev.value))
    })
}

/// `true` when two range results agree: identical series keys and step
/// grids, and per-point values equal up to floating-point re-association
/// (relative 1e-9, treating equal-sign infinities and NaN pairs as equal).
/// Used by the `TEEMON_VERIFY_STREAM` oracle cross-check and the
/// equivalence property tests.
pub fn ranges_equivalent(a: &[RangeSeries], b: &[RangeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.labels == y.labels
                && x.points.len() == y.points.len()
                && x.points
                    .iter()
                    .zip(&y.points)
                    .all(|(&(ta, va), &(tb, vb))| ta == tb && values_close(va, vb))
        })
}

fn values_close(a: f64, b: f64) -> bool {
    if a == b {
        return true; // covers equal finites and equal-sign infinities
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= scale * 1e-9 + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::QueryEngine;

    fn db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..50u64 {
            for (node, scale) in [("n1", 1.0), ("n2", 3.0)] {
                db.append(
                    "requests_total",
                    &Labels::from_pairs([("node", node)]),
                    t * 5_000,
                    t as f64 * 10.0 * scale,
                );
                db.append(
                    "queue_depth",
                    &Labels::from_pairs([("node", node)]),
                    t * 5_000,
                    ((t as f64) * 0.7).sin() * scale,
                );
            }
        }
        db
    }

    fn assert_streams_and_matches(query: &str, start: u64, end: u64, step: u64) {
        let engine = QueryEngine::new(db());
        let expr = parse(query).unwrap();
        let plan = plan_or_reason(engine.db(), QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end)
            .unwrap_or_else(|why| panic!("`{query}` must stream: {why}"));
        let streamed = plan.run(start, end, step);
        let oracle = engine.range_per_step(&expr, start, end, step).unwrap();
        assert!(
            ranges_equivalent(&streamed, &oracle),
            "`{query}` diverged\nstreamed: {streamed:?}\noracle: {oracle:?}"
        );
    }

    #[test]
    fn window_functions_match_the_oracle() {
        for func in [
            "rate",
            "increase",
            "avg_over_time",
            "min_over_time",
            "max_over_time",
            "sum_over_time",
            "count_over_time",
            "last_over_time",
        ] {
            assert_streams_and_matches(&format!("{func}(requests_total[25s])"), 0, 245_000, 15_000);
            assert_streams_and_matches(&format!("{func}(queue_depth[1m])"), 30_000, 200_000, 7_000);
        }
        assert_streams_and_matches("quantile_over_time(0.9, queue_depth[30s])", 0, 245_000, 5_000);
    }

    #[test]
    fn selectors_aggregations_and_arithmetic_match_the_oracle() {
        assert_streams_and_matches("requests_total", 0, 400_000, 15_000);
        assert_streams_and_matches("sum by (node) (rate(requests_total[30s]))", 0, 245_000, 15_000);
        assert_streams_and_matches("max without (node) (queue_depth)", 0, 245_000, 10_000);
        assert_streams_and_matches("avg(rate(requests_total[20s]))", 0, 245_000, 15_000);
        assert_streams_and_matches("queue_depth * 2 + 1", 0, 245_000, 15_000);
        assert_streams_and_matches("100 - sum(queue_depth)", 0, 245_000, 15_000);
        assert_streams_and_matches("queue_depth > 0.5", 0, 245_000, 5_000);
        assert_streams_and_matches(
            "2 < sum by (node) (rate(requests_total[30s]))",
            0,
            245_000,
            15_000,
        );
        assert_streams_and_matches("4 + 4 * 2", 0, 30_000, 5_000);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let database = db();
        let streams =
            |q: &str| plan_or_reason(&database, 300_000, &parse(q).unwrap(), 0, 100_000).is_ok();
        // Vector-vector matching, type errors and invalid parameters are the
        // per-step path's business.
        assert!(!streams("requests_total + queue_depth"));
        assert!(!streams("rate(requests_total)"));
        assert!(!streams("sum(2)"));
        assert!(!streams("quantile_over_time(1.5, queue_depth[30s])"));
        assert!(!streams("requests_total[30s]"));
        // A name-dropping function over two metrics with identical label sets
        // would collide on the output key: fallback.
        let dup = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for t in 0..10u64 {
            dup.append("metric_a", &labels, t * 1000, t as f64);
            dup.append("metric_b", &labels, t * 1000, t as f64 * 2.0);
        }
        assert!(plan_or_reason(
            &dup,
            300_000,
            &parse("rate({node=\"n1\"}[10s])").unwrap(),
            0,
            9_000
        )
        .is_err());
        // But the same selector with names kept streams fine.
        assert!(plan_or_reason(&dup, 300_000, &parse("{node=\"n1\"}").unwrap(), 0, 9_000).is_ok());
    }

    #[test]
    fn running_sums_recover_from_catastrophic_cancellation() {
        // A huge sample absorbs its small neighbours in the running float;
        // once it leaves the window the sum must rebuild exactly, not stay
        // stuck at the absorbed remainder.
        let db = TimeSeriesDb::new();
        for (t, v) in [(0u64, 1e300), (1_000, 1.0), (2_000, 2.0), (3_000, 3.0), (4_000, 4.0)] {
            db.append("m", &Labels::new(), t, v);
        }
        let engine = QueryEngine::new(db.clone());
        for query in
            ["sum_over_time(m[2s])", "avg_over_time(m[2s])", "increase(m[2s])", "rate(m[2s])"]
        {
            let expr = parse(query).unwrap();
            let streamed =
                plan_or_reason(&db, 300_000, &expr, 0, 4_000).unwrap().run(0, 4_000, 1_000);
            let oracle = engine.range_per_step(&expr, 0, 4_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
        // Spot-check the headline case: sum over [2s,3s] and [3s,4s] windows.
        let expr = parse("sum_over_time(m[1s])").unwrap();
        let streamed = plan_or_reason(&db, 300_000, &expr, 0, 4_000).unwrap().run(0, 4_000, 1_000);
        assert_eq!(streamed[0].points[3], (3_000, 5.0));
        assert_eq!(streamed[0].points[4], (4_000, 7.0));

        // Accumulator overflow: two near-max samples push the running float
        // to +inf (matching the oracle while they are in the window); the
        // sum must rebuild back to finite once they leave rather than stay
        // pinned at inf.
        let overflow = TimeSeriesDb::new();
        for (t, v) in [(0u64, 1e308), (1_000, 1e308), (2_000, 5.0), (3_000, 6.0)] {
            overflow.append("m", &Labels::new(), t, v);
        }
        let engine = QueryEngine::new(overflow.clone());
        for query in ["sum_over_time(m[1s])", "avg_over_time(m[2s])", "increase(m[1s])"] {
            let expr = parse(query).unwrap();
            let streamed =
                plan_or_reason(&overflow, 300_000, &expr, 0, 3_000).unwrap().run(0, 3_000, 1_000);
            let oracle = engine.range_per_step(&expr, 0, 3_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
        let summed = engine.range_query("sum_over_time(m[1s])", 0, 3_000, 1_000).unwrap();
        assert_eq!(summed[0].points[3], (3_000, 11.0), "must recover from inf");
    }

    /// Slides `func` over one series — `values` a second apart from zero, in
    /// chunks of 16 — with a `window_ms` window at every `step_ms` of its
    /// whole range.
    fn slide(
        func: WindowFunc,
        values: impl IntoIterator<Item = f64>,
        window_ms: u64,
        step_ms: u64,
    ) -> (Window, Grid, RunStats) {
        let config = teemon_tsdb::TsdbConfig { chunk_size: 16, retention_ms: u64::MAX };
        let db = TimeSeriesDb::with_config(config);
        let mut end = 0;
        for (t, value) in values.into_iter().enumerate() {
            end = t as u64 * 1_000;
            assert!(db.append("m", &Labels::new(), end, value));
        }
        let series = db.select(&teemon_tsdb::Selector::metric("m")).pop().expect("one series");
        let grid = Grid::new(0, end, step_ms);
        let mut window = Window::new(window_ms, func);
        let mut stats = RunStats::default();
        let mut column = vec![None; grid.steps];
        window.evaluate_series(series.owned_cursor(0, end), &grid, &mut column, &mut stats);
        (window, grid, stats)
    }

    #[test]
    fn a_series_without_an_irregular_pair_is_read_off_its_end_points() {
        // Three times the rebuild period of fractional, rising samples: the
        // running sum would have been rebuilt again and again.
        let rising = |t: u32| f64::from(t) * 1.7 + f64::from(t % 5) * 0.3;
        let samples = 3 * REBUILD_PERIOD;
        for func in [WindowFunc::Rate, WindowFunc::Increase] {
            let (window, _, stats) = slide(func, (0..samples).map(rising), 60_000, 1_000);
            assert!(!window.incremental);
            assert_eq!(window.pairs, RunningSum::default(), "the pair sum is never touched");
            assert_eq!((stats.irregular_series, stats.window_rebuilds), (0, 0));
            assert_eq!(stats.samples_decoded, u64::from(samples));
        }
        // Equal neighbours are regular; so is a series too short for a pair.
        for values in [vec![4.0; 40], vec![1.5]] {
            let (window, _, stats) = slide(WindowFunc::Rate, values, 5_000, 1_000);
            assert!(!window.incremental && stats.irregular_series == 0);
        }
    }

    #[test]
    fn one_irregular_pair_anywhere_sends_the_series_down_the_incremental_road() {
        let len = 50;
        // What sample `at` reads, given the value before it.
        type Bend = fn(f64) -> f64;
        let irregular: [(&str, Bend); 5] = [
            ("reset", |before| before - 1.0),
            ("nan", |_| f64::NAN),
            ("inf", |_| f64::INFINITY),
            ("-inf", |_| f64::NEG_INFINITY),
            // −MAX up to `at`, MAX from it: finite on both sides and rising,
            // but by more than an `f64` holds.
            ("overflow", |_| f64::MAX),
        ];
        for (what, bend) in irregular {
            // The first pair, a middle one and the last.
            for at in [1, len / 2, len - 1] {
                let values = (0..len).map(|t| {
                    let rising = f64::from(t) * 2.5;
                    match what {
                        "overflow" if t < at => -f64::MAX,
                        "overflow" => f64::MAX,
                        _ if t == at => bend(rising - 2.5),
                        _ => rising,
                    }
                });
                let (window, _, stats) = slide(WindowFunc::Increase, values, 10_000, 1_000);
                assert!(window.incremental, "{what} at {at}");
                assert_eq!(stats.irregular_series, 1, "{what} at {at}");
                assert_ne!(window.pairs, RunningSum::default(), "{what} at {at}");
            }
        }
        // The other functions do not ask: the count is of `rate`/`increase`
        // series only.
        let sawtooth = |t: u32| f64::from(t % 7);
        for func in [WindowFunc::Sum, WindowFunc::Max, WindowFunc::Last, WindowFunc::Quantile(0.5)]
        {
            let (_, _, stats) = slide(func, (0..len).map(sawtooth), 10_000, 1_000);
            assert_eq!(stats.irregular_series, 0);
        }
    }

    #[test]
    fn irregular_series_cost_their_samples_and_steps_not_their_windows() {
        // A sawtooth gauge and an all-NaN series under `rate()`, a 300-sample
        // window slid one sample at a time: summing each window afresh would
        // read `steps × window` = 6 M positions.  Both indices cross every
        // sample once, and a rebuild re-reads one window per rebuild period.
        let samples = 20_000u32;
        type Shape = fn(u32) -> f64;
        let shapes: [(&str, Shape); 3] = [
            ("sawtooth", |t| f64::from(t % 7) * 1e3 + 0.25),
            ("all NaN", |_| f64::NAN),
            ("counter", |t| f64::from(t) * 0.75),
        ];
        for (what, shape) in shapes {
            for func in [WindowFunc::Rate, WindowFunc::Increase] {
                let (window, grid, stats) = slide(func, (0..samples).map(shape), 300_000, 1_000);
                assert_eq!(stats.irregular_series, u64::from(what != "counter"), "{what}");
                let linear = u64::from(samples) + grid.steps as u64;
                assert!(
                    window.touched <= 3 * linear,
                    "{what}: touched {} positions for {samples} samples and {} steps",
                    window.touched,
                    grid.steps
                );
            }
        }
    }

    #[test]
    fn running_sums_recover_from_non_finite_values() {
        let db = TimeSeriesDb::new();
        let values = [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY, 4.0, 5.0, 6.0];
        for (t, v) in values.iter().enumerate() {
            db.append("weird", &Labels::new(), t as u64 * 1_000, *v);
        }
        let engine = QueryEngine::new(db.clone());
        for query in [
            "sum_over_time(weird[2s])",
            "avg_over_time(weird[3s])",
            "min_over_time(weird[2s])",
            "max_over_time(weird[2s])",
            "increase(weird[2s])",
        ] {
            let expr = parse(query).unwrap();
            let plan = plan_or_reason(&db, 300_000, &expr, 0, 8_000).unwrap();
            let streamed = plan.run(0, 8_000, 1_000);
            let oracle = engine.range_per_step(&expr, 0, 8_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
    }
}
