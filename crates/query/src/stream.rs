//! Streaming query evaluation, series by series.
//!
//! A step-major evaluator re-runs the whole instant pipeline at every step:
//! a 1 h / 15 s-step `rate(m[5m])` query extracts and re-aggregates ~240
//! overlapping 5 m windows per series, so its cost is `O(steps × window)`.
//! This module evaluates **series-major** instead: one series at a time is
//! taken across the *whole* step grid before the next one is touched.  It
//! answers every query — a range query over its grid, an instant query as a
//! grid of one step.
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
//! on; against a per-step scalar (`scalar(v)`, whose node folds its input's
//! columns into one — the one present value a step, NaN for none or
//! several) it first takes that scalar's one column.  `Group` folds each
//! child column into its row of a `groups × steps`
//! accumulator through a slot→group table computed at plan time, and emits
//! the rows as columns once its child is done.  `Join` (vector-vector
//! matching on identical label sets) buffers the right-hand columns some
//! left-hand slot matches — the lhs→rhs table is fixed at plan time — then
//! combines each left-hand column with its partner step by step as it
//! streams past.  The root turns each column into a [`RangeSeries`].
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
//! one column per pipeline stage, the `groups × steps` accumulators, a
//! join's matched right-hand columns, and the result being built — never
//! `series × steps` intermediate cells of a leaf, and never more than one
//! series decoded at a time.
//!
//! [`plan_or_reason`] plans every well-typed expression and refuses the rest
//! with a typed [`EvalError`] before anything is decoded: a range function
//! over something that is not a range selector, an aggregation or a
//! `scalar()` over a scalar, a range vector outside a range function, a
//! quantile outside
//! `[0, 1]`, two right-hand series of a vector-vector operation with one
//! label set, and output series that collide once the metric name is
//! dropped.  A step-major evaluator lives on as test support
//! (`crates/query/tests/support`), the oracle the equivalence suites hold
//! this one to: results match it exactly except for floating-point
//! association in the running sums — and the single subtraction that stands
//! for a regular counter's pair sum — which can differ in the last bits; the
//! sums monitor their own accumulated error bound and rebuild exactly from
//! the live window when cancellation (e.g. a huge sample leaving the window)
//! would make the drift visible.

use std::collections::{BTreeMap, VecDeque};

use teemon_metrics::Labels;
use teemon_tsdb::{Sample, SampleRange, Selector, TimeSeriesDb};

use crate::ast::{AggregateOp, BinOp, Expr, Grouping, RangeFunc};
use crate::eval::{EvalError, RangeSeries};

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
/// chunk snapshots each leaf's sample ranges decode.
pub struct StreamPlan {
    pub(crate) kind: PlanKind,
}

pub(crate) enum PlanKind {
    /// A constant scalar expression: one label-less series, present at every
    /// step.
    Scalar(f64),
    /// A scalar with a value per step (`scalar(v)` and arithmetic on it):
    /// one label-less series, present at every step.
    Steps(Node),
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
    /// than `crate::QueryEngine::MAX_RANGE_STEPS`).
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
        let scalar = match self.kind {
            PlanKind::Scalar(value) => vec![value; grid.steps],
            PlanKind::Steps(root) => root.column(&grid, &mut stats),
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
                    points.extend(grid.times().zip(column.iter()).filter_map(
                        |(timestamp_ms, v)| v.map(|value| Sample { timestamp_ms, value }),
                    ));
                    series.push(RangeSeries { name, labels, points });
                });
                // The per-step accumulator returns series sorted by key (keys
                // are unique — `plan_or_reason` refuses collisions).
                series.sort_unstable_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
                return (series, stats);
            }
        };
        let points =
            grid.times().zip(scalar).map(|(timestamp_ms, value)| Sample { timestamp_ms, value });
        (vec![RangeSeries { name: None, labels: Labels::new(), points: points.collect() }], stats)
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

/// Compiles `expr` into a streaming plan over `[start_ms, end_ms]`, or
/// reports why the expression cannot be evaluated.  `lookback_ms` is the
/// engine's instant-selector staleness window; `start_ms`/`end_ms` bound the
/// sample range the leaves will ever decode.  Every refusal is made here,
/// before anything is decoded, and where an expression has several faults
/// the one reported is the one a left-to-right evaluation meets first.
///
/// # Errors
///
/// [`EvalError::RangeRequired`], [`EvalError::VectorRequired`],
/// [`EvalError::UnexpectedRange`] (a bare `m[5m]` included — only an instant
/// query has a value for it) and [`EvalError::InvalidQuantile`] for an
/// ill-typed expression; [`EvalError::ManyToOneMatch`] when two right-hand
/// series of a vector-vector operation share a label set; and
/// [`EvalError::DuplicateSeries`] when two output series share a key once
/// the metric name is dropped.
pub fn plan_or_reason(
    db: &TimeSeriesDb,
    lookback_ms: u64,
    expr: &Expr,
    start_ms: u64,
    end_ms: u64,
) -> Result<StreamPlan, EvalError> {
    let (root, keys) = match plan(db, lookback_ms, expr, start_ms, end_ms)? {
        Planned::Scalar(value) => return Ok(StreamPlan { kind: PlanKind::Scalar(value) }),
        Planned::Steps(root) => return Ok(StreamPlan { kind: PlanKind::Steps(root) }),
        Planned::Vector(root, keys) => (root, keys),
        Planned::Range => return Err(EvalError::UnexpectedRange),
    };
    // Two output series with one key would be one series with two values at
    // a step.
    let mut sorted: Vec<&SeriesKey> = keys.iter().collect();
    sorted.sort();
    let collision = sorted.windows(2).find_map(|pair| match pair {
        [a, b] if a == b => Some(a.1.clone()),
        _ => None,
    });
    if let Some(labels) = collision {
        return Err(EvalError::DuplicateSeries(labels));
    }
    Ok(StreamPlan { kind: PlanKind::Vector { root, keys } })
}

/// What a subexpression plans to: the types of the instant evaluation.
enum Planned {
    Scalar(f64),
    /// A scalar per step: a node emitting one column, present at every step.
    Steps(Node),
    Vector(Node, Vec<SeriesKey>),
    /// A range selector, which only a range function may consume.
    Range,
}

fn plan(
    db: &TimeSeriesDb,
    lookback_ms: u64,
    expr: &Expr,
    start_ms: u64,
    end_ms: u64,
) -> Result<Planned, EvalError> {
    // One sample range per selected series over the window's reach.
    let leaf = |selector: &Selector, window_ms: u64, func, keep_name: bool| {
        let mut keys = Vec::new();
        let mut ranges = Vec::new();
        for snapshot in db.select(selector) {
            keys.push((keep_name.then(|| snapshot.name().to_string()), snapshot.to_labels()));
            ranges.push(snapshot.range(start_ms.saturating_sub(window_ms), end_ms));
        }
        Planned::Vector(Node::Windows { ranges, window_ms, func }, keys)
    };
    Ok(match expr {
        Expr::Number(n) => Planned::Scalar(*n),
        // An instant selector is `last_over_time` over the lookback window,
        // with the metric name kept.
        Expr::Selector(selector) => leaf(selector, lookback_ms, WindowFunc::Last, true),
        Expr::Range { .. } => Planned::Range,
        // A range function over a range selector: one window slid over each
        // series in turn; the name is dropped (function semantics).
        Expr::Call { func, param, arg } => {
            let Expr::Range { selector, window_ms } = &**arg else {
                // The argument's own faults come first.
                plan(db, lookback_ms, arg, start_ms, end_ms)?;
                return Err(EvalError::RangeRequired(*func));
            };
            if let Some(q) = param.filter(|q| !(0.0..=1.0).contains(q)) {
                return Err(EvalError::InvalidQuantile(q));
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
            leaf(selector, *window_ms, func, false)
        }
        // Grouped aggregation: the slot→group table and the group label sets
        // are fixed by the child's (plan-time) universe.
        Expr::Aggregate { op, grouping, expr } => {
            let Planned::Vector(child, child_keys) = plan(db, lookback_ms, expr, start_ms, end_ms)?
            else {
                return Err(EvalError::VectorRequired("aggregation"));
            };
            let (slot_group, keys) = group_slots(grouping, &child_keys);
            let groups = keys.len();
            Planned::Vector(
                Node::Group { input: Box::new(child), op: *op, slot_group, groups },
                keys,
            )
        }
        // The value of a one-element vector, NaN otherwise, at every step.
        Expr::Scalar(arg) => {
            let Planned::Vector(input, _) = plan(db, lookback_ms, arg, start_ms, end_ms)? else {
                return Err(EvalError::VectorRequired("scalar"));
            };
            Planned::Steps(Node::Scalar { input: Box::new(input) })
        }
        // Arithmetic drops the metric name; comparisons filter and keep it.
        // Between two scalars a comparison is 1 or 0.
        Expr::Binary { op, lhs, rhs } => {
            let op = *op;
            let map = |input, keys: Option<Vec<SeriesKey>>, scalar, scalar_left| {
                let filter = keys.is_some() && op.is_comparison();
                let node = Node::Map { input: Box::new(input), op, scalar, scalar_left, filter };
                match keys {
                    Some(keys) => {
                        Planned::Vector(node, keys.into_iter().map(|key| rename(op, key)).collect())
                    }
                    None => Planned::Steps(node),
                }
            };
            let steps = |node| Operand::Steps(Box::new(node));
            match (
                plan(db, lookback_ms, lhs, start_ms, end_ms)?,
                plan(db, lookback_ms, rhs, start_ms, end_ms)?,
            ) {
                (Planned::Range, _) | (_, Planned::Range) => {
                    return Err(EvalError::UnexpectedRange)
                }
                (Planned::Scalar(a), Planned::Scalar(b)) => Planned::Scalar(op.apply(a, b)),
                (Planned::Vector(lhs, lhs_keys), Planned::Vector(rhs, rhs_keys)) => {
                    join(op, (lhs, lhs_keys), (rhs, rhs_keys))?
                }
                (Planned::Vector(input, keys), Planned::Scalar(c)) => {
                    map(input, Some(keys), Operand::Const(c), false)
                }
                (Planned::Scalar(c), Planned::Vector(input, keys)) => {
                    map(input, Some(keys), Operand::Const(c), true)
                }
                (Planned::Vector(input, keys), Planned::Steps(other)) => {
                    map(input, Some(keys), steps(other), false)
                }
                (Planned::Steps(other), Planned::Vector(input, keys)) => {
                    map(input, Some(keys), steps(other), true)
                }
                (Planned::Steps(input), Planned::Scalar(c)) => {
                    map(input, None, Operand::Const(c), false)
                }
                (Planned::Scalar(c), Planned::Steps(input)) => {
                    map(input, None, Operand::Const(c), true)
                }
                (Planned::Steps(input), Planned::Steps(other)) => {
                    map(input, None, steps(other), false)
                }
            }
        }
    })
}

/// The slot→group table of an aggregation over `child_keys`, and the group
/// keys in sorted order (group `g` is the `g`-th smallest key).  The slots
/// are sorted by their group key and numbered run by run, so each key is
/// built once and moved, not cloned, into its group.
fn group_slots(grouping: &Grouping, child_keys: &[SeriesKey]) -> (Vec<usize>, Vec<SeriesKey>) {
    let mut slot_keys: Vec<Labels> =
        child_keys.iter().map(|(_, labels)| grouping.key_for(labels)).collect();
    let mut order: Vec<usize> = (0..slot_keys.len()).collect();
    order.sort_unstable_by(|&a, &b| slot_keys.get(a).cmp(&slot_keys.get(b)));
    let mut slot_group = vec![0; slot_keys.len()];
    let mut keys: Vec<SeriesKey> = Vec::new();
    for slot in order {
        let Some(key) = slot_keys.get_mut(slot) else { continue };
        if keys.last().is_none_or(|(_, last)| last != key) {
            keys.push((None, std::mem::take(key)));
        }
        if let Some(group) = slot_group.get_mut(slot) {
            *group = keys.len() - 1;
        }
    }
    (slot_group, keys)
}

/// The key a binary operation gives its vector side's series: arithmetic
/// drops the metric name, a comparison keeps it.
fn rename(op: BinOp, (name, labels): SeriesKey) -> SeriesKey {
    (name.filter(|_| op.is_comparison()), labels)
}

/// Vector-vector matching on identical label sets, names ignored: a
/// left-hand series survives when some right-hand series has its labels.
fn join(
    op: BinOp,
    (lhs, lhs_keys): (Node, Vec<SeriesKey>),
    (rhs, rhs_keys): (Node, Vec<SeriesKey>),
) -> Result<Planned, EvalError> {
    // Several right-hand series with one label set would make the match
    // ambiguous.
    let mut partner: BTreeMap<&Labels, usize> = BTreeMap::new();
    for (slot, (_, labels)) in rhs_keys.iter().enumerate() {
        if partner.insert(labels, slot).is_some() {
            return Err(EvalError::ManyToOneMatch(labels.clone()));
        }
    }
    // Only the right-hand slots some left-hand slot matches get a buffer row,
    // numbered in the order they are first matched.
    let mut rhs_rows: Vec<Option<usize>> = vec![None; rhs_keys.len()];
    let mut rows = 0;
    let mut lhs_rows = Vec::with_capacity(lhs_keys.len());
    let mut keys = Vec::new();
    for (name, labels) in lhs_keys {
        let row = partner.get(&labels).and_then(|&slot| rhs_rows.get_mut(slot)).map(|row| {
            *row.get_or_insert_with(|| {
                rows += 1;
                rows - 1
            })
        });
        if row.is_some() {
            keys.push(rename(op, (name, labels)));
        }
        lhs_rows.push(row);
    }
    let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
    Ok(Planned::Vector(Node::Join { lhs, rhs, op, lhs_rows, rhs_rows, rows }, keys))
}

/// One operator of the streaming pipeline.  [`Node::emit`] hands the node's
/// output columns to `sink` one series at a time, in slot order.
pub(crate) enum Node {
    /// The leaves: one stored sample range per series, all sliding the same
    /// window function over the same window length.
    Windows { ranges: Vec<SampleRange>, window_ms: u64, func: WindowFunc },
    /// Arithmetic or comparison against a scalar, on the side `scalar_left`
    /// says; a comparison keeps the input's value where it holds when
    /// `filter` is set (a vector input), and is 1 or 0 when not (a scalar).
    Map { input: Box<Node>, op: BinOp, scalar: Operand, scalar_left: bool, filter: bool },
    /// `scalar()`: one column, the input's one present value at a step and
    /// NaN where it has none or several.
    Scalar { input: Box<Node> },
    /// Grouped cross-series aggregation via a plan-time slot→group table.
    Group { input: Box<Node>, op: AggregateOp, slot_group: Vec<usize>, groups: usize },
    /// Vector-vector arithmetic or filtering comparison.  `rhs_rows` gives
    /// each right-hand slot its row in the buffer of `rows` matched columns
    /// (`None`: no left-hand slot wants it), `lhs_rows` each left-hand slot
    /// the row of its partner (`None`: unmatched, so no output series).
    Join {
        lhs: Box<Node>,
        rhs: Box<Node>,
        op: BinOp,
        lhs_rows: Vec<Option<usize>>,
        rhs_rows: Vec<Option<usize>>,
        rows: usize,
    },
}

/// Receives one output column — a series' value at every step of the grid,
/// `None` meaning absent — per call, in slot order.  The column is scratch
/// the callee may rewrite; it is reused for the next series.
type ColumnSink<'a> = &'a mut dyn FnMut(&mut [Option<f64>]);

impl Node {
    /// Series this node emits, resolved at plan time.
    pub(crate) fn series(&self) -> usize {
        match self {
            Node::Windows { ranges, .. } => ranges.len(),
            Node::Map { input, .. } => input.series(),
            Node::Scalar { .. } => 1,
            Node::Group { groups, .. } => *groups,
            Node::Join { lhs_rows, .. } => lhs_rows.iter().flatten().count(),
        }
    }

    /// The value at every step of a node that emits one column present at
    /// every step: a scalar's.
    fn column(self, grid: &Grid, stats: &mut RunStats) -> Vec<f64> {
        let mut values = vec![f64::NAN; grid.steps];
        self.emit(grid, stats, &mut |column| {
            for (value, cell) in values.iter_mut().zip(column.iter()) {
                *value = cell.unwrap_or(f64::NAN);
            }
        });
        values
    }

    fn emit(self, grid: &Grid, stats: &mut RunStats, sink: ColumnSink<'_>) {
        match self {
            Node::Windows { ranges, window_ms, func } => {
                let mut window = Window::new(window_ms, func);
                let mut column = vec![None; grid.steps];
                for range in ranges {
                    window.evaluate_series(&range, grid, &mut column, stats);
                    sink(&mut column);
                }
            }
            Node::Map { input, op, scalar, scalar_left, filter } => {
                let scalar = match scalar {
                    Operand::Const(value) => vec![value; grid.steps],
                    Operand::Steps(node) => node.column(grid, stats),
                };
                input.emit(grid, stats, &mut |column| {
                    for (slot, &scalar) in column.iter_mut().zip(&scalar) {
                        *slot = slot.and_then(|v| {
                            let (lhs, rhs) = if scalar_left { (scalar, v) } else { (v, scalar) };
                            if filter {
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
            Node::Scalar { input } => {
                let mut only = vec![(0u32, f64::NAN); grid.steps];
                input.emit(grid, stats, &mut |column| {
                    for ((count, value), cell) in only.iter_mut().zip(column.iter()) {
                        if let Some(v) = *cell {
                            *count += 1;
                            *value = v;
                        }
                    }
                });
                let mut column: Vec<Option<f64>> = only
                    .into_iter()
                    .map(|(count, value)| Some(if count == 1 { value } else { f64::NAN }))
                    .collect();
                sink(&mut column);
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
            Node::Join { lhs, rhs, op, lhs_rows, rhs_rows, rows } => {
                let steps = grid.steps;
                let mut buffer = vec![None; rows * steps];
                let mut rhs_rows = rhs_rows.iter();
                rhs.emit(grid, stats, &mut |column| {
                    let Some(&Some(row)) = rhs_rows.next() else { return };
                    if let Some(cells) = buffer.get_mut(row * steps..(row + 1) * steps) {
                        cells.copy_from_slice(column);
                    }
                });
                let mut lhs_rows = lhs_rows.iter();
                lhs.emit(grid, stats, &mut |column| {
                    let Some(&Some(row)) = lhs_rows.next() else { return };
                    let Some(partner) = buffer.get(row * steps..(row + 1) * steps) else { return };
                    for (slot, other) in column.iter_mut().zip(partner) {
                        // A step where either side is absent is absent.
                        *slot = match (*slot, *other) {
                            (Some(l), Some(r)) if op.is_comparison() => {
                                op.compare(l, r).then_some(l)
                            }
                            (Some(l), Some(r)) => Some(op.apply(l, r)),
                            _ => None,
                        };
                    }
                    sink(column);
                });
            }
        }
    }
}

/// The scalar side of a [`Node::Map`].
pub(crate) enum Operand {
    /// A constant.
    Const(f64),
    /// A scalar per step: the one column its node emits.
    Steps(Box<Node>),
}

/// The aggregate a [`Window`] maintains.
#[derive(Clone, Copy)]
pub(crate) enum WindowFunc {
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
    /// every step `t` of `grid` for the series behind `range` (`None` where
    /// it is undefined), and adds the work done to `stats`.
    fn evaluate_series(
        &mut self,
        range: &SampleRange,
        grid: &Grid,
        column: &mut [Option<f64>],
        stats: &mut RunStats,
    ) {
        self.samples.clear();
        range.read_into(&mut self.samples);
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
        // The entry edge's last move, in samples.
        let mut stride = 0;
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
                // The same two edges, on timestamps alone.  At a steady
                // cadence every step moves both edges by the same number of
                // samples, so each edge first jumps by the entry edge's last
                // move, if the last sample it jumps over is behind it.
                let from = entry;
                let jump = entry + stride;
                if stride > 0 && self.samples.get(jump - 1).is_some_and(|s| s.timestamp_ms <= t) {
                    entry = jump;
                }
                while self.samples.get(entry).is_some_and(|s| s.timestamp_ms <= t) {
                    entry += 1;
                }
                stride = entry - from;
                let jump = exit + stride;
                if stride > 0
                    && self.samples.get(jump - 1).is_some_and(|s| s.timestamp_ms < window_start)
                {
                    exit = jump;
                }
                while exit < entry
                    && self.samples.get(exit).is_some_and(|s| s.timestamp_ms < window_start)
                {
                    exit += 1;
                }
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

/// The contribution of one adjacent counter-sample pair to `increase()` /
/// `rate()`, handling counter resets the way Prometheus does: a decrease
/// means the counter restarted, so the post-reset value *is* the increase.
fn reset_adjusted_delta(prev: f64, next: f64) -> f64 {
    if next >= prev {
        next - prev
    } else {
        next
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

/// Exact interpolated quantile (`0 ≤ q ≤ 1`) of values already sorted by
/// [`f64::total_cmp`] — so `NaN`s sit after every finite value, upper
/// quantiles of a window holding one are `NaN` and lower ones stay
/// meaningful; `None` for an empty slice.
fn quantile_of_sorted(values: &[f64], q: f64) -> Option<f64> {
    let last = values.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lower, upper) = (pos.floor() as usize, pos.ceil() as usize);
    let (low, high) = (*values.get(lower)?, *values.get(upper)?);
    Some(if lower == upper {
        low
    } else {
        let w = pos - lower as f64;
        low * (1.0 - w) + high * w
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::support::{self, ranges_equivalent};
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
        let oracle = support::range(&engine, &expr, start, end, step).unwrap();
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
    fn ill_typed_shapes_are_refused_at_plan_time() {
        let database = db();
        let plan = |q: &str| plan_or_reason(&database, 300_000, &parse(q).unwrap(), 0, 100_000);
        let refused = |q: &str| plan(q).err();
        assert_eq!(
            refused("rate(requests_total)"),
            Some(EvalError::RangeRequired(RangeFunc::Rate))
        );
        assert_eq!(refused("sum(2)"), Some(EvalError::VectorRequired("aggregation")));
        assert_eq!(
            refused("sum(queue_depth[30s])"),
            Some(EvalError::VectorRequired("aggregation"))
        );
        assert_eq!(
            refused("quantile_over_time(1.5, queue_depth[30s])"),
            Some(EvalError::InvalidQuantile(1.5))
        );
        assert_eq!(refused("requests_total[30s]"), Some(EvalError::UnexpectedRange));
        assert_eq!(refused("1 + queue_depth[30s]"), Some(EvalError::UnexpectedRange));
        // The fault a left-to-right evaluation meets first is the one reported.
        assert_eq!(refused("rate(queue_depth[30s] * 2)"), Some(EvalError::UnexpectedRange));
        assert_eq!(refused("rate(sum(2))"), Some(EvalError::VectorRequired("aggregation")));
        // Vector-vector matching streams.
        assert!(plan("requests_total + queue_depth").is_ok());
        // A name-dropping function over two metrics with identical label sets
        // would collide on the output key; a right-hand side with two such
        // series would match ambiguously.
        let dup = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for t in 0..10u64 {
            dup.append("metric_a", &labels, t * 1000, t as f64);
            dup.append("metric_b", &labels, t * 1000, t as f64 * 2.0);
        }
        let plan = |q: &str| plan_or_reason(&dup, 300_000, &parse(q).unwrap(), 0, 9_000);
        let collision = Some(EvalError::DuplicateSeries(labels.clone()));
        assert_eq!(plan("rate({node=\"n1\"}[10s])").err(), collision);
        assert_eq!(plan("metric_a + {node=\"n1\"}").err(), Some(EvalError::ManyToOneMatch(labels)));
        // But the same selector with names kept streams fine, and so does
        // a left-hand side with two series matching one partner.
        assert!(plan("{node=\"n1\"}").is_ok());
        assert!(plan("{node=\"n1\"} > metric_a").is_ok());
    }

    #[test]
    fn a_join_buffers_only_the_right_hand_columns_it_matches() {
        // `queue_depth` has n1 and n2, the right-hand side n2 and n3: one
        // buffered column, one output series.
        let database = db();
        for t in 0..50u64 {
            let labels = Labels::from_pairs([("node", "n3")]);
            database.append("requests_total", &labels, t * 5_000, t as f64);
        }
        let expr = parse("queue_depth - requests_total{node!=\"n1\"}").unwrap();
        let plan = plan_or_reason(&database, 300_000, &expr, 0, 245_000).unwrap();
        let PlanKind::Vector { root: Node::Join { lhs_rows, rhs_rows, rows, .. }, keys } =
            &plan.kind
        else {
            panic!("a join at the root");
        };
        let matched = |rows: &[Option<usize>]| rows.iter().flatten().copied().collect::<Vec<_>>();
        assert_eq!((matched(lhs_rows), matched(rhs_rows), *rows), (vec![0], vec![0], 1));
        assert_eq!((lhs_rows.len(), rhs_rows.len()), (2, 2));
        assert_eq!(keys, &[(None, Labels::from_pairs([("node", "n2")]))]);
        let streamed = plan.run(0, 245_000, 5_000);
        let oracle = support::range(&QueryEngine::new(database), &expr, 0, 245_000, 5_000).unwrap();
        assert!(ranges_equivalent(&streamed, &oracle), "{streamed:?}\n{oracle:?}");
        assert_eq!(streamed[0].points.len(), 50);
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
            let oracle = support::range(&engine, &expr, 0, 4_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
        // Spot-check the headline case: sum over [2s,3s] and [3s,4s] windows.
        let expr = parse("sum_over_time(m[1s])").unwrap();
        let streamed = plan_or_reason(&db, 300_000, &expr, 0, 4_000).unwrap().run(0, 4_000, 1_000);
        assert_eq!(streamed[0].points[3], Sample { timestamp_ms: 3_000, value: 5.0 });
        assert_eq!(streamed[0].points[4], Sample { timestamp_ms: 4_000, value: 7.0 });

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
            let oracle = support::range(&engine, &expr, 0, 3_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
        let summed = engine.range_query("sum_over_time(m[1s])", 0, 3_000, 1_000).unwrap();
        let recovered = Sample { timestamp_ms: 3_000, value: 11.0 };
        assert_eq!(summed[0].points[3], recovered, "must recover from inf");
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
        window.evaluate_series(&series.range(0, end), &grid, &mut column, &mut stats);
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
            let oracle = support::range(&engine, &expr, 0, 8_000, 1_000).unwrap();
            assert!(
                ranges_equivalent(&streamed, &oracle),
                "`{query}`\nstreamed: {streamed:?}\noracle: {oracle:?}"
            );
        }
    }

    /// The quantile of `values` in any order.
    fn quantile(values: &[f64], q: f64) -> Option<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        quantile_of_sorted(&sorted, q)
    }

    #[test]
    fn quantiles_over_time() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), Some(0.0));
        assert_eq!(quantile(&values, 1.0), Some(99.0));
        let median = quantile(&values, 0.5).unwrap();
        assert!((median - 49.5).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_are_nan_safe() {
        // NaNs sort after every finite value under the IEEE total order, so
        // the result is deterministic no matter where the NaN sits.
        let with_nan = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&with_nan, 0.0), Some(1.0));
        // The median interpolates the two middle finite values: [1, 2, 3, NaN].
        let median = quantile(&with_nan, 0.5).unwrap();
        assert!((median - 2.5).abs() < 1e-9);
        assert!(quantile(&with_nan, 1.0).unwrap().is_nan());
        // A NaN in any position yields the same answers.
        let nan_first = [f64::NAN, 3.0, 1.0, 2.0];
        assert_eq!(quantile(&nan_first, 0.0), Some(1.0));
        assert!(quantile(&nan_first, 1.0).unwrap().is_nan());
    }
}
