//! `EXPLAIN` / `ANALYZE` for TeeQL range queries.
//!
//! [`QueryEngine::explain`] plans a query exactly as [`QueryEngine::range`]
//! would and reports the plan without running it: a tree mirroring the
//! expression, each node annotated with the number of series the planned
//! operator produces (read off the plan, whose selectors were resolved
//! against the storage index at explain time).  A query the planner refuses
//! is explained by its error.
//!
//! [`QueryEngine::analyze`] additionally runs the query through the
//! instrumented range funnel and attaches what actually happened: wall time,
//! chunk samples decoded, drift-guard window rebuilds, and the result shape.
//! The counters are the per-run view of the `teemon_query_*` probes — an
//! `analyze` call also feeds the global telemetry, exactly like `range`.

use std::fmt;

use crate::ast::{format_duration_ms, Expr, Grouping};
use crate::eval::{EvalError, QueryEngine, QueryError, RangeSeries};
use crate::parser::parse;
use crate::stream::{self, Node, Operand, PlanKind};

/// One node of an explained plan, mirroring the expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Human-readable operator description (`selector m{..}`,
    /// `rate over 30s windows`, `sum by (node)`, …).
    pub label: String,
    /// Series this node produces, resolved against the index at explain
    /// time (concurrent ingestion may shift it by run time).
    pub series: usize,
    /// Input operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        writeln!(f, "{:indent$}- {} → {} series", "", self.label, self.series, indent = depth * 2)?;
        for child in &self.children {
            child.render(f, depth + 1)?;
        }
        Ok(())
    }
}

/// The planned-but-not-run view of a query ([`QueryEngine::explain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// The query, rendered back from the parsed expression.
    pub query: String,
    /// The annotated plan tree (root = whole expression).
    pub root: PlanNode,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.query)?;
        self.root.render(f, 0)
    }
}

/// The ran-and-measured view of a query ([`QueryEngine::analyze`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Analyze {
    /// The plan, as [`QueryEngine::explain`] reports it.
    pub explain: Explain,
    /// Measured wall time of the evaluation in seconds.
    pub wall_seconds: f64,
    /// Chunk samples decoded by the window machines.
    pub samples_decoded: u64,
    /// Drift-guard window-aggregate rebuilds.
    pub window_rebuilds: u64,
    /// Series under `rate`/`increase` that held a reset or a non-finite value
    /// in the decoded range and so kept a running pair sum, where a regular
    /// counter's windows are read off their end points: a counter that
    /// restarts every few minutes, or a gauge wrapped in `rate()`.
    pub irregular_series: u64,
    /// The evaluated range series.
    pub result: Vec<RangeSeries>,
}

impl Analyze {
    /// Series in the result.
    pub fn series_returned(&self) -> usize {
        self.result.len()
    }

    /// Points across all result series.
    pub fn points_returned(&self) -> u64 {
        self.result.iter().map(|s| s.points.len() as u64).sum()
    }
}

impl fmt::Display for Analyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain)?;
        writeln!(
            f,
            "wall: {:.6}s, decoded: {} samples, rebuilds: {}, irregular: {} series, \
             result: {} series / {} points",
            self.wall_seconds,
            self.samples_decoded,
            self.window_rebuilds,
            self.irregular_series,
            self.series_returned(),
            self.points_returned(),
        )
    }
}

impl QueryEngine {
    /// Explains how `query` would be evaluated over `[start_ms, end_ms]`
    /// without running it: the plan tree with per-node series counts
    /// (planning resolves selectors against the index, so this is cheap but
    /// not free).
    ///
    /// # Errors
    ///
    /// Returns the parse error, or the planner's error for a query it
    /// refuses ([`stream::plan_or_reason`]).
    pub fn explain(&self, query: &str, start_ms: u64, end_ms: u64) -> Result<Explain, QueryError> {
        let expr = parse(query)?;
        Ok(self.explain_expr(&expr, start_ms, end_ms)?)
    }

    /// [`QueryEngine::explain`] over an already-parsed expression.
    ///
    /// # Errors
    ///
    /// Returns the planner's error for an expression it refuses.
    pub(crate) fn explain_expr(
        &self,
        expr: &Expr,
        start_ms: u64,
        end_ms: u64,
    ) -> Result<Explain, EvalError> {
        let plan =
            stream::plan_or_reason(self.db(), Self::DEFAULT_LOOKBACK_MS, expr, start_ms, end_ms)?;
        let root = match &plan.kind {
            PlanKind::Scalar(value) => constant(*value),
            PlanKind::Steps(root) | PlanKind::Vector { root, .. } => annotate(expr, root),
        };
        Ok(Explain { query: expr.to_string(), root })
    }

    /// Runs `query` over `[start_ms, end_ms]` at `step_ms` like
    /// [`QueryEngine::range_query`] and reports the plan together with what
    /// the run actually did (wall time, samples decoded, window rebuilds).
    /// Feeds the `teemon_query_*` probes exactly like a normal range query.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the evaluation error.
    pub fn analyze(
        &self,
        query: &str,
        start_ms: u64,
        end_ms: u64,
        step_ms: u64,
    ) -> Result<Analyze, QueryError> {
        let expr = parse(query)?;
        let explain = self.explain_expr(&expr, start_ms, end_ms)?;
        let (result, run) = self.range_with_run(&expr, start_ms, end_ms, step_ms)?;
        Ok(Analyze {
            explain,
            wall_seconds: run.wall_seconds,
            samples_decoded: run.stats.samples_decoded,
            window_rebuilds: run.stats.window_rebuilds,
            irregular_series: run.stats.irregular_series,
            result,
        })
    }
}

/// Labels `expr`'s nodes top-down with the series counts of the plan node
/// that evaluates each: the planner compiled `plan` from `expr`, so the two
/// trees have one shape, except that a range function and its range selector
/// are one leaf, and that a constant operand is folded into its operator.
fn annotate(expr: &Expr, plan: &Node) -> PlanNode {
    let series = plan.series();
    match (expr, plan) {
        (Expr::Selector(selector), _) => node(format!("selector {selector}"), series, Vec::new()),
        (Expr::Call { func, param, arg }, _) => {
            let range = match &**arg {
                Expr::Range { selector, window_ms } => {
                    format!("range {selector} over {} windows", format_duration_ms(*window_ms))
                }
                other => other.to_string(),
            };
            let label = match param {
                Some(p) => format!("{func}({p}, ·)"),
                None => format!("{func}(·)"),
            };
            node(label, series, vec![node(range, series, Vec::new())])
        }
        (Expr::Aggregate { op, grouping, expr }, Node::Group { input, .. }) => {
            let label = match grouping {
                Grouping::None => format!("{op}(·)"),
                _ => format!("{op} {grouping} (·)"),
            };
            node(label, series, vec![annotate(expr, input)])
        }
        (Expr::Scalar(arg), Node::Scalar { input }) => {
            node("scalar(·)".to_string(), series, vec![annotate(arg, input)])
        }
        (Expr::Binary { op, lhs, rhs }, Node::Map { input, scalar, scalar_left, .. }) => {
            let (input_expr, scalar_expr) = if *scalar_left { (rhs, lhs) } else { (lhs, rhs) };
            let scalar = match scalar {
                Operand::Const(value) => constant(*value),
                Operand::Steps(plan) => annotate(scalar_expr, plan),
            };
            let input = annotate(input_expr, input);
            let children = if *scalar_left { vec![scalar, input] } else { vec![input, scalar] };
            node(format!("binary {op}"), series, children)
        }
        (Expr::Binary { op, lhs, rhs }, Node::Join { lhs: left, rhs: right, .. }) => {
            let children = vec![annotate(lhs, left), annotate(rhs, right)];
            node(format!("binary {op}"), series, children)
        }
        // The planner pairs no other shapes.
        (other, _) => node(other.to_string(), series, Vec::new()),
    }
}

fn constant(value: f64) -> PlanNode {
    node(format!("scalar {value}"), 1, Vec::new())
}

fn node(label: String, series: usize, children: Vec<PlanNode>) -> PlanNode {
    PlanNode { label, series, children }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;
    use teemon_tsdb::TimeSeriesDb;

    fn db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..20u64 {
            for node in ["n1", "n2", "n3"] {
                db.append(
                    "requests_total",
                    &Labels::from_pairs([("node", node)]),
                    t * 5_000,
                    t as f64 * 10.0,
                );
            }
        }
        db
    }

    #[test]
    fn explain_reports_streamed_choice_and_series_counts() {
        let engine = QueryEngine::new(db());
        let explain =
            engine.explain("sum by (node) (rate(requests_total[30s]))", 0, 95_000).unwrap();
        assert_eq!(explain.root.series, 3, "three nodes, grouped by node");
        assert_eq!(explain.root.children.len(), 1);
        let rate = &explain.root.children[0];
        assert_eq!(rate.series, 3);
        assert_eq!(rate.children[0].series, 3, "selector matches 3 series");
        let rendered = explain.to_string();
        assert!(rendered.starts_with("sum by (node) (rate(requests_total[30s]))\n"), "{rendered}");
        assert!(rendered.contains("rate(·)"), "{rendered}");
    }

    #[test]
    fn explain_reports_the_planners_error() {
        let engine = QueryEngine::new(db());
        // Vector-vector matching on identical label sets: 3 ∩ 3 = 3.
        let explain = engine.explain("requests_total + requests_total", 0, 95_000).unwrap();
        assert_eq!(explain.root.series, 3);
        assert_eq!(explain.root.children.iter().map(|c| c.series).collect::<Vec<_>>(), [3, 3]);
        // A constant operand is one scalar.
        let explain = engine.explain("100 - sum(requests_total) * (1 + 1)", 0, 95_000).unwrap();
        let rendered = explain.to_string();
        assert!(rendered.contains("- scalar 2 → 1 series"), "{rendered}");
        assert!(rendered.contains("- scalar 100 → 1 series"), "{rendered}");
        // `scalar()` is one series over the vector it reads.
        let explain =
            engine.explain("requests_total / scalar(sum(requests_total)) * 2", 0, 95_000).unwrap();
        let rendered = explain.to_string();
        assert!(rendered.contains("\n    - scalar(·) → 1 series\n"), "{rendered}");
        assert!(rendered.contains("\n      - sum(·) → 1 series\n"), "{rendered}");
        assert!(rendered.contains("\n        - selector requests_total → 3 series"), "{rendered}");
        assert!(rendered.contains("\n  - scalar 2 → 1 series"), "{rendered}");
        assert_eq!(explain.root.series, 3);
        // An ill-typed query is explained by the error that refuses it.
        assert_eq!(
            engine.explain("rate(requests_total)", 0, 95_000),
            Err(QueryError::Eval(EvalError::RangeRequired(crate::RangeFunc::Rate)))
        );
        assert_eq!(
            engine.explain("requests_total[5m]", 0, 95_000),
            Err(QueryError::Eval(EvalError::UnexpectedRange))
        );
    }

    #[test]
    fn analyze_runs_and_reports_the_result_shape() {
        let engine = QueryEngine::new(db());
        let analyze = engine
            .analyze("sum by (node) (rate(requests_total[30s]))", 30_000, 90_000, 15_000)
            .unwrap();
        assert_eq!(analyze.series_returned(), 3);
        assert_eq!(analyze.points_returned(), 3 * 5, "steps at 30..=90 s");
        assert!(analyze.wall_seconds > 0.0);
        assert!(analyze.samples_decoded > 0);
        let rendered = analyze.to_string();
        assert!(rendered.contains("decoded"), "{rendered}");
    }

    #[test]
    fn parse_errors_propagate() {
        let engine = QueryEngine::new(db());
        assert!(engine.explain("rate(", 0, 1).is_err());
        assert!(engine.analyze("rate(", 0, 1, 1).is_err());
    }
}
