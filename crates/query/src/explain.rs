//! `EXPLAIN` / `ANALYZE` for TeeQL range queries.
//!
//! [`QueryEngine::explain`] compiles a query the same way
//! [`QueryEngine::range`] would and reports the resulting plan without
//! running it: a tree mirroring the expression, each node annotated with the
//! number of series it matches (resolved against the storage index at
//! explain time), plus the top-level evaluator choice — **streamed** or
//! **per-step fallback with the planner's reason**.  The streaming planner
//! is all-or-nothing, so the choice is a property of the whole expression,
//! not of individual nodes.
//!
//! [`QueryEngine::analyze`] additionally runs the query through the
//! instrumented range funnel and attaches what actually happened: wall time,
//! chunk samples decoded, drift-guard window rebuilds, and the result shape.
//! The counters are the per-run view of the `teemon_query_*` probes — an
//! `analyze` call also feeds the global telemetry, exactly like `range`.

use std::fmt;

use teemon_metrics::Labels;
use teemon_tsdb::TimeSeriesDb;

use crate::ast::{aggregate_op_name, format_duration_ms, Expr};
use crate::eval::{QueryEngine, QueryError, RangeSeries};
use crate::parser::parse;
use crate::stream;

/// Which evaluator answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The whole expression compiles into a series-major sliding-window
    /// plan: cost `O(samples touched)`.
    Streamed,
    /// The expression needs the per-step fallback (`O(steps × window)`),
    /// for the stated planner reason.
    FallbackPerStep {
        /// Why the streaming planner rejected the expression.
        reason: &'static str,
    },
}

impl fmt::Display for PlanChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanChoice::Streamed => f.write_str("streamed"),
            PlanChoice::FallbackPerStep { reason } => {
                write!(f, "per-step fallback ({reason})")
            }
        }
    }
}

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

/// The compiled-but-not-run view of a query ([`QueryEngine::explain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// The query, rendered back from the parsed expression.
    pub query: String,
    /// Streamed or fallback (with reason).
    pub choice: PlanChoice,
    /// The annotated plan tree (root = whole expression).
    pub root: PlanNode,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{}]", self.query, self.choice)?;
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
    /// Chunk samples decoded by the window machines (0 on the fallback
    /// path, which does not stream-decode).
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
    /// without running it: the plan tree with per-node series counts and the
    /// streamed-vs-fallback choice (planning resolves selectors against the
    /// index, so this is cheap but not free).
    ///
    /// # Errors
    ///
    /// Returns the parse error; explaining never evaluates, so evaluation
    /// errors surface as a fallback reason instead.
    pub fn explain(&self, query: &str, start_ms: u64, end_ms: u64) -> Result<Explain, QueryError> {
        let expr = parse(query)?;
        Ok(self.explain_expr(&expr, start_ms, end_ms))
    }

    /// [`QueryEngine::explain`] over an already-parsed expression.
    pub fn explain_expr(&self, expr: &Expr, start_ms: u64, end_ms: u64) -> Explain {
        let choice =
            match stream::plan_or_reason(self.db(), self.lookback_ms(), expr, start_ms, end_ms) {
                Ok(_) => PlanChoice::Streamed,
                Err(reason) => PlanChoice::FallbackPerStep { reason },
            };
        let (root, _) = annotate(self.db(), expr);
        Explain { query: expr.to_string(), choice, root }
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
        let explain = self.explain_expr(&expr, start_ms, end_ms);
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

/// Output identity of one series at explain time.
type Key = (Option<String>, Labels);

/// Annotates `expr` bottom-up: each node's label, the series keys it
/// produces (mirroring the evaluator's output identities), and its children.
fn annotate(db: &TimeSeriesDb, expr: &Expr) -> (PlanNode, Vec<Key>) {
    match expr {
        Expr::Number(n) => {
            (node(format!("scalar {n}"), 1, Vec::new()), vec![(None, Labels::new())])
        }
        Expr::Selector(selector) => {
            let keys: Vec<Key> = db
                .select(selector)
                .iter()
                .map(|s| (Some(s.name().to_string()), s.to_labels()))
                .collect();
            (node(format!("selector {selector}"), keys.len(), Vec::new()), keys)
        }
        Expr::Range { selector, window_ms } => {
            let keys: Vec<Key> = db
                .select(selector)
                .iter()
                .map(|s| (Some(s.name().to_string()), s.to_labels()))
                .collect();
            let label = format!("range {selector} over {} windows", format_duration_ms(*window_ms));
            (node(label, keys.len(), Vec::new()), keys)
        }
        Expr::Call { func, param, arg } => {
            let (child, child_keys) = annotate(db, arg);
            // Functions drop the metric name (PromQL semantics).
            let keys: Vec<Key> = child_keys.into_iter().map(|(_, labels)| (None, labels)).collect();
            let label = match param {
                Some(p) => format!("{func}({p}, ·)"),
                None => format!("{func}(·)"),
            };
            (node(label, keys.len(), vec![child]), keys)
        }
        Expr::Aggregate { op, grouping, expr } => {
            let (child, child_keys) = annotate(db, expr);
            let mut groups: Vec<Labels> =
                child_keys.iter().map(|(_, labels)| grouping.key_for(labels)).collect();
            groups.sort();
            groups.dedup();
            let keys: Vec<Key> = groups.into_iter().map(|labels| (None, labels)).collect();
            let label = match grouping {
                crate::ast::Grouping::None => format!("{}(·)", aggregate_op_name(*op)),
                _ => format!("{} {grouping} (·)", aggregate_op_name(*op)),
            };
            (node(label, keys.len(), vec![child]), keys)
        }
        Expr::Binary { op, lhs, rhs } => {
            let (left, left_keys) = annotate(db, lhs);
            let (right, right_keys) = annotate(db, rhs);
            let left_scalar = matches!(&**lhs, Expr::Number(_)) || is_const(lhs);
            let right_scalar = matches!(&**rhs, Expr::Number(_)) || is_const(rhs);
            // Mirror the evaluator's matching: scalar sides broadcast,
            // vector-vector matches one-to-one on identical label sets.
            let keys: Vec<Key> = if left_scalar && right_scalar {
                vec![(None, Labels::new())]
            } else if left_scalar || right_scalar {
                let vector = if left_scalar { right_keys } else { left_keys };
                if op.is_comparison() {
                    vector // comparisons filter, keeping identities
                } else {
                    vector.into_iter().map(|(_, labels)| (None, labels)).collect()
                }
            } else {
                left_keys
                    .into_iter()
                    .filter(|(_, labels)| right_keys.iter().any(|(_, r)| r == labels))
                    .map(
                        |(name, labels)| {
                            if op.is_comparison() {
                                (name, labels)
                            } else {
                                (None, labels)
                            }
                        },
                    )
                    .collect()
            };
            (node(format!("binary {op}"), keys.len(), vec![left, right]), keys)
        }
    }
}

/// `true` when the subtree folds to a constant (pure numbers and arithmetic).
fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) => true,
        Expr::Binary { lhs, rhs, .. } => is_const(lhs) && is_const(rhs),
        _ => false,
    }
}

fn node(label: String, series: usize, children: Vec<PlanNode>) -> PlanNode {
    PlanNode { label, series, children }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(explain.choice, PlanChoice::Streamed);
        assert_eq!(explain.root.series, 3, "three nodes, grouped by node");
        assert_eq!(explain.root.children.len(), 1);
        let rate = &explain.root.children[0];
        assert_eq!(rate.series, 3);
        assert_eq!(rate.children[0].series, 3, "selector matches 3 series");
        let rendered = explain.to_string();
        assert!(rendered.contains("[streamed]"), "{rendered}");
        assert!(rendered.contains("rate(·)"), "{rendered}");
    }

    #[test]
    fn explain_reports_fallback_reasons() {
        let engine = QueryEngine::new(db());
        let explain = engine.explain("requests_total + requests_total", 0, 95_000).unwrap();
        let PlanChoice::FallbackPerStep { reason } = explain.choice else {
            panic!("vector-vector must fall back");
        };
        assert!(reason.contains("vector-vector"), "{reason}");
        // Vector-vector matching on identical label sets: 3 ∩ 3 = 3.
        assert_eq!(explain.root.series, 3);
        assert!(explain.to_string().contains("per-step fallback"), "{}", explain.to_string());
    }

    #[test]
    fn analyze_runs_and_reports_the_result_shape() {
        let engine = QueryEngine::new(db());
        let analyze = engine
            .analyze("sum by (node) (rate(requests_total[30s]))", 30_000, 90_000, 15_000)
            .unwrap();
        assert_eq!(analyze.explain.choice, PlanChoice::Streamed);
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
