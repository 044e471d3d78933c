//! TeeQL — a PromQL-style query language over the TEEMon aggregation
//! database, plus the recording/alert rule subsystem built on it.
//!
//! The paper's PMAG component "provides detailed quantitative analysis by
//! selecting and applying aggregation functions to query results" (§4); in
//! the reference implementation that power comes from Prometheus' query
//! language.  This crate supplies the equivalent programmable layer:
//!
//! * [`parse`] — lexer + recursive-descent parser producing a typed
//!   [`Expr`] whose `Display` rendering is valid TeeQL that reparses to an
//!   equal tree,
//! * [`QueryEngine`] — instant and range evaluation over a
//!   [`teemon_tsdb::TimeSeriesDb`], both through one evaluator: the
//!   [`stream`] module plans an expression (refusing an ill-typed one with a
//!   typed [`EvalError`]) and evaluates it series by series, sliding each
//!   series' window over the whole step grid at `O(samples touched)` rather
//!   than `O(steps × window)`; an instant query is a grid of one step,
//! * [`RuleEngine`] — [`RecordingRule`]s that write derived series back into
//!   the database and [`AlertRule`]s (expression + `for` hold +
//!   [`Severity`]).
//!
//! `teemon_dashboard`'s panels evaluate through the same engine, and PMAN —
//! its thresholds and bottleneck diagnoses — is a [`RuleGroup`] of
//! [`AlertRule`]s (`teemon_analysis::pman_alerts`).
//!
//! # The language
//!
//! ```text
//! expr     := expr (== | != | > | < | >= | <=) expr     comparisons filter
//!           | expr (+ | -) expr | expr (* | /) expr     scalar arithmetic
//!           | (sum|avg|min|max|count) [by|without (labels)] (expr)
//!           | func(expr) | quantile_over_time(q, expr)  range functions
//!           | scalar(expr)                              one-element vector → scalar
//!           | name{label="v", label!="v"} [window]      selectors
//!           | number | (expr)
//! func     := rate | increase | avg_over_time | min_over_time
//!           | max_over_time | sum_over_time | count_over_time
//!           | last_over_time
//! window   := [5s] | [5m] | [1h30m] | [250ms] | ...
//! ```
//!
//! ```
//! use teemon_metrics::Labels;
//! use teemon_query::{QueryEngine, Value};
//! use teemon_tsdb::TimeSeriesDb;
//!
//! let db = TimeSeriesDb::new();
//! for t in 0..12u64 {
//!     for node in ["n1", "n2"] {
//!         let labels = Labels::from_pairs([("node", node)]);
//!         db.append("sgx_pages_evicted_total", &labels, t * 5_000, (t * 40) as f64);
//!     }
//! }
//! let engine = QueryEngine::new(db);
//! let value = engine
//!     .instant_query("sum by (node) (rate(sgx_pages_evicted_total[30s]))", 55_000)
//!     .unwrap();
//! let Value::Vector(per_node) = value else { panic!() };
//! assert_eq!(per_node.len(), 2);
//! assert!((per_node[0].value - 8.0).abs() < 1e-9); // 40 pages / 5 s
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

// The unit tests share the per-step oracle of the integration tests, which
// names this crate as they see it.
#[cfg(test)]
extern crate self as teemon_query;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub mod ast;
pub mod eval;
pub mod explain;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod stream;

pub use ast::{format_duration_ms, AggregateOp, BinOp, Expr, Grouping, RangeFunc};
pub use eval::{EvalError, QueryEngine, QueryError, RangeSeries, Value, VectorSample};
pub use explain::{Analyze, Explain, PlanNode};
pub use lexer::ParseError;
pub use parser::parse;
pub use rules::{
    cardinality_alerts, self_observe_alerts, Alert, AlertRule, AlertState, RecordingRule, Rule,
    RuleEngine, RuleEvalSummary, RuleGroup, Severity,
};
