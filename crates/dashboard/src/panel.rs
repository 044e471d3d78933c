//! Panels: a query bound to a visualisation.
//!
//! A panel selects its data one of two ways: the structured path (a
//! [`Selector`] plus an [`AggregateOp`], the original hard-wired pipeline) or
//! a TeeQL expression evaluated by [`teemon_query::QueryEngine`], which puts
//! the whole query language — `rate()`, `by`/`without` grouping, arithmetic —
//! behind a single string (the way Grafana panels embed PromQL).
//!
//! Dashboards are the read path's heaviest customer: every refresh is a
//! range query per panel.  Expression panels ride the engine's streaming
//! range evaluator (`O(samples touched)` per refresh rather than
//! `O(steps × window)`; see [`teemon_query::stream`]), and both paths read
//! sealed chunks in their Gorilla-compressed form through streaming-decode
//! cursors — a dashboard refresh never materialises a decompressed chunk.

use serde::{Deserialize, Serialize};
use teemon_query::QueryEngine;
use teemon_tsdb::{query, AggregateOp, QueryResult, Selector, TimeSeriesDb};

use crate::render;

/// The visualisation type of a panel (the paper lists "graphs, histograms,
/// gauges, gradient fills, tables, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PanelKind {
    /// A time-series line graph.
    Graph,
    /// A gauge showing the latest value against a maximum.
    Gauge,
    /// A single-stat panel showing one aggregated number.
    SingleStat,
    /// A table of the latest value per series.
    Table,
    /// A histogram of the values observed in the window.
    Histogram,
}

/// A dashboard panel: title, query, visualisation and options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Panel {
    /// Panel title.
    pub title: String,
    /// Visualisation type.
    pub kind: PanelKind,
    /// The query selecting the series to display.
    pub selector: Selector,
    /// Aggregation applied across matching series.
    pub aggregate: AggregateOp,
    /// For counters: display the per-second rate instead of the raw value.
    pub as_rate: bool,
    /// Unit suffix shown after values (e.g. `"pages"`, `"ops/s"`).
    pub unit: String,
    /// Gauge maximum (used by [`PanelKind::Gauge`]).
    pub max: Option<f64>,
    /// TeeQL expression; when set it replaces the `selector`/`aggregate`
    /// path (`as_rate` still applies to the aggregated result).  Expressions
    /// that fail to parse or evaluate render as empty panels.
    #[serde(default)]
    pub expr: Option<String>,
    /// Step between evaluation instants in expression mode; `None` derives
    /// ~60 steps from the queried range.
    #[serde(default)]
    pub step_ms: Option<u64>,
}

impl Panel {
    /// Creates a graph panel.
    pub fn graph(title: impl Into<String>, selector: Selector) -> Self {
        Self {
            title: title.into(),
            kind: PanelKind::Graph,
            selector,
            aggregate: AggregateOp::Sum,
            as_rate: false,
            unit: String::new(),
            max: None,
            expr: None,
            step_ms: None,
        }
    }

    /// Creates a gauge panel with a maximum.
    pub fn gauge(title: impl Into<String>, selector: Selector, max: f64) -> Self {
        Self {
            title: title.into(),
            kind: PanelKind::Gauge,
            selector,
            aggregate: AggregateOp::Sum,
            as_rate: false,
            unit: String::new(),
            max: Some(max),
            expr: None,
            step_ms: None,
        }
    }

    /// Creates a single-stat panel.
    pub fn stat(title: impl Into<String>, selector: Selector) -> Self {
        Self {
            title: title.into(),
            kind: PanelKind::SingleStat,
            selector,
            aggregate: AggregateOp::Sum,
            as_rate: false,
            unit: String::new(),
            max: None,
            expr: None,
            step_ms: None,
        }
    }

    /// Creates a table panel.
    pub fn table(title: impl Into<String>, selector: Selector) -> Self {
        Self {
            title: title.into(),
            kind: PanelKind::Table,
            selector,
            aggregate: AggregateOp::Sum,
            as_rate: false,
            unit: String::new(),
            max: None,
            expr: None,
            step_ms: None,
        }
    }

    /// Creates a graph panel driven by a TeeQL expression instead of a
    /// selector (`Panel::teeql("EPC eviction rate", "sum by (node) \
    /// (rate(sgx_pages_evicted_total[30s]))")`).  Use [`Panel::with_kind`]
    /// to switch the visualisation.
    pub fn teeql(title: impl Into<String>, expr: impl Into<String>) -> Self {
        let mut panel = Self::graph(title, Selector::all());
        panel.expr = Some(expr.into());
        panel
    }

    /// Changes the visualisation type.
    #[must_use]
    pub fn with_kind(mut self, kind: PanelKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the evaluation step used in expression mode.
    #[must_use]
    pub fn with_step_ms(mut self, step_ms: u64) -> Self {
        self.step_ms = Some(step_ms.max(1));
        self
    }

    /// Displays the per-second rate of a counter instead of its raw value.
    #[must_use]
    pub fn as_rate(mut self) -> Self {
        self.as_rate = true;
        self
    }

    /// Sets the displayed unit.
    #[must_use]
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = unit.into();
        self
    }

    /// Sets the aggregation operator.
    #[must_use]
    pub fn with_aggregate(mut self, op: AggregateOp) -> Self {
        self.aggregate = op;
        self
    }

    /// Evaluates the panel against `db` over `[start_ms, end_ms]`.
    ///
    /// In expression mode the open-ended range (`0..u64::MAX`) is clamped to
    /// the data the database actually holds, and the expression is evaluated
    /// at `step_ms` intervals across it — streamed by sliding-window state
    /// machines when the expression supports it, per-step otherwise.  In
    /// selector mode the panel reads through the zero-copy snapshot API: one
    /// inverted-index lookup, then a pre-sized range walk over `Arc`-shared
    /// (compressed) chunks per series.
    pub fn evaluate(&self, db: &TimeSeriesDb, start_ms: u64, end_ms: u64) -> PanelData {
        let series: Vec<(String, Vec<(u64, f64)>)> = match &self.expr {
            Some(expr) => self
                .evaluate_expr(db, expr, start_ms, end_ms)
                .into_iter()
                .map(|r| {
                    let label = if r.labels.is_empty() {
                        r.name
                    } else {
                        format!("{}{}", r.name, r.labels)
                    };
                    (label, r.points)
                })
                .collect(),
            None => db
                .select(&self.selector)
                .iter()
                .map(|snap| (snap.display_name(), snap.points_in(start_ms, end_ms)))
                .filter(|(_, points)| !points.is_empty())
                .collect(),
        };
        let point_sets: Vec<&[(u64, f64)]> = series.iter().map(|(_, p)| p.as_slice()).collect();
        let aggregated = query::aggregate_series_over_time(&point_sets, self.aggregate);
        let current = if self.as_rate {
            query::rate(&aggregated)
        } else {
            aggregated.last().map(|(_, v)| *v)
        };
        PanelData {
            title: self.title.clone(),
            kind: self.kind,
            unit: self.unit.clone(),
            series,
            aggregated,
            current,
            max: self.max,
        }
    }

    /// Expression-mode evaluation: range-evaluates the TeeQL expression and
    /// adapts the result to the selector path's [`QueryResult`] shape.
    /// Malformed or ill-typed expressions yield no results (panels must not
    /// panic while rendering).
    fn evaluate_expr(
        &self,
        db: &TimeSeriesDb,
        expr: &str,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<QueryResult> {
        let (Some(oldest), Some(newest)) = (db.oldest_timestamp(), db.newest_timestamp()) else {
            return Vec::new();
        };
        let start = start_ms.max(oldest);
        let end = end_ms.min(newest);
        if start > end {
            return Vec::new();
        }
        let step = self.step_ms.unwrap_or_else(|| ((end - start) / 60).max(1_000));
        let engine = QueryEngine::new(db.clone());
        engine
            .range_query(expr, start, end, step)
            .map(|series| {
                series
                    .into_iter()
                    .map(|s| QueryResult {
                        name: s.name.unwrap_or_default(),
                        labels: s.labels,
                        points: s.points,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The evaluated data behind one panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelData {
    /// Panel title.
    pub title: String,
    /// Visualisation type.
    pub kind: PanelKind,
    /// Unit suffix.
    pub unit: String,
    /// Per-series points (label → points).
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Points aggregated across series.
    pub aggregated: Vec<(u64, f64)>,
    /// The headline value (latest aggregate, or rate when `as_rate`).
    pub current: Option<f64>,
    /// Gauge maximum.
    pub max: Option<f64>,
}

impl PanelData {
    /// Renders the panel as ASCII (what the terminal front-end shows).
    pub fn render(&self, width: usize) -> String {
        let mut out = format!("== {} ==\n", self.title);
        match self.kind {
            PanelKind::Graph | PanelKind::Histogram => {
                let values: Vec<f64> = self.aggregated.iter().map(|(_, v)| *v).collect();
                out.push_str(&render::render_ascii_chart(&values, width, 8));
            }
            PanelKind::Gauge => {
                let value = self.current.unwrap_or(0.0);
                let max = self.max.unwrap_or_else(|| value.max(1.0));
                out.push_str(&render::render_gauge(value, max, width));
            }
            PanelKind::SingleStat => {
                out.push_str(&format!(
                    "{} {}\n",
                    self.current.map(|v| format!("{v:.2}")).unwrap_or_else(|| "n/a".into()),
                    self.unit
                ));
            }
            PanelKind::Table => {
                let rows: Vec<(String, f64)> = self
                    .series
                    .iter()
                    .map(|(label, points)| {
                        (label.clone(), points.last().map(|(_, v)| *v).unwrap_or(f64::NAN))
                    })
                    .collect();
                out.push_str(&render::render_table(&rows, &self.unit));
            }
        }
        out
    }

    /// `true` when the panel has no data at all.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|(_, points)| points.is_empty()) && self.aggregated.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;

    fn db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..10u64 {
            db.append(
                "sgx_nr_free_pages",
                &Labels::from_pairs([("node", "n1")]),
                t * 5_000,
                24_000.0 - t as f64 * 1_000.0,
            );
            db.append(
                "teemon_syscalls_total",
                &Labels::from_pairs([("syscall", "read")]),
                t * 5_000,
                (t * 100) as f64,
            );
        }
        db
    }

    #[test]
    fn graph_panel_aggregates_and_renders() {
        let panel = Panel::graph("Free EPC pages", Selector::metric("sgx_nr_free_pages"))
            .with_unit("pages");
        let data = panel.evaluate(&db(), 0, u64::MAX);
        assert!(!data.is_empty());
        assert_eq!(data.aggregated.len(), 10);
        assert_eq!(data.current, Some(15_000.0));
        let rendered = data.render(60);
        assert!(rendered.contains("Free EPC pages"));
        assert!(rendered.lines().count() > 3);
    }

    #[test]
    fn rate_panel_computes_per_second_rate() {
        let panel =
            Panel::stat("Syscall rate", Selector::metric("teemon_syscalls_total")).as_rate();
        let data = panel.evaluate(&db(), 0, u64::MAX);
        // 100 syscalls every 5 s → 20/s.
        assert!((data.current.unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_and_table_render() {
        let gauge = Panel::gauge("EPC usage", Selector::metric("sgx_nr_free_pages"), 24_064.0)
            .evaluate(&db(), 0, u64::MAX);
        let text = gauge.render(40);
        assert!(text.contains('['), "gauge bar missing: {text}");

        let table = Panel::table("Per-node", Selector::metric("sgx_nr_free_pages"))
            .with_unit("pages")
            .evaluate(&db(), 0, u64::MAX);
        let text = table.render(40);
        assert!(text.contains("n1"));
        assert!(text.contains("pages"));
    }

    #[test]
    fn teeql_panel_evaluates_expressions() {
        let panel =
            Panel::teeql("Syscall rate", "sum by (syscall) (rate(teemon_syscalls_total[20s]))")
                .with_unit("calls/s")
                .with_step_ms(5_000);
        let data = panel.evaluate(&db(), 0, u64::MAX);
        assert!(!data.is_empty());
        // 100 syscalls per 5 s tick → 20/s once the window has two samples.
        assert!((data.current.unwrap() - 20.0).abs() < 1e-9);
        assert!(data.series[0].0.contains("syscall"), "grouped label kept: {}", data.series[0].0);
        let rendered = data.render(60);
        assert!(rendered.contains("Syscall rate"));
        // Expression panels honour explicit (clamped) ranges too.
        let clamped = panel.evaluate(&db(), 10_000, 30_000);
        assert!(clamped.aggregated.iter().all(|(t, _)| (10_000..=30_000).contains(t)));
    }

    #[test]
    fn teeql_panel_arithmetic_expression() {
        // Free EPC as a percentage of capacity — impossible with the plain
        // selector path, one line of TeeQL.
        let panel = Panel::teeql("EPC free %", "sgx_nr_free_pages / 24000 * 100")
            .with_kind(PanelKind::SingleStat)
            .with_step_ms(5_000);
        let data = panel.evaluate(&db(), 0, u64::MAX);
        // Latest sample: 24_000 - 9_000 = 15_000 pages → 62.5 %.
        assert!((data.current.unwrap() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_teeql_renders_as_empty_panel() {
        for bad in ["rate(", "rate(sgx_nr_free_pages)", "sum(1)"] {
            let panel = Panel::teeql("broken", bad);
            let data = panel.evaluate(&db(), 0, u64::MAX);
            assert!(data.is_empty(), "`{bad}` must evaluate to an empty panel");
            let _ = data.render(40); // and rendering must not panic
        }
        // An empty database is handled before the engine is even consulted.
        let empty = Panel::teeql("no data", "up").evaluate(&TimeSeriesDb::new(), 0, u64::MAX);
        assert!(empty.is_empty());
    }

    #[test]
    fn panels_read_sealed_compressed_chunks() {
        use teemon_tsdb::TsdbConfig;
        // A tiny chunk size forces nearly all samples into sealed
        // (Gorilla-compressed) chunks: both panel paths must read through
        // the streaming decoders and agree with the default configuration.
        let small_chunks =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 8, retention_ms: u64::MAX });
        let reference = db();
        for t in 0..10u64 {
            small_chunks.append(
                "teemon_syscalls_total",
                &Labels::from_pairs([("syscall", "read")]),
                t * 5_000,
                (t * 100) as f64,
            );
        }
        let expr_panel =
            Panel::teeql("rate", "sum by (syscall) (rate(teemon_syscalls_total[20s]))")
                .with_step_ms(5_000);
        let selector_panel = Panel::graph("raw", Selector::metric("teemon_syscalls_total"));
        for panel in [expr_panel, selector_panel] {
            let compressed = panel.evaluate(&small_chunks, 0, u64::MAX);
            let head_only = panel.evaluate(&reference, 0, u64::MAX);
            assert_eq!(compressed.aggregated, head_only.aggregated, "{}", panel.title);
            assert_eq!(compressed.current, head_only.current);
        }
    }

    #[test]
    fn teeql_panel_serde_round_trips() {
        let panel = Panel::teeql("r", "rate(x_total[1m])").with_step_ms(2_000);
        let json = serde_json::to_string(&panel).unwrap();
        let parsed: Panel = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, panel);
        assert_eq!(parsed.expr.as_deref(), Some("rate(x_total[1m])"));
    }

    #[test]
    fn empty_query_produces_empty_panel() {
        let panel = Panel::graph("nothing", Selector::metric("does_not_exist"));
        let data = panel.evaluate(&db(), 0, u64::MAX);
        assert!(data.is_empty());
        assert_eq!(data.current, None);
        // Rendering must not panic on empty data.
        let _ = data.render(40);
    }
}
