//! Panels: a query bound to a visualisation.
//!
//! A panel is one TeeQL expression evaluated by [`teemon_query::QueryEngine`]
//! over a step grid, the way a Grafana panel embeds PromQL: `rate()`,
//! `by`/`without` grouping and arithmetic all sit behind the one string.  The
//! selector constructors (`Panel::graph` and friends) store their selector
//! as that string, so a plain `sgx_nr_free_pages` panel is the instant
//! selector read at every step, with the engine's staleness lookback.
//!
//! Dashboards are the read path's heaviest customer: every refresh is a
//! range query per panel, which the engine's streaming range evaluator
//! answers in `O(samples touched)` rather than `O(steps × window)` (see
//! [`teemon_query::stream`]): each series' chunks in range are decoded once,
//! into a buffer the run reuses from series to series, and the points reach
//! [`PanelData`] as the store's own [`Sample`]s.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use teemon_query::{QueryEngine, RangeSeries};
use teemon_tsdb::{Sample, Selector, TimeSeriesDb};

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
    /// The TeeQL expression the panel plots.  One that fails to parse or
    /// evaluate renders as an empty panel.
    pub expr: String,
    /// Unit suffix shown after values (e.g. `"pages"`, `"ops/s"`).
    pub unit: String,
    /// Gauge maximum (used by [`PanelKind::Gauge`]).
    pub max: Option<f64>,
    /// Step between evaluation instants; `None` derives 60 steps from the
    /// queried range.
    #[serde(default)]
    pub step_ms: Option<u64>,
}

impl Panel {
    fn new(title: impl Into<String>, kind: PanelKind, expr: String, max: Option<f64>) -> Self {
        Self { title: title.into(), kind, expr, unit: String::new(), max, step_ms: None }
    }

    /// Creates a graph panel.
    pub(crate) fn graph(title: impl Into<String>, selector: Selector) -> Self {
        Self::new(title, PanelKind::Graph, selector.to_string(), None)
    }

    /// Creates a gauge panel with a maximum.
    pub(crate) fn gauge(title: impl Into<String>, selector: Selector, max: f64) -> Self {
        Self::new(title, PanelKind::Gauge, selector.to_string(), Some(max))
    }

    /// Creates a single-stat panel.
    pub(crate) fn stat(title: impl Into<String>, selector: Selector) -> Self {
        Self::new(title, PanelKind::SingleStat, selector.to_string(), None)
    }

    /// Creates a table panel.
    pub(crate) fn table(title: impl Into<String>, selector: Selector) -> Self {
        Self::new(title, PanelKind::Table, selector.to_string(), None)
    }

    /// Creates a graph panel over any TeeQL expression
    /// (`Panel::teeql("EPC eviction rate", "sum by (node) \
    /// (rate(sgx_pages_evicted_total[30s]))")`).  Set its
    /// [`kind`](Panel::kind) to switch the visualisation.
    pub fn teeql(title: impl Into<String>, expr: impl Into<String>) -> Self {
        Self::new(title, PanelKind::Graph, expr.into(), None)
    }

    /// Changes the visualisation type.
    #[must_use]
    pub(crate) fn with_kind(mut self, kind: PanelKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the evaluation step.
    #[must_use]
    pub fn with_step_ms(mut self, step_ms: u64) -> Self {
        self.step_ms = Some(step_ms.max(1));
        self
    }

    /// Sets the displayed unit.
    #[must_use]
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = unit.into();
        self
    }

    /// Evaluates the panel against `db` over `[start_ms, end_ms]`.
    ///
    /// The range is clamped to the data the database holds (so the
    /// open-ended `0..u64::MAX` works), and the expression is evaluated at
    /// `step_ms` intervals across it, on a grid whose last step is the
    /// clamped end.  Every series shares that grid, so the aggregate is their
    /// per-step sum and the headline value its last point.
    pub fn evaluate(&self, db: &TimeSeriesDb, start_ms: u64, end_ms: u64) -> PanelData {
        let series: Vec<(String, Vec<Sample>)> = self
            .range(db, start_ms, end_ms)
            .into_iter()
            .map(|series| (series.display_name(), series.points))
            .collect();
        let mut per_step = BTreeMap::new();
        for point in series.iter().flat_map(|(_, points)| points) {
            *per_step.entry(point.timestamp_ms).or_insert(0.0) += point.value;
        }
        let aggregated: Vec<Sample> = per_step
            .into_iter()
            .map(|(timestamp_ms, value)| Sample { timestamp_ms, value })
            .collect();
        PanelData {
            title: self.title.clone(),
            kind: self.kind,
            unit: self.unit.clone(),
            current: aggregated.last().map(|s| s.value),
            series,
            aggregated,
            max: self.max,
        }
    }

    /// The range query behind [`Panel::evaluate`].  Malformed or ill-typed
    /// expressions yield no series (panels must not panic while rendering).
    fn range(&self, db: &TimeSeriesDb, start_ms: u64, end_ms: u64) -> Vec<RangeSeries> {
        let (Some(oldest), Some(newest)) = (db.oldest_timestamp(), db.newest_timestamp()) else {
            return Vec::new();
        };
        let start = start_ms.max(oldest);
        let end = end_ms.min(newest);
        if start > end {
            return Vec::new();
        }
        let step = self.step_ms.unwrap_or((end - start) / 60).max(1);
        // The grid ends on `end`, so the last step — the headline value —
        // reads the newest data in range.
        let start = end - (end - start) / step * step;
        QueryEngine::new(db.clone()).range_query(&self.expr, start, end, step).unwrap_or_default()
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
    pub series: Vec<(String, Vec<Sample>)>,
    /// Points aggregated across series.
    pub aggregated: Vec<Sample>,
    /// The headline value: the last aggregated point.
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
                let values: Vec<f64> = self.aggregated.iter().map(|s| s.value).collect();
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
                // One row per series with a value at the newest step: a
                // series gone stale before it is not a current row.
                let newest = self.aggregated.last().map(|s| s.timestamp_ms);
                let rows: Vec<(String, f64)> = self
                    .series
                    .iter()
                    .filter_map(|(label, points)| {
                        let last = points.last()?;
                        (Some(last.timestamp_ms) == newest).then(|| (label.clone(), last.value))
                    })
                    .collect();
                out.push_str(&render::render_table(&rows, &self.unit));
            }
        }
        out
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
            .with_unit("pages")
            .with_step_ms(5_000);
        let data = panel.evaluate(&db(), 0, u64::MAX);
        assert!(!data.aggregated.is_empty());
        assert_eq!(data.aggregated.len(), 10);
        assert_eq!(data.current, Some(15_000.0));
        let rendered = data.render(60);
        assert!(rendered.contains("Free EPC pages"));
        assert!(rendered.lines().count() > 3);
    }

    #[test]
    fn rate_panel_computes_per_second_rate() {
        let panel = Panel::teeql("Syscall rate", "sum(rate(teemon_syscalls_total[20s]))")
            .with_kind(PanelKind::SingleStat);
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
        assert!(!data.aggregated.is_empty());
        // 100 syscalls per 5 s tick → 20/s once the window has two samples.
        assert!((data.current.unwrap() - 20.0).abs() < 1e-9);
        assert!(data.series[0].0.contains("syscall"), "grouped label kept: {}", data.series[0].0);
        let rendered = data.render(60);
        assert!(rendered.contains("Syscall rate"));
        // Expression panels honour explicit (clamped) ranges too.
        let clamped = panel.evaluate(&db(), 10_000, 30_000);
        assert!(clamped.aggregated.iter().all(|s| (10_000..=30_000).contains(&s.timestamp_ms)));
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
            assert!(data.aggregated.is_empty(), "`{bad}` must evaluate to an empty panel");
            let _ = data.render(40); // and rendering must not panic
        }
        // An empty database is handled before the engine is even consulted.
        let empty = Panel::teeql("no data", "up").evaluate(&TimeSeriesDb::new(), 0, u64::MAX);
        assert!(empty.aggregated.is_empty());
    }

    #[test]
    fn panels_read_sealed_compressed_chunks() {
        use teemon_tsdb::TsdbConfig;
        // A tiny chunk size forces nearly all samples into sealed
        // (Gorilla-compressed) chunks: both panel paths must read them
        // through the decoder and agree with the default configuration.
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
        assert_eq!(parsed.expr, "rate(x_total[1m])");
    }

    #[test]
    fn panel_data_serde_round_trips() {
        // Points travel as the store's samples: `{"timestamp_ms":…,"value":…}`.
        let panel = Panel::table("t", Selector::metric("sgx_nr_free_pages")).with_step_ms(15_000);
        let data = panel.evaluate(&db(), 0, 45_000);
        let json = serde_json::to_string(&data).unwrap();
        assert!(json.contains(r#""aggregated":[{"timestamp_ms":0,"value":24000},"#), "{json}");
        assert_eq!(serde_json::from_str::<PanelData>(&json).unwrap(), data);
    }

    #[test]
    fn selector_panels_store_their_selector_as_teeql() {
        let selector = Selector::metric("m").with_label("node", "n\"1").with_label_present("job");
        let panel = Panel::table("t", selector.clone());
        assert_eq!(panel.expr, selector.to_string());
        assert_eq!(
            teemon_query::parse(&panel.expr).unwrap(),
            teemon_query::Expr::Selector(selector)
        );
    }

    #[test]
    fn the_grid_ends_on_the_newest_sample() {
        // A range far shorter than a minute still gets 60 steps, and the
        // last one reads the newest sample.
        let db = TimeSeriesDb::new();
        for (t, v) in [(24u64, 1.0), (42, 2.0), (59, 3.0), (145, 4.0)] {
            db.append("g", &Labels::new(), t, v);
        }
        let data = Panel::graph("g", Selector::metric("g")).evaluate(&db, 0, u64::MAX);
        assert_eq!(data.aggregated.len(), 61);
        assert_eq!(data.aggregated.last(), Some(&Sample { timestamp_ms: 145, value: 4.0 }));
        assert_eq!(data.current, Some(4.0));
        // So does an explicit step that does not divide the range.
        let stepped = Panel::stat("g", Selector::metric("g")).with_step_ms(50);
        let data = stepped.evaluate(&db, 0, u64::MAX);
        let at = |timestamp_ms, value| Sample { timestamp_ms, value };
        assert_eq!(data.aggregated, [at(45, 2.0), at(95, 3.0), at(145, 4.0)]);
    }

    #[test]
    fn empty_query_produces_empty_panel() {
        let panel = Panel::graph("nothing", Selector::metric("does_not_exist"));
        let data = panel.evaluate(&db(), 0, u64::MAX);
        assert!(data.aggregated.is_empty());
        assert_eq!(data.current, None);
        // Rendering must not panic on empty data.
        let _ = data.render(40);
    }
}
