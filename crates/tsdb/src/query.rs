//! Label selectors, query results and aggregation functions.
//!
//! PMAG "supports data queries over specified time ranges and labeled
//! dimensions.  It provides detailed quantitative analysis by selecting and
//! applying aggregation functions to query results" (§4).  This module
//! provides that query layer: [`Selector`]s pick series, and the free
//! functions aggregate the resulting [`QueryResult`]s.

use std::fmt;

use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;

/// How one label must compare for a series to match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelMatch {
    /// Label must equal the value.
    Equals(String, String),
    /// Label must exist and differ from the value.
    NotEquals(String, String),
    /// Label must exist (any value).
    Exists(String),
}

/// Escapes a label value for TeeQL / exposition-style rendering.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

impl fmt::Display for LabelMatch {
    /// Renders the matcher in TeeQL syntax.  [`LabelMatch::Exists`] prints as
    /// `label!=""` — the TeeQL parser canonicalises that form back to
    /// `Exists`, so a `NotEquals(_, "")` matcher is not representable in
    /// query text (construct it programmatically if you really need it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelMatch::Equals(k, v) => write!(f, "{k}=\"{}\"", escape_label_value(v)),
            LabelMatch::NotEquals(k, v) => write!(f, "{k}!=\"{}\"", escape_label_value(v)),
            LabelMatch::Exists(k) => write!(f, "{k}!=\"\""),
        }
    }
}

/// A series selector: an optional metric-name filter plus label matchers.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Selector {
    /// Metric name to match exactly; `None` matches every name.
    pub name: Option<String>,
    /// Label matchers, all of which must hold.
    pub matchers: Vec<LabelMatch>,
}

impl Selector {
    /// Matches every series.
    pub fn all() -> Self {
        Self::default()
    }

    /// Matches series of one metric name.
    pub fn metric(name: impl Into<String>) -> Self {
        Self { name: Some(name.into()), matchers: Vec::new() }
    }

    /// Adds an equality matcher.
    #[must_use]
    pub fn with_label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.matchers.push(LabelMatch::Equals(name.into(), value.into()));
        self
    }

    /// Adds a not-equals matcher.
    #[must_use]
    pub fn without_label_value(
        mut self,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.matchers.push(LabelMatch::NotEquals(name.into(), value.into()));
        self
    }

    /// Adds an existence matcher.
    #[must_use]
    pub fn with_label_present(mut self, name: impl Into<String>) -> Self {
        self.matchers.push(LabelMatch::Exists(name.into()));
        self
    }

    /// `true` when a series with `name` and `labels` matches this selector.
    pub fn matches(&self, name: &str, labels: &Labels) -> bool {
        if let Some(wanted) = &self.name {
            if wanted != name {
                return false;
            }
        }
        self.matchers.iter().all(|m| match m {
            LabelMatch::Equals(k, v) => labels.get(k) == Some(v.as_str()),
            LabelMatch::NotEquals(k, v) => labels.get(k).map(|actual| actual != v).unwrap_or(false),
            LabelMatch::Exists(k) => labels.get(k).is_some(),
        })
    }
}

impl fmt::Display for Selector {
    /// Renders the selector in TeeQL syntax: `name`, `name{matchers}`,
    /// `{matchers}` for a name-less selector, or `{}` for the match-all
    /// selector.  The output parses back to an equal selector with
    /// `teemon_query`'s parser (modulo the [`LabelMatch::Exists`] caveat).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            f.write_str(name)?;
            if self.matchers.is_empty() {
                return Ok(());
            }
        }
        write!(f, "{{")?;
        for (i, m) in self.matchers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// One series' contribution to a query answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Metric name.
    pub name: String,
    /// Series labels.
    pub labels: Labels,
    /// `(timestamp_ms, value)` points in chronological order.
    pub points: Vec<(u64, f64)>,
}

/// Aggregation operators applied across series or across time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateOp {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of values.
    Count,
}

impl AggregateOp {
    /// Applies the operator to a slice of values; returns `None` for empty
    /// input.
    pub fn apply(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        Some(match self {
            AggregateOp::Sum => values.iter().sum(),
            AggregateOp::Avg => values.iter().sum::<f64>() / values.len() as f64,
            AggregateOp::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            AggregateOp::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggregateOp::Count => values.len() as f64,
        })
    }
}

/// Aggregates across series per timestamp.  Timestamps are the union of all
/// series' timestamps; series contribute their most recent value at or before
/// each timestamp.
///
/// Each series' points must be in chronological order (which
/// [`crate::TimeSeriesDb`] guarantees).  The walk keeps one forward cursor
/// per series over the merged timestamp union, so the cost is
/// `O(total_points + timestamps × series)`.  Takes bare point series, so
/// callers that read through the zero-copy snapshot API never materialise
/// [`QueryResult`]s.
pub fn aggregate_series_over_time<P: AsRef<[(u64, f64)]>>(
    series: &[P],
    op: AggregateOp,
) -> Vec<(u64, f64)> {
    let mut timestamps: Vec<u64> =
        series.iter().flat_map(|p| p.as_ref().iter().map(|(t, _)| *t)).collect();
    timestamps.sort_unstable();
    timestamps.dedup();
    let mut cursors = vec![0usize; series.len()];
    let mut latest: Vec<Option<f64>> = vec![None; series.len()];
    let mut values = Vec::with_capacity(series.len());
    let mut out = Vec::with_capacity(timestamps.len());
    for ts in timestamps {
        values.clear();
        for (i, p) in series.iter().enumerate() {
            let points = p.as_ref();
            while cursors[i] < points.len() && points[cursors[i]].0 <= ts {
                latest[i] = Some(points[cursors[i]].1);
                cursors[i] += 1;
            }
            if let Some(v) = latest[i] {
                values.push(v);
            }
        }
        if let Some(v) = op.apply(&values) {
            out.push((ts, v));
        }
    }
    out
}

/// The contribution of one adjacent counter-sample pair to `increase()`/
/// `rate()`, handling counter resets the way Prometheus does: a decrease
/// means the counter restarted, so the post-reset value *is* the increase.
///
/// Exposed as the shared building block between the whole-window functions
/// below and the query engine's sliding-window streamer, which adds a pair's
/// contribution when its samples enter the window and subtracts it when they
/// leave instead of rescanning the window every step.
pub fn reset_adjusted_delta(prev: f64, next: f64) -> f64 {
    if next >= prev {
        next - prev
    } else {
        next
    }
}

/// Per-second rate of increase of a counter over the window covered by
/// `points`, handling counter resets the way Prometheus' `rate()` does
/// (a decrease is treated as a reset to zero).
pub fn rate(points: &[(u64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let (t0, _) = points[0];
    let (t1, _) = *points.last().expect("len >= 2");
    if t1 <= t0 {
        return None;
    }
    let mut increase = 0.0;
    for window in points.windows(2) {
        increase += reset_adjusted_delta(window[0].1, window[1].1);
    }
    Some(increase / ((t1 - t0) as f64 / 1000.0))
}

/// `increase()` over the window: like [`rate`] but not divided by time.
pub fn increase(points: &[(u64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let mut total = 0.0;
    for window in points.windows(2) {
        total += reset_adjusted_delta(window[0].1, window[1].1);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn selector_matching_rules() {
        let series_labels = labels(&[("node", "n1"), ("job", "sgx_exporter")]);
        assert!(Selector::all().matches("anything", &series_labels));
        assert!(Selector::metric("up").matches("up", &series_labels));
        assert!(!Selector::metric("up").matches("down", &series_labels));
        assert!(Selector::metric("up").with_label("node", "n1").matches("up", &series_labels));
        assert!(!Selector::metric("up").with_label("node", "n2").matches("up", &series_labels));
        assert!(Selector::all().without_label_value("node", "n2").matches("up", &series_labels));
        assert!(!Selector::all().without_label_value("node", "n1").matches("up", &series_labels));
        assert!(Selector::all().with_label_present("job").matches("up", &series_labels));
        assert!(!Selector::all().with_label_present("pod").matches("up", &series_labels));
    }

    #[test]
    fn aggregate_ops() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(AggregateOp::Sum.apply(&values), Some(10.0));
        assert_eq!(AggregateOp::Avg.apply(&values), Some(2.5));
        assert_eq!(AggregateOp::Min.apply(&values), Some(1.0));
        assert_eq!(AggregateOp::Max.apply(&values), Some(4.0));
        assert_eq!(AggregateOp::Count.apply(&values), Some(4.0));
        assert_eq!(AggregateOp::Sum.apply(&[]), None);
    }

    #[test]
    fn aggregate_latest_across_series() {
        let results = [
            QueryResult {
                name: "free".into(),
                labels: labels(&[("node", "n1")]),
                points: vec![(1000, 10.0), (2000, 20.0)],
            },
            QueryResult {
                name: "free".into(),
                labels: labels(&[("node", "n2")]),
                points: vec![(1500, 5.0)],
            },
        ];
        let latest: Vec<f64> =
            results.iter().filter_map(|r| r.points.last().map(|(_, v)| *v)).collect();
        assert_eq!(AggregateOp::Sum.apply(&latest), Some(25.0));

        let series: Vec<&[(u64, f64)]> = results.iter().map(|r| r.points.as_slice()).collect();
        let over_time = aggregate_series_over_time(&series, AggregateOp::Sum);
        assert_eq!(over_time, vec![(1000, 10.0), (1500, 15.0), (2000, 25.0)]);
        // The last aggregated point is the aggregate of the latest values.
        assert_eq!(over_time.last().map(|(_, v)| *v), AggregateOp::Sum.apply(&latest));
        assert!(aggregate_series_over_time::<&[(u64, f64)]>(&[], AggregateOp::Sum).is_empty());
    }

    #[test]
    fn rate_handles_monotonic_counters() {
        let points = vec![(0, 0.0), (5_000, 50.0), (10_000, 100.0)];
        assert_eq!(rate(&points), Some(10.0));
        assert_eq!(increase(&points), Some(100.0));
        assert_eq!(rate(&[(0, 1.0)]), None);
        assert_eq!(rate(&[(5, 1.0), (5, 2.0)]), None);
    }

    #[test]
    fn rate_handles_counter_resets() {
        // Counter resets at t=10s (process restart), then continues.
        let points = vec![(0, 100.0), (5_000, 200.0), (10_000, 10.0), (15_000, 30.0)];
        let total_increase = increase(&points).unwrap();
        assert_eq!(total_increase, 100.0 + 10.0 + 20.0);
        let r = rate(&points).unwrap();
        assert!((r - total_increase / 15.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_over_time_with_staggered_series() {
        // Three series whose timestamps interleave without ever coinciding:
        // the per-series cursors must carry the last-seen value forward.
        let results: Vec<Vec<(u64, f64)>> = (0..3u64)
            .map(|i| (0..4u64).map(|j| (j * 300 + i * 100, (i * 10 + j) as f64)).collect())
            .collect();
        let summed = aggregate_series_over_time(&results, AggregateOp::Sum);
        assert_eq!(summed.len(), 12, "union of 3x4 distinct timestamps");
        // At t=0 only series 0 has reported; at t=200 all three have.
        assert_eq!(summed[0], (0, 0.0));
        assert_eq!(summed[2], (200, 0.0 + 10.0 + 20.0));
        // The last point sums every series' final value.
        assert_eq!(summed.last(), Some(&(1100, 3.0 + 13.0 + 23.0)));
        // Count reflects how many series have reported so far.
        let counted = aggregate_series_over_time(&results, AggregateOp::Count);
        assert_eq!(counted[0].1, 1.0);
        assert_eq!(counted[1].1, 2.0);
        assert_eq!(counted[11].1, 3.0);
    }

    #[test]
    fn selector_display_is_teeql_syntax() {
        assert_eq!(Selector::all().to_string(), "{}");
        assert_eq!(Selector::metric("up").to_string(), "up");
        assert_eq!(Selector::metric("up").with_label("node", "n1").to_string(), "up{node=\"n1\"}");
        assert_eq!(
            Selector::metric("m")
                .with_label("a", "x")
                .without_label_value("b", "y")
                .with_label_present("c")
                .to_string(),
            "m{a=\"x\", b!=\"y\", c!=\"\"}"
        );
        let nameless = Selector::all().with_label("node", "n1");
        assert_eq!(nameless.to_string(), "{node=\"n1\"}");
        // Quotes and backslashes in values are escaped.
        assert_eq!(
            Selector::metric("m").with_label("a", "q\"\\u").to_string(),
            "m{a=\"q\\\"\\\\u\"}"
        );
    }
}
