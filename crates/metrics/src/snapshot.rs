//! Point-in-time snapshots of metric families.
//!
//! Exporters gather their live metric values into [`FamilySnapshot`]s which
//! the aggregation component takes as they are; the text exposition format
//! encodes and decodes the same types at the edges.  The types are therefore
//! the wire-level data model of TEEMon.

use std::cell::Cell;
use std::fmt::Write;

use serde::{Deserialize, Serialize};

use crate::label::Labels;
use crate::value::{HistogramSnapshot, SummarySnapshot};

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing counter.
    Counter,
    /// Value that can move up and down.
    Gauge,
    /// Bucketed distribution.
    Histogram,
    /// Quantile summary.
    Summary,
    /// Untyped sample (e.g. parsed from an exposition without metadata).
    Untyped,
}

impl MetricKind {
    /// Canonical lowercase name used in `# TYPE` exposition lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Summary => "summary",
            MetricKind::Untyped => "untyped",
        }
    }

    /// Parses a `# TYPE` token.
    pub fn from_str_token(token: &str) -> Option<Self> {
        match token {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            "summary" => Some(MetricKind::Summary),
            "untyped" | "unknown" => Some(MetricKind::Untyped),
            _ => None,
        }
    }
}

/// The value of a single metric point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointValue {
    /// Counter total.
    Counter(f64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
    /// Summary state.
    Summary(SummarySnapshot),
    /// Untyped raw value.
    Untyped(f64),
}

impl PointValue {
    /// Scalar representation of the point: the counter/gauge value, or the sum
    /// for histograms and summaries.
    pub fn scalar(&self) -> f64 {
        match self {
            PointValue::Counter(v) | PointValue::Gauge(v) | PointValue::Untyped(v) => *v,
            PointValue::Histogram(h) => h.sum,
            PointValue::Summary(s) => s.sum,
        }
    }
}

/// One metric point: a label set plus its value, with an optional explicit
/// timestamp in milliseconds since the (simulated) epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// Label set identifying the point within the family.
    pub labels: Labels,
    /// The observed value.
    pub value: PointValue,
    /// Optional timestamp in milliseconds.
    pub timestamp_ms: Option<u64>,
}

impl MetricPoint {
    /// Creates a point without an explicit timestamp.
    pub fn new(labels: Labels, value: PointValue) -> Self {
        Self { labels, value, timestamp_ms: None }
    }

    /// Sets the explicit timestamp in milliseconds.
    #[must_use]
    pub fn at(mut self, timestamp_ms: u64) -> Self {
        self.timestamp_ms = Some(timestamp_ms);
        self
    }
}

/// Snapshot of an entire metric family: name, help text, kind and points.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric family name (e.g. `teemon_syscalls_total`).
    pub name: String,
    /// Human readable help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// All points of the family.
    pub points: Vec<MetricPoint>,
}

impl FamilySnapshot {
    /// Creates an empty family snapshot.
    pub fn new(name: impl Into<String>, help: impl Into<String>, kind: MetricKind) -> Self {
        Self { name: name.into(), help: help.into(), kind, points: Vec::new() }
    }

    /// Adds a point and returns `self` for chaining.
    #[must_use]
    pub fn with_point(mut self, point: MetricPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Returns the point whose labels exactly equal `labels`.
    pub fn point(&self, labels: &Labels) -> Option<&MetricPoint> {
        self.points.iter().find(|p| &p.labels == labels)
    }

    /// Sum of the scalar values of all points (useful for totals across labels).
    pub fn total(&self) -> f64 {
        self.points.iter().map(|p| p.value.scalar()).sum()
    }

    /// Visits every wire-level sample of the family as `(name, labels, value,
    /// timestamp_ms)`: plain counter/gauge/untyped points are passed with
    /// **borrowed** name and labels (zero clones — this is the scraper's hot
    /// path, and the text encoder's only input), while histogram and summary
    /// points are expanded into `_bucket`/`_sum`/`_count` names and
    /// `le`/`quantile` label sets built in a per-thread scratch kept between
    /// calls, so a warm walk allocates nothing whatever the family kind.  A histogram
    /// bound without a count is skipped, not read past.
    pub fn for_each_sample(&self, mut visit: impl FnMut(&str, &Labels, f64, Option<u64>)) {
        for point in &self.points {
            let ts = point.timestamp_ms;
            let base = &point.labels;
            match &point.value {
                PointValue::Counter(v) | PointValue::Gauge(v) | PointValue::Untyped(v) => {
                    visit(&self.name, base, *v, ts);
                }
                PointValue::Histogram(h) => with_expansion(|x| {
                    x.rename(&self.name, "_bucket");
                    x.label(base, "le");
                    let buckets = h.bounds.iter().zip(&h.cumulative_counts);
                    for (at, (bound, count)) in buckets.enumerate() {
                        x.bounded(at, *bound);
                        visit(&x.name, &x.labels, *count as f64, ts);
                    }
                    x.labels.set_value_at(x.label_at, "+Inf");
                    let total = h.cumulative_counts.last().map_or(0.0, |&count| count as f64);
                    visit(&x.name, &x.labels, total, ts);
                    x.rename(&self.name, "_sum");
                    visit(&x.name, base, h.sum, ts);
                    x.rename(&self.name, "_count");
                    visit(&x.name, base, h.count as f64, ts);
                }),
                PointValue::Summary(s) => with_expansion(|x| {
                    x.label(base, "quantile");
                    for (at, (q, v)) in s.quantiles.iter().enumerate() {
                        x.bounded(at, *q);
                        visit(&self.name, &x.labels, *v, ts);
                    }
                    x.rename(&self.name, "_sum");
                    visit(&x.name, base, s.sum, ts);
                    x.rename(&self.name, "_count");
                    visit(&x.name, base, s.count as f64, ts);
                }),
            }
        }
    }

    /// How many samples [`FamilySnapshot::for_each_sample`] visits — the
    /// series this family is on the wire and in storage — in closed form,
    /// without building a label: a histogram point with *n* counted bounds
    /// is *n* + 3 samples (its buckets, `+Inf`, `_sum`, `_count`), a summary
    /// point its quantiles + 2.
    pub(crate) fn sample_count(&self) -> usize {
        let per_point = |point: &MetricPoint| match &point.value {
            PointValue::Counter(_) | PointValue::Gauge(_) | PointValue::Untyped(_) => 1,
            PointValue::Histogram(h) => h.bounds.len().min(h.cumulative_counts.len()) + 3,
            PointValue::Summary(s) => s.quantiles.len() + 2,
        };
        self.points.iter().map(per_point).sum()
    }
}

thread_local! {
    /// What expanding a histogram or summary point on this thread built
    /// last, kept from one expansion to the next.
    static EXPANSION: Cell<Expansion> = const { Cell::new(Expansion::new()) };
}

/// Runs `f` over this thread's [`EXPANSION`], taken out of its cell for the
/// call (a nested expansion starts from an empty one).
fn with_expansion(f: impl FnOnce(&mut Expansion)) {
    EXPANSION.with(|cell| {
        let mut expansion = cell.take();
        f(&mut expansion);
        cell.set(expansion);
    });
}

/// The pieces of an expanded sample: the suffixed name, the point's labels
/// with `le` / `quantile` inserted and the index it sits at, and the texts
/// of the two bounds last written at each position, newest first.
/// Histograms of one layout share their bounds, so a warm walk over at most
/// two layouts (a self-scrape's probe and lock-wait histograms) formats no
/// bound.
#[derive(Default)]
struct Expansion {
    name: String,
    labels: Labels,
    label_at: usize,
    bounds: Vec<[(Option<u64>, String); 2]>,
}

impl Expansion {
    const fn new() -> Self {
        Self { name: String::new(), labels: Labels::new(), label_at: 0, bounds: Vec::new() }
    }

    fn rename(&mut self, family: &str, suffix: &str) {
        self.name.clear();
        self.name.push_str(family);
        self.name.push_str(suffix);
    }

    /// Refills `labels` with `base` plus `key`, the one label a point's
    /// expanded samples differ in, once per point; [`Expansion::bounded`]
    /// then sets only its value.
    fn label(&mut self, base: &Labels, key: &str) {
        self.label_at = self.labels.refill_with(base, key, "");
    }

    /// Sets the expanded label to the text of `bound`, the bound at
    /// position `at` of its point.
    fn bounded(&mut self, at: usize, bound: f64) {
        if self.bounds.len() <= at {
            self.bounds.resize_with(at + 1, Default::default);
        }
        let Some([newest, older]) = self.bounds.get_mut(at) else { return };
        let bits = Some(bound.to_bits());
        if newest.0 != bits {
            std::mem::swap(newest, older);
        }
        if newest.0 != bits {
            newest.0 = bits;
            newest.1.clear();
            format_bound(&mut newest.1, bound);
        }
        self.labels.set_value_at(self.label_at, &newest.1);
    }
}

/// Writes a bucket bound or quantile the way the exposition format expects
/// (`+Inf`/`-Inf` specials, plain `{}` otherwise).
fn format_bound(out: &mut String, v: f64) {
    if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram over `bounds` holding the cumulative `counts` (`+Inf` last).
    fn histogram(bounds: &[f64], counts: &[u64], sum: f64) -> PointValue {
        PointValue::Histogram(HistogramSnapshot {
            bounds: bounds.to_vec(),
            cumulative_counts: counts.to_vec(),
            sum,
            count: counts.last().copied().unwrap_or(0),
        })
    }

    #[test]
    fn kind_round_trips_through_token() {
        for kind in [
            MetricKind::Counter,
            MetricKind::Gauge,
            MetricKind::Histogram,
            MetricKind::Summary,
            MetricKind::Untyped,
        ] {
            assert_eq!(MetricKind::from_str_token(kind.as_str()), Some(kind));
        }
        assert_eq!(MetricKind::from_str_token("bogus"), None);
        assert_eq!(MetricKind::from_str_token("unknown"), Some(MetricKind::Untyped));
    }

    #[test]
    fn scalar_of_each_value_kind() {
        assert_eq!(PointValue::Counter(3.0).scalar(), 3.0);
        assert_eq!(PointValue::Gauge(-1.0).scalar(), -1.0);
        assert_eq!(PointValue::Untyped(7.0).scalar(), 7.0);
        assert_eq!(histogram(&[1.0], &[2, 2], 0.75).scalar(), 0.75);
    }

    #[test]
    fn family_total_sums_points() {
        let fam = FamilySnapshot::new("x_total", "help", MetricKind::Counter)
            .with_point(MetricPoint::new(
                Labels::from_pairs([("a", "1")]),
                PointValue::Counter(2.0),
            ))
            .with_point(MetricPoint::new(
                Labels::from_pairs([("a", "2")]),
                PointValue::Counter(3.0),
            ));
        assert_eq!(fam.total(), 5.0);
        assert!(fam.point(&Labels::from_pairs([("a", "2")])).is_some());
        assert!(fam.point(&Labels::from_pairs([("a", "3")])).is_none());
    }

    /// Every sample [`FamilySnapshot::for_each_sample`] visits, owned.
    fn visited(fam: &FamilySnapshot) -> Vec<(String, Labels, f64, Option<u64>)> {
        let mut out = Vec::new();
        fam.for_each_sample(|name, labels, value, ts| {
            out.push((name.to_string(), labels.clone(), value, ts));
        });
        out
    }

    #[test]
    fn histogram_samples_expand_buckets() {
        // 0.5, 1.5 and 9.0 observed.
        let fam = FamilySnapshot::new("lat", "latency", MetricKind::Histogram)
            .with_point(MetricPoint::new(Labels::new(), histogram(&[1.0, 2.0], &[1, 2, 3], 11.0)));
        let samples = visited(&fam);
        let names: Vec<_> = samples.iter().map(|s| s.0.as_str()).collect();
        assert_eq!(names, vec!["lat_bucket", "lat_bucket", "lat_bucket", "lat_sum", "lat_count"]);
        let inf = samples.iter().find(|s| s.1.get("le") == Some("+Inf")).unwrap();
        assert_eq!(inf.2, 3.0);
        let count = samples.iter().find(|s| s.0 == "lat_count").unwrap();
        assert_eq!(count.2, 3.0);
    }

    #[test]
    fn a_histogram_with_fewer_counts_than_bounds_expands_without_panicking() {
        // The fields are public: an endpoint can hand over counts that stop
        // short of the bounds.  The bounds without a count are skipped.
        let short = PointValue::Histogram(HistogramSnapshot {
            bounds: vec![1.0, 2.0, 4.0],
            cumulative_counts: vec![3],
            sum: 1.5,
            count: 3,
        });
        let fam = FamilySnapshot::new("lat", "", MetricKind::Histogram)
            .with_point(MetricPoint::new(Labels::new(), short));
        let samples = visited(&fam);
        let rows: Vec<_> = samples.iter().map(|s| (s.0.as_str(), s.1.get("le"), s.2)).collect();
        assert_eq!(
            rows,
            [
                ("lat_bucket", Some("1"), 3.0),
                ("lat_bucket", Some("+Inf"), 3.0),
                ("lat_sum", None, 1.5),
                ("lat_count", None, 3.0),
            ]
        );
        assert_eq!(fam.sample_count(), samples.len());
    }

    #[test]
    fn bounds_of_alternating_layouts_are_labelled_as_written() {
        // The walk keeps the texts of the last two bounds at each position;
        // three layouts in turn must still label every bucket right.
        let layouts = [[1.0, 2.0], [0.5, 2.0], [1.0, 2.0], [4.0, 8.0], [0.5, 2.0]];
        let mut fam = FamilySnapshot::new("lat", "", MetricKind::Histogram);
        for bounds in layouts {
            fam.points.push(MetricPoint::new(Labels::new(), histogram(&bounds, &[1, 1, 1], 0.5)));
        }
        let les: Vec<String> = visited(&fam)
            .iter()
            .filter(|s| s.0 == "lat_bucket")
            .filter_map(|s| s.1.get("le").map(str::to_owned))
            .collect();
        let expected: Vec<String> = layouts
            .iter()
            .flat_map(|bounds| bounds.iter().map(f64::to_string).chain(["+Inf".to_string()]))
            .collect();
        assert_eq!(les, expected);
    }

    #[test]
    fn timestamps_are_propagated() {
        let fam = FamilySnapshot::new("g", "gauge", MetricKind::Gauge)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(1.0)).at(12345));
        assert_eq!(visited(&fam)[0].3, Some(12345));
    }

    #[test]
    fn for_each_sample_matches_samples_and_borrows_plain_points() {
        let fam = FamilySnapshot::new("lat", "latency", MetricKind::Histogram)
            .with_point(MetricPoint::new(Labels::new(), histogram(&[1.0, 2.0], &[1, 1, 1], 0.5)));
        let le = |bound: &str| Labels::from_pairs([("le", bound)]);
        let expected = vec![
            ("lat_bucket".to_string(), le("1"), 1.0, None),
            ("lat_bucket".to_string(), le("2"), 1.0, None),
            ("lat_bucket".to_string(), le("+Inf"), 1.0, None),
            ("lat_sum".to_string(), Labels::new(), 0.5, None),
            ("lat_count".to_string(), Labels::new(), 1.0, None),
        ];
        assert_eq!(visited(&fam), expected);
        assert_eq!(fam.sample_count(), expected.len(), "2 bounds + 3");
        let summary =
            SummarySnapshot { quantiles: vec![(0.5, 1.0), (0.99, 2.0)], sum: 3.0, count: 2 };
        let fam = FamilySnapshot::new("q", "", MetricKind::Summary)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Summary(summary)));
        assert_eq!(fam.sample_count(), visited(&fam).len(), "2 quantiles + 2");

        // A plain counter family passes the family name pointer straight through.
        let plain = FamilySnapshot::new("c_total", "", MetricKind::Counter)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(4.0)));
        assert_eq!(plain.sample_count(), 1);
        plain.for_each_sample(|name, _, value, _| {
            assert!(std::ptr::eq(name.as_ptr(), plain.name.as_ptr()));
            assert_eq!(value, 4.0);
        });
    }

    #[test]
    fn format_bound_handles_specials() {
        let formatted = |v: f64| {
            let mut out = String::new();
            format_bound(&mut out, v);
            out
        };
        assert_eq!(formatted(f64::INFINITY), "+Inf");
        assert_eq!(formatted(f64::NEG_INFINITY), "-Inf");
        assert_eq!(formatted(2.0), "2");
        assert_eq!(formatted(0.5), "0.5");
    }
}
