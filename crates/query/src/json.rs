//! Prometheus-HTTP-API-style JSON rendering of query results.
//!
//! The serving edge answers TeeQL queries over HTTP; this module is the
//! serialisation boundary: it turns [`Value`]s and [`RangeSeries`] into the
//! response envelope Prometheus' `/api/v1/query` and `/api/v1/query_range`
//! made conventional —
//!
//! ```json
//! {"status":"success","data":{"resultType":"vector","result":[
//!   {"metric":{"__name__":"up","job":"sgx_exporter"},"value":[5.0,"1"]}
//! ]}}
//! ```
//!
//! Sample values are rendered as **strings** (`"1"`, `"NaN"`, `"+Inf"`),
//! exactly like the exposition format, because JSON numbers cannot carry the
//! IEEE specials; timestamps are seconds as JSON numbers.
//!
//! Bodies are written straight into one pre-sized `String` — envelope,
//! `metric` object, timestamps and value strings appended in order, no
//! intermediate tree — because a dashboard refresh renders tens of thousands
//! of points and a tree costs three allocations per point before a byte is
//! produced.  For the same reason the two numbers of a point skip
//! `core::fmt` where their text is plain digits — whole-second timestamps
//! and integral values — and a matrix renders each `[<seconds>,"` prefix of
//! its step grid once, copying it into every series that shares the step.

use std::fmt::Write as _;

use teemon_metrics::exposition::write_value;
use teemon_metrics::Labels;
use teemon_tsdb::Sample;

use crate::eval::{RangeSeries, Value};

/// Bytes reserved per rendered point: `[1700000000,"12.480833333333324"],`
/// is 35; short values leave slack, long ones grow the buffer once.
const BYTES_PER_POINT: usize = 32;
/// Bytes reserved per series for `{"metric":{…},"values":[]},` around a
/// handful of labels.
const BYTES_PER_SERIES: usize = 128;

/// Up to `2^53` ms a whole-second timestamp divides exactly into the `f64`
/// seconds the general path prints, so the digit loop writes the same text.
const EXACT_MS: u64 = 1 << 53;
/// Integral values of smaller magnitude are written by the digit loop; `{v}`
/// prints exactly their digits (`-0.0` aside, which keeps its sign).
const INTEGRAL_BELOW: f64 = 1e15;

/// The success envelope around whatever `result` writes, in a body reserved
/// for about `capacity` bytes of it.
fn success(result_type: &str, capacity: usize, result: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(64 + capacity);
    out.push_str(r#"{"status":"success","data":{"resultType":""#);
    out.push_str(result_type);
    out.push_str(r#"","result":"#);
    result(&mut out);
    out.push_str("}}");
    out
}

/// A JSON string literal with the escapes `serde_json` applies: `\"`, `\\`,
/// `\n`, `\r`, `\t`, `\u00XX` for the other control characters, everything
/// else (multi-byte UTF-8 included) verbatim.
fn push_string(out: &mut String, text: &str) {
    out.push('"');
    let mut clean_from = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // `at` is an ASCII byte, hence a char boundary.
        out.push_str(text.get(clean_from..at).unwrap_or_default());
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        clean_from = at + 1;
    }
    out.push_str(text.get(clean_from..).unwrap_or_default());
    out.push('"');
}

/// `{"__name__": name?, ...labels}` — the `metric` object of one series.
fn push_metric(out: &mut String, name: Option<&str>, labels: &Labels) {
    out.push('{');
    let name = name.map(|name| ("__name__", name));
    for (i, (key, value)) in name.into_iter().chain(labels.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, key);
        out.push(':');
        push_string(out, value);
    }
    out.push('}');
}

/// `[seconds, "value"]` — one sample pair.
fn push_pair(out: &mut String, timestamp_ms: u64, value: f64) {
    push_prefix(out, timestamp_ms);
    push_value(out, value);
    out.push_str("\"]");
}

/// `[seconds,"` — a pair up to its value.  The timestamp is a JSON number:
/// whole seconds without a fraction, anything else as `f64` seconds.
fn push_prefix(out: &mut String, timestamp_ms: u64) {
    out.push('[');
    if timestamp_ms.is_multiple_of(1000) && timestamp_ms <= EXACT_MS {
        push_digits(out, timestamp_ms / 1000);
    } else {
        let seconds = timestamp_ms as f64 / 1e3;
        let _ = if seconds.fract() == 0.0 && seconds < 9.0e15 {
            write!(out, "{}", seconds as i64)
        } else {
            write!(out, "{seconds}")
        };
    }
    out.push_str(",\"");
}

/// A sample value as the exposition format writes it ([`write_value`]),
/// which never needs escaping.
fn push_value(out: &mut String, value: f64) {
    let negative_zero = value == 0.0 && value.is_sign_negative();
    if value.fract() == 0.0 && value.abs() < INTEGRAL_BELOW && !negative_zero {
        if value < 0.0 {
            out.push('-');
        }
        push_digits(out, value.abs() as u64);
    } else {
        write_value(out, value);
    }
}

/// `n` in decimal, as `{n}` writes it.
fn push_digits(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        start -= 1;
        if n == 0 {
            break;
        }
    }
    // ASCII digits only, so the check always passes.
    if let Ok(text) = std::str::from_utf8(digits.get(start..).unwrap_or_default()) {
        out.push_str(text);
    }
}

/// The `[seconds,"` prefixes of one series' points, rendered once and copied
/// into the pairs of every series that shares their timestamps — on one step
/// grid, every series of a matrix.
#[derive(Default)]
struct Prefixes {
    text: String,
    /// Per point, in the series' order: its timestamp and where its prefix
    /// ends in `text`.
    ends: Vec<(u64, usize)>,
}

impl Prefixes {
    fn of(points: &[Sample]) -> Self {
        let mut text = String::with_capacity(points.len() * BYTES_PER_POINT / 2);
        let ends = points
            .iter()
            .map(|point| {
                push_prefix(&mut text, point.timestamp_ms);
                (point.timestamp_ms, text.len())
            })
            .collect();
        Self { text, ends }
    }

    /// A reader for one series whose timestamps ascend, as a range result's
    /// do.
    fn cursor(&self) -> PrefixCursor<'_> {
        PrefixCursor { prefixes: self, at: 0 }
    }
}

/// Walks [`Prefixes`] alongside one series: a timestamp it holds is copied,
/// any other rendered afresh, so a series off the shared grid (or out of
/// order) is written correctly, only more slowly.
struct PrefixCursor<'a> {
    prefixes: &'a Prefixes,
    /// The first entry not yet passed.
    at: usize,
}

impl PrefixCursor<'_> {
    fn push(&mut self, out: &mut String, timestamp_ms: u64) {
        let ends = &self.prefixes.ends;
        while ends.get(self.at).is_some_and(|&(t, _)| t < timestamp_ms) {
            self.at += 1;
        }
        let start = self.at.checked_sub(1).and_then(|before| ends.get(before)).map_or(0, |e| e.1);
        let cached = match ends.get(self.at) {
            Some(&(t, end)) if t == timestamp_ms => self.prefixes.text.get(start..end),
            _ => None,
        };
        match cached {
            Some(prefix) => {
                out.push_str(prefix);
                self.at += 1;
            }
            None => push_prefix(out, timestamp_ms),
        }
    }
}

/// `[a,b,…]` with each element written by `item`; `[]` when there are none.
fn push_array<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, element) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, element);
    }
    out.push(']');
}

/// Renders an instant-query [`Value`] as a success response.  Scalars become
/// `resultType: "scalar"`, vectors `"vector"`, and bare range selectors
/// `"matrix"`; `at_ms` stamps scalar and vector samples (they carry no
/// timestamp of their own).
pub fn instant_response(value: &Value, at_ms: u64) -> String {
    match value {
        Value::Scalar(v) => success("scalar", BYTES_PER_POINT, |out| push_pair(out, at_ms, *v)),
        Value::Vector(samples) => {
            let capacity = samples.len() * (BYTES_PER_SERIES + BYTES_PER_POINT);
            success("vector", capacity, |out| {
                push_array(out, samples, |out, s| {
                    out.push_str(r#"{"metric":"#);
                    push_metric(out, s.name.as_deref(), &s.labels);
                    out.push_str(r#","value":"#);
                    push_pair(out, at_ms, s.value);
                    out.push('}');
                });
            })
        }
        Value::Matrix(series) => range_response(series),
    }
}

/// Renders a range-query result as a `resultType: "matrix"` success
/// response.
pub fn range_response(series: &[RangeSeries]) -> String {
    let capacity: usize =
        series.iter().map(|s| BYTES_PER_SERIES + s.points.len() * BYTES_PER_POINT).sum();
    // The longest series' timestamps stand for the grid; a lone series has
    // nobody to share its prefixes with.
    let longest = series.iter().max_by_key(|s| s.points.len()).filter(|_| series.len() > 1);
    let prefixes = longest.map(|s| Prefixes::of(&s.points)).unwrap_or_default();
    success("matrix", capacity, |out| {
        push_array(out, series, |out, s| {
            out.push_str(r#"{"metric":"#);
            push_metric(out, s.name.as_deref(), &s.labels);
            out.push_str(r#","values":"#);
            let mut prefix = prefixes.cursor();
            push_array(out, &s.points, |out, point| {
                prefix.push(out, point.timestamp_ms);
                push_value(out, point.value);
                out.push_str("\"]");
            });
            out.push('}');
        });
    })
}

/// Renders an error response: `{"status":"error","errorType":...,
/// "error":...}`.  `error_type` follows the Prometheus vocabulary —
/// `"bad_data"` for malformed queries, `"internal"` for engine failures.
pub fn error_response(error_type: &str, message: &str) -> String {
    let mut out = String::with_capacity(48 + error_type.len() + message.len());
    out.push_str(r#"{"status":"error","errorType":"#);
    push_string(&mut out, error_type);
    out.push_str(r#","error":"#);
    push_string(&mut out, message);
    out.push('}');
    out
}

/// The renderer this module had before the direct writer — a `serde::Value`
/// tree handed to `serde_json::to_string` — kept as the byte-for-byte oracle.
#[cfg(test)]
mod tree {
    use serde::Value as Json;
    use teemon_metrics::exposition::write_value;
    use teemon_metrics::Labels;

    use crate::eval::{RangeSeries, Value};

    fn metric_object(name: Option<&str>, labels: &Labels) -> Json {
        let mut entries: Vec<(String, Json)> = Vec::with_capacity(labels.len() + 1);
        if let Some(name) = name {
            entries.push(("__name__".to_string(), Json::String(name.to_string())));
        }
        for (k, v) in labels.iter() {
            entries.push((k.to_string(), Json::String(v.to_string())));
        }
        Json::Object(entries)
    }

    fn sample_pair(timestamp_ms: u64, value: f64) -> Json {
        let mut text = String::new();
        write_value(&mut text, value);
        Json::Array(vec![Json::Number(timestamp_ms as f64 / 1e3), Json::String(text)])
    }

    fn success(result_type: &str, result: Json) -> String {
        let data = Json::Object(vec![
            ("resultType".to_string(), Json::String(result_type.to_string())),
            ("result".to_string(), result),
        ]);
        let envelope = Json::Object(vec![
            ("status".to_string(), Json::String("success".to_string())),
            ("data".to_string(), data),
        ]);
        serde_json::to_string(&envelope).unwrap()
    }

    pub fn instant_response(value: &Value, at_ms: u64) -> String {
        match value {
            Value::Scalar(v) => success("scalar", sample_pair(at_ms, *v)),
            Value::Vector(samples) => {
                let result = samples
                    .iter()
                    .map(|s| {
                        Json::Object(vec![
                            ("metric".to_string(), metric_object(s.name.as_deref(), &s.labels)),
                            ("value".to_string(), sample_pair(at_ms, s.value)),
                        ])
                    })
                    .collect();
                success("vector", Json::Array(result))
            }
            Value::Matrix(series) => success("matrix", matrix_result(series)),
        }
    }

    pub fn range_response(series: &[RangeSeries]) -> String {
        success("matrix", matrix_result(series))
    }

    fn matrix_result(series: &[RangeSeries]) -> Json {
        Json::Array(
            series
                .iter()
                .map(|s| {
                    let values = s
                        .points
                        .iter()
                        .map(|p| sample_pair(p.timestamp_ms, p.value))
                        .collect::<Vec<Json>>();
                    Json::Object(vec![
                        ("metric".to_string(), metric_object(s.name.as_deref(), &s.labels)),
                        ("values".to_string(), Json::Array(values)),
                    ])
                })
                .collect(),
        )
    }

    pub fn error_response(error_type: &str, message: &str) -> String {
        let envelope = Json::Object(vec![
            ("status".to_string(), Json::String("error".to_string())),
            ("errorType".to_string(), Json::String(error_type.to_string())),
            ("error".to_string(), Json::String(message.to_string())),
        ]);
        serde_json::to_string(&envelope).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use proptest::proptest;
    use serde::Value as Json;

    use super::*;
    use crate::eval::VectorSample;

    fn parse(text: &str) -> Json {
        serde_json::from_str(text).expect("rendered JSON must reparse")
    }

    /// Strings that exercise every escape arm and multi-byte passthrough.
    fn text(pick: u8, n: u16) -> String {
        match pick % 9 {
            0 => String::new(),
            1 => format!("plain_{n}"),
            2 => format!("quo\"te{n}"),
            3 => format!("back\\slash\\{n}"),
            4 => format!("line\nbreak\rreturn{n}"),
            5 => format!("tab\there{n}"),
            6 => format!("ctl\u{1}\u{1f}\u{0}{n}"),
            7 => format!("ünï-cødé-節点-🦀{n}"),
            _ => format!("\"\\\n\t\u{7}é{n}\u{7f}"),
        }
    }

    fn value(pick: u8, raw: u16) -> f64 {
        match pick % 12 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => 1e21,
            6 => 1e-7,
            7 => f64::from(raw),
            8 => -f64::from(raw) * 1e300,
            9 => f64::from(raw) / 7.0,
            10 => 9.0e15 + f64::from(raw),
            _ => f64::from(raw) * 1e-310,
        }
    }

    /// Whole seconds, fractional seconds, zero and the top of the range.
    fn timestamp(pick: u8, raw: u16) -> u64 {
        match pick % 5 {
            0 => u64::from(raw) * 1_000,
            1 => u64::from(raw) * 1_000 + u64::from(raw % 999) + 1,
            2 => 0,
            3 => u64::MAX - u64::from(raw),
            _ => 1_700_000_000_000 + u64::from(raw) * 15_000,
        }
    }

    /// (name pick, n), label specs, point specs.
    type SeriesSpec = ((u8, u16), Vec<(u8, u16)>, Vec<(u8, u8, u16)>);

    fn labels(spec: &[(u8, u16)]) -> Labels {
        Labels::from_pairs(spec.iter().map(|&(pick, n)| (format!("l{n}"), text(pick, n))))
    }

    fn range_series(specs: &[SeriesSpec]) -> Vec<RangeSeries> {
        specs
            .iter()
            .map(|((name_pick, n), label_spec, points)| RangeSeries {
                // `name: None` with empty labels renders `"metric":{}`.
                name: (name_pick % 3 != 0).then(|| text(*name_pick, *n)),
                labels: labels(label_spec),
                points: points
                    .iter()
                    .map(|&(tp, vp, raw)| Sample {
                        timestamp_ms: timestamp(tp, raw),
                        value: value(vp, raw),
                    })
                    .collect(),
            })
            .collect()
    }

    proptest! {
        /// The direct writer is byte-identical to the tree renderer over
        /// random matrices: hostile names and label values, every special
        /// float, whole and fractional timestamps, empty matrices, empty
        /// point lists and nameless label-less series.
        #[test]
        fn range_bodies_match_the_tree_renderer(
            specs in proptest::collection::vec(
                (
                    (0u8..18, 0u16..1000),
                    proptest::collection::vec((0u8..18, 0u16..6), 0..4),
                    proptest::collection::vec((0u8..10, 0u8..24, 0u16..u16::MAX), 0..12),
                ),
                0..5,
            ),
        ) {
            let series = range_series(&specs);
            assert_eq!(range_response(&series), tree::range_response(&series));
            let matrix = Value::Matrix(series);
            assert_eq!(instant_response(&matrix, 1_500), tree::instant_response(&matrix, 1_500));
        }

        #[test]
        fn instant_and_error_bodies_match_the_tree_renderer(
            specs in proptest::collection::vec(
                ((0u8..18, 0u16..1000), proptest::collection::vec((0u8..18, 0u16..6), 0..4), 0u8..24),
                0..6,
            ),
            at in (0u8..10, 0u16..u16::MAX),
            message in (0u8..18, 0u8..18, 0u16..1000),
        ) {
            let at_ms = timestamp(at.0, at.1);
            let vector = Value::Vector(
                specs
                    .iter()
                    .map(|((name_pick, n), label_spec, vp)| VectorSample {
                        name: (name_pick % 3 != 0).then(|| text(*name_pick, *n)),
                        labels: labels(label_spec),
                        value: value(*vp, *n),
                    })
                    .collect(),
            );
            assert_eq!(instant_response(&vector, at_ms), tree::instant_response(&vector, at_ms));
            let scalar = Value::Scalar(value(message.0, message.2));
            assert_eq!(instant_response(&scalar, at_ms), tree::instant_response(&scalar, at_ms));
            let (kind, text) = (text(message.0, message.2), text(message.1, message.2));
            assert_eq!(error_response(&kind, &text), tree::error_response(&kind, &text));
        }
    }

    /// The digit loops and the shared prefixes against the tree renderer on
    /// the edges of each fast path: every value on every timestamp, then
    /// matrices whose series sit on different grids, so a copied prefix
    /// could only ever be the right one.
    #[test]
    fn fast_paths_match_the_tree_renderer_on_their_edges() {
        const TWO_53: u64 = 1 << 53;
        let values = [
            0.0,
            -0.0,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            -1e15,
            TWO_53 as f64,
            0.1,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // The last whole second of `u64` is past the digit loop's reach: its
        // `f64` seconds print rounded.
        let timestamps =
            [0, 999, 1_000, TWO_53, TWO_53 + 1_000, u64::MAX - u64::MAX % 1_000, u64::MAX];
        let series = |points: Vec<_>| RangeSeries {
            name: Some("m".to_string()),
            labels: Labels::new(),
            points: points
                .into_iter()
                .map(|(timestamp_ms, value)| Sample { timestamp_ms, value })
                .collect(),
        };
        let grid: Vec<RangeSeries> =
            values.iter().map(|&v| series(timestamps.iter().map(|&t| (t, v)).collect())).collect();
        for one in &grid {
            let alone = std::slice::from_ref(one);
            assert_eq!(range_response(alone), tree::range_response(alone));
        }
        assert_eq!(range_response(&grid), tree::range_response(&grid));

        let off_grid = [
            vec![(1_000, 1.0), (2_000, 2.0), (3_000, 3.0), (4_000, 4.0)],
            vec![(1_500, 1.0), (2_000, 2.0), (4_000, 4.0)],
            vec![(3_000, 3.0), (2_000, 2.0), (1_000, 1.0)],
            vec![(2_000, 2.0), (2_000, 2.5), (5_000, 5.0)],
            vec![(0, 0.0), (999, 0.5), (u64::MAX, 7.0)],
            vec![],
        ];
        // Each series in turn leads the matrix, and so does the longest.
        for lead in 0..off_grid.len() {
            let mut matrix: Vec<RangeSeries> = off_grid.iter().cloned().map(series).collect();
            matrix.rotate_left(lead);
            assert_eq!(range_response(&matrix), tree::range_response(&matrix));
            matrix.reverse();
            assert_eq!(range_response(&matrix), tree::range_response(&matrix));
        }
    }

    #[test]
    fn empties_render_as_empty_containers() {
        assert_eq!(
            range_response(&[]),
            r#"{"status":"success","data":{"resultType":"matrix","result":[]}}"#
        );
        let bare = RangeSeries { name: None, labels: Labels::new(), points: Vec::new() };
        assert_eq!(
            range_response(&[bare]),
            r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":{},"values":[]}]}}"#
        );
        assert_eq!(
            instant_response(&Value::Vector(Vec::new()), 0),
            r#"{"status":"success","data":{"resultType":"vector","result":[]}}"#
        );
    }

    #[test]
    fn vector_response_has_the_prometheus_shape() {
        let value = Value::Vector(vec![VectorSample {
            name: Some("up".to_string()),
            labels: Labels::from_pairs([("job", "sgx_exporter")]),
            value: 1.0,
        }]);
        let json = parse(&instant_response(&value, 5_000));
        assert_eq!(json.get("status").and_then(Json::as_str), Some("success"));
        let data = json.get("data").expect("data");
        assert_eq!(data.get("resultType").and_then(Json::as_str), Some("vector"));
        let result = data.get("result").and_then(Json::as_array).expect("result array");
        let metric = result[0].get("metric").expect("metric");
        assert_eq!(metric.get("__name__").and_then(Json::as_str), Some("up"));
        assert_eq!(metric.get("job").and_then(Json::as_str), Some("sgx_exporter"));
        let pair = result[0].get("value").and_then(Json::as_array).expect("value pair");
        assert_eq!(pair[0].as_f64(), Some(5.0));
        assert_eq!(pair[1].as_str(), Some("1"));
    }

    #[test]
    fn scalar_and_specials_render_as_strings() {
        let json = parse(&instant_response(&Value::Scalar(f64::INFINITY), 1_000));
        let pair = json
            .get("data")
            .and_then(|d| d.get("result"))
            .and_then(Json::as_array)
            .expect("scalar pair");
        assert_eq!(pair[1].as_str(), Some("+Inf"));
        assert_eq!(
            json.get("data").and_then(|d| d.get("resultType")).and_then(Json::as_str),
            Some("scalar")
        );
    }

    #[test]
    fn range_response_lists_per_series_values() {
        let series = vec![RangeSeries {
            name: None,
            labels: Labels::from_pairs([("node", "n1")]),
            points: vec![
                Sample { timestamp_ms: 5_000, value: 1.5 },
                Sample { timestamp_ms: 10_000, value: 2.5 },
            ],
        }];
        let json = parse(&range_response(&series));
        let data = json.get("data").expect("data");
        assert_eq!(data.get("resultType").and_then(Json::as_str), Some("matrix"));
        let result = data.get("result").and_then(Json::as_array).expect("result");
        let metric = result[0].get("metric").expect("metric");
        assert!(metric.get("__name__").is_none(), "dropped names stay dropped");
        let values = result[0].get("values").and_then(Json::as_array).expect("values");
        assert_eq!(values.len(), 2);
        assert_eq!(values[1].as_array().and_then(|p| p[0].as_f64()), Some(10.0));
        assert_eq!(values[1].as_array().and_then(|p| p[1].as_str()), Some("2.5"));
    }

    #[test]
    fn error_response_carries_type_and_message() {
        let json = parse(&error_response("bad_data", "parse error at 1:3"));
        assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(json.get("errorType").and_then(Json::as_str), Some("bad_data"));
        assert_eq!(json.get("error").and_then(Json::as_str), Some("parse error at 1:3"));
    }
}
