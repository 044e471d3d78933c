//! Seeded input generators: remote-write request templates, in-place scrape
//! endpoints, the `dashboard_read` data set with its closed-form answers, and
//! the four dashboard panel shapes.

use std::sync::{Arc, Mutex};

use serde_json::Value as Json;
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_server::percent_encode;
use teemon_tsdb::{MetricsEndpoint, ScrapeError, SeriesHandle, TimeSeriesDb};

use crate::client::{render_get, render_write_head};
use crate::util::Rng;

/// Logical time of the first sample of every workload (an epoch-like value,
/// so timestamps have the magnitude a deployment's have).
pub const ORIGIN_MS: u64 = 1_700_000_000_000;
/// Every logical clock advances by the paper's 5 s scrape interval.
pub const TICK_MS: u64 = 5_000;

const FAMILIES: usize = 8;
const NODES: usize = 64;
const VALUE_DIGITS: usize = 10;
const TS_DIGITS: usize = 13;
const POD_DIGITS: usize = 8;

fn write_decimal(dst: &mut [u8], mut value: u64) {
    for slot in dst.iter_mut().rev() {
        *slot = b'0' + (value % 10) as u8;
        value /= 10;
    }
}

fn write_hex(dst: &mut [u8], mut value: u32) {
    for slot in dst.iter_mut().rev() {
        *slot = b"0123456789abcdef"[(value & 0xf) as usize];
        value >>= 4;
    }
}

/// One writer's pre-rendered `POST /api/v1/write`: the series set is fixed
/// text, and each batch only patches the fixed-width value, timestamp and
/// (for churn) `pod` fields in place — so producing a body costs a few
/// microseconds and the generator stays out of the CPU numbers.
pub struct WriteTemplate {
    /// Head and body, sent with a single write.
    pub request: Vec<u8>,
    body_start: usize,
    value_at: Vec<usize>,
    ts_at: Vec<usize>,
    pod_at: Vec<usize>,
    /// Never-repeating `pod` values: an odd multiplier is a bijection on u32.
    pod_counter: u32,
    pod_offset: u32,
}

impl WriteTemplate {
    /// `samples` series over 8 families named `{prefix}_m0..7`, labelled
    /// `node` (64 values, every family on every node), `idx`, `client`, and
    /// `pod` when `churning`.
    pub fn new(prefix: &str, client: usize, samples: usize, churning: bool, rng: &mut Rng) -> Self {
        let idx_base = rng.below(900_000);
        let mut template = Self {
            request: Vec::new(),
            body_start: 0,
            value_at: Vec::with_capacity(samples),
            ts_at: Vec::with_capacity(samples),
            pod_at: Vec::new(),
            pod_counter: 0,
            pod_offset: rng.next_u64() as u32,
        };
        let mut body: Vec<u8> = Vec::with_capacity(samples * 80);
        for family in 0..FAMILIES {
            body.extend_from_slice(format!("# TYPE {prefix}_m{family} gauge\n").as_bytes());
            for i in (family..samples).step_by(FAMILIES) {
                body.extend_from_slice(
                    format!(
                        "{prefix}_m{family}{{node=\"node-{}\",idx=\"{}\",client=\"{client}\"",
                        (i / FAMILIES) % NODES,
                        idx_base + i
                    )
                    .as_bytes(),
                );
                if churning {
                    body.extend_from_slice(b",pod=\"p-");
                    template.pod_at.push(body.len());
                    let pod = template.next_pod();
                    body.extend_from_slice(&[b'0'; POD_DIGITS]);
                    let at = body.len() - POD_DIGITS;
                    write_hex(&mut body[at..], pod);
                    body.push(b'"');
                }
                body.extend_from_slice(b"} ");
                template.value_at.push(body.len());
                body.extend_from_slice(&[b'0'; VALUE_DIGITS]);
                body.push(b' ');
                template.ts_at.push(body.len());
                body.extend_from_slice(&[b'0'; TS_DIGITS]);
                body.push(b'\n');
            }
        }
        template.request = render_write_head(body.len());
        template.body_start = template.request.len();
        template.request.extend_from_slice(&body);
        template
    }

    fn next_pod(&mut self) -> u32 {
        self.pod_counter = self.pod_counter.wrapping_add(1);
        self.pod_counter.wrapping_mul(0x9e37_79b1).wrapping_add(self.pod_offset)
    }

    pub fn samples(&self) -> usize {
        self.value_at.len()
    }

    /// Stamps every sample of the next batch.
    pub fn patch(&mut self, timestamp_ms: u64, value: u64) {
        for (&v, &t) in self.value_at.iter().zip(&self.ts_at) {
            let v = self.body_start + v;
            let t = self.body_start + t;
            write_decimal(&mut self.request[v..v + VALUE_DIGITS], value);
            write_decimal(&mut self.request[t..t + TS_DIGITS], timestamp_ms);
        }
    }

    /// Renames `count` seeded series: their `pod` label takes a value never
    /// used before, so the server sees `count` new series and as many that
    /// stopped reporting.
    pub fn churn(&mut self, count: usize, rng: &mut Rng) {
        for _ in 0..count {
            let at = self.body_start + self.pod_at[rng.below(self.pod_at.len())];
            let pod = self.next_pod();
            write_hex(&mut self.request[at..at + POD_DIGITS], pod);
        }
    }
}

/// A typed scrape target whose gauges are refreshed in place: the series set
/// never changes, so the scrape cache hits every round.
pub struct SteadyEndpoint(Mutex<Vec<FamilySnapshot>>);

impl SteadyEndpoint {
    /// `series` gauges over 8 families `pull_m0..7`, `node` × 64 and a
    /// seeded `idx`.
    pub fn new(series: usize, rng: &mut Rng) -> Arc<Self> {
        let idx_base = rng.below(900_000);
        let mut families: Vec<FamilySnapshot> = (0..FAMILIES)
            .map(|m| FamilySnapshot::new(format!("pull_m{m}"), "generated", MetricKind::Gauge))
            .collect();
        for i in 0..series {
            let labels = Labels::from_pairs([
                ("node", format!("node-{}", (i / FAMILIES) % NODES)),
                ("idx", format!("{}", idx_base + i)),
            ]);
            families[i % FAMILIES].points.push(MetricPoint::new(labels, PointValue::Gauge(0.0)));
        }
        Arc::new(Self(Mutex::new(families)))
    }
}

impl MetricsEndpoint for SteadyEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().expect("endpoint mutex is never poisoned").clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut families = self.0.lock().expect("endpoint mutex is never poisoned");
        for family in families.iter_mut() {
            for point in &mut family.points {
                if let PointValue::Gauge(v) = &mut point.value {
                    *v += 1.0;
                }
            }
        }
        visit(&families);
        Ok(())
    }
}

/// The four panel shapes of one dashboard refresh.
pub const PANEL_NAMES: [&str; 4] = ["P1", "P2", "P3", "P4"];
const WHOLE_RANGE_CAP_MS: u64 = 2 * 60 * 60 * 1000;

struct Panel {
    /// The TeeQL text (the traced run parses it directly).
    expr: String,
    /// `None` reads the whole stored range (capped at 2 h on growing stores).
    window_ms: Option<u64>,
    step_ms: u64,
}

/// One client's dashboard: P1 wide fan-in `sum by (node) (rate(..[5m]))`, P2
/// narrow sort-heavy `quantile_over_time`, P3 tiny head-only instant
/// selector, P4 `max by (node) (increase(..[1m]))` decoding every chunk.
pub struct PanelSet {
    panels: [Panel; 4],
    /// Oldest timestamp the store can hold for these series.
    origin_ms: u64,
}

/// A panel request resolved against a logical `now`.
pub struct PanelQuery<'a> {
    pub expr: &'a str,
    pub start_ms: u64,
    pub end_ms: u64,
    pub step_ms: u64,
}

impl PanelSet {
    /// Panels over `{prefix}0..3`, every selector narrowed by `matcher`
    /// (`client="0"`, or empty).
    pub fn new(prefix: &str, matcher: &str, origin_ms: u64) -> Self {
        let with = |first: &str| match (first.is_empty(), matcher.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{matcher}}}"),
            (false, true) => format!("{{{first}}}"),
            (false, false) => format!("{{{first},{matcher}}}"),
        };
        let minute = 60_000;
        let panels = [
            Panel {
                expr: format!("sum by (node) (rate({prefix}0{}[5m]))", with("")),
                window_ms: Some(60 * minute),
                step_ms: 15_000,
            },
            Panel {
                expr: format!("quantile_over_time(0.99, {prefix}1{}[5m])", with("node=\"node-7\"")),
                window_ms: Some(60 * minute),
                step_ms: 15_000,
            },
            Panel {
                expr: format!("{prefix}2{}", with("node=\"node-3\"")),
                window_ms: Some(5 * minute),
                step_ms: 5_000,
            },
            Panel {
                expr: format!("max by (node) (increase({prefix}3{}[1m]))", with("")),
                window_ms: None,
                step_ms: 30_000,
            },
        ];
        Self { panels, origin_ms }
    }

    pub fn query(&self, panel: usize, now_ms: u64) -> PanelQuery<'_> {
        let p = &self.panels[panel];
        let window = p.window_ms.unwrap_or(WHOLE_RANGE_CAP_MS);
        PanelQuery {
            expr: &p.expr,
            start_ms: now_ms.saturating_sub(window).max(self.origin_ms),
            end_ms: now_ms,
            step_ms: p.step_ms,
        }
    }

    /// The rendered `GET /api/v1/query_range` for `panel` at `now_ms`.
    pub fn request(&self, panel: usize, now_ms: u64) -> Vec<u8> {
        let q = self.query(panel, now_ms);
        // Every logical time is a whole number of seconds.
        render_get(&format!(
            "/api/v1/query_range?query={}&start={}&end={}&step={}",
            percent_encode(q.expr),
            q.start_ms / 1000,
            q.end_ms / 1000,
            q.step_ms / 1000
        ))
    }
}

/// `dashboard_read`'s store: 4 counters × 50 nodes × 10 pods, 1440 samples
/// each at 5 s (12 sealed chunks + head).  Series `i` starts at `1000·i` and
/// rises by `25 + (i + shift) mod 100` per tick, so every panel answer has a
/// closed form.
pub struct DashboardData {
    shift: usize,
    pods: Vec<String>,
}

const DASH_NAMES: usize = 4;
const DASH_NODES: usize = 50;
const DASH_PODS: usize = 10;
pub const DASH_TICKS: u64 = 1440;

impl DashboardData {
    pub fn new(rng: &mut Rng) -> Self {
        let shift = rng.below(100);
        let pods = (0..DASH_PODS).map(|p| format!("pod-{p}-{:06x}", rng.below(1 << 24))).collect();
        Self { shift, pods }
    }

    pub fn series_count() -> usize {
        DASH_NAMES * DASH_NODES * DASH_PODS
    }

    /// Logical time of the newest preloaded sample.
    pub fn now_ms() -> u64 {
        ORIGIN_MS + (DASH_TICKS - 1) * TICK_MS
    }

    fn index(name: usize, node: usize, pod: usize) -> usize {
        (name * DASH_NODES + node) * DASH_PODS + pod
    }

    fn slope(&self, i: usize) -> f64 {
        (25 + (i + self.shift) % 100) as f64
    }

    fn value(&self, i: usize, tick: u64) -> f64 {
        (1000 * i) as f64 + self.slope(i) * tick as f64
    }

    /// Loads the store through `resolve` + `append_batch`, one batch and one
    /// WAL flush per tick (a deployment flushes once per scrape round).
    /// Returns the samples appended.
    pub fn preload(&self, db: &TimeSeriesDb) -> u64 {
        let mut handles: Vec<SeriesHandle> = Vec::with_capacity(Self::series_count());
        for name in 0..DASH_NAMES {
            for node in 0..DASH_NODES {
                for pod in &self.pods {
                    let labels = Labels::from_pairs([
                        ("node", format!("node-{node}")),
                        ("pod", pod.clone()),
                    ]);
                    handles.push(db.resolve(&format!("m{name}"), &labels));
                }
            }
        }
        let mut batch: Vec<(SeriesHandle, u64, f64)> = Vec::with_capacity(handles.len());
        let mut appended = 0;
        for tick in 0..DASH_TICKS {
            batch.clear();
            for (i, &handle) in handles.iter().enumerate() {
                batch.push((handle, ORIGIN_MS + tick * TICK_MS, self.value(i, tick)));
            }
            appended += db.append_batch(&batch).appended;
            db.wal_flush();
        }
        appended
    }

    /// Checks a panel's JSON answer against the generator's closed form.
    pub fn check(&self, panels: &PanelSet, panel: usize, body: &[u8]) -> Result<(), String> {
        let q = panels.query(panel, Self::now_ms());
        let steps: Vec<u64> =
            (q.start_ms..=q.end_ms).step_by(q.step_ms as usize).collect::<Vec<_>>();
        let tick_of = |t: u64| (t - ORIGIN_MS) / TICK_MS;
        let mut expected: Vec<ExpectedSeries> = Vec::new();
        match panel {
            0 => {
                for node in 0..DASH_NODES {
                    // rate = increase between the window's end points ÷ their
                    // distance: slope / 5 s for a linear counter, whatever
                    // the window holds.
                    let sum: f64 = (0..DASH_PODS)
                        .map(|p| self.slope(Self::index(0, node, p)) / (TICK_MS as f64 / 1000.0))
                        .sum();
                    let points =
                        steps.iter().filter(|&&t| tick_of(t) >= 1).map(|&t| (t, sum)).collect();
                    expected.push(("node", format!("node-{node}"), points));
                }
            }
            1 => {
                for (p, pod) in self.pods.iter().enumerate() {
                    let i = Self::index(1, 7, p);
                    let points = steps
                        .iter()
                        .map(|&t| {
                            // Interpolated 0.99 quantile of the (ascending)
                            // window values, as `quantile_of_sorted` does it.
                            let newest = tick_of(t);
                            let oldest = newest.saturating_sub(60);
                            let pos = 0.99 * (newest - oldest) as f64;
                            let lower = self.value(i, oldest + pos.floor() as u64);
                            let upper = self.value(i, oldest + pos.ceil() as u64);
                            let w = pos - pos.floor();
                            (t, if w == 0.0 { lower } else { lower * (1.0 - w) + upper * w })
                        })
                        .collect();
                    expected.push(("pod", pod.clone(), points));
                }
            }
            2 => {
                for (p, pod) in self.pods.iter().enumerate() {
                    let i = Self::index(2, 3, p);
                    let points = steps.iter().map(|&t| (t, self.value(i, tick_of(t)))).collect();
                    expected.push(("pod", pod.clone(), points));
                }
            }
            _ => {
                for node in 0..DASH_NODES {
                    let steepest = (0..DASH_PODS)
                        .map(|p| self.slope(Self::index(3, node, p)))
                        .fold(0.0, f64::max);
                    let points = steps
                        .iter()
                        .filter(|&&t| tick_of(t) >= 1)
                        .map(|&t| (t, steepest * tick_of(t).min(12) as f64))
                        .collect();
                    expected.push(("node", format!("node-{node}"), points));
                }
            }
        }

        let got = parse_matrix(body)?;
        if got.len() != expected.len() {
            return Err(format!("{} series, expected {}", got.len(), expected.len()));
        }
        for (label, value, points) in &expected {
            let series = got
                .iter()
                .find(|s| s.labels.iter().any(|(k, v)| k == label && v == value))
                .ok_or_else(|| format!("no series with {label}={value}"))?;
            if series.points.len() != points.len() {
                return Err(format!(
                    "{label}={value}: {} points, expected {}",
                    series.points.len(),
                    points.len()
                ));
            }
            for (&(t, v), &(et, ev)) in series.points.iter().zip(points) {
                if t != et || (v - ev).abs() > 1e-9 * ev.abs().max(1.0) {
                    return Err(format!("{label}={value}: ({t}, {v}) expected ({et}, {ev})"));
                }
            }
        }
        Ok(())
    }
}

/// What a panel must answer for one series: (the label to find it by, that
/// label's value, the expected points).
type ExpectedSeries = (&'static str, String, Vec<(u64, f64)>);

/// One series of a parsed `query_range` answer.
pub struct MatrixSeries {
    pub labels: Vec<(String, String)>,
    pub points: Vec<(u64, f64)>,
}

/// Parses the Prometheus-shaped matrix envelope.
pub fn parse_matrix(body: &[u8]) -> Result<Vec<MatrixSeries>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let json: Json = serde_json::from_str(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    if json.get("status").and_then(Json::as_str) != Some("success") {
        return Err("status is not success".to_string());
    }
    let result = json
        .get("data")
        .and_then(|d| d.get("result"))
        .and_then(Json::as_array)
        .ok_or("answer has no data.result")?;
    let mut series = Vec::with_capacity(result.len());
    for entry in result {
        let labels = entry
            .get("metric")
            .and_then(Json::as_object)
            .ok_or("series without metric")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        let mut points = Vec::new();
        for pair in entry.get("values").and_then(Json::as_array).ok_or("series without values")? {
            let pair = pair.as_array().ok_or("sample is not a pair")?;
            let seconds = pair.first().and_then(Json::as_f64).ok_or("bad sample time")?;
            let value = pair
                .get(1)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or("bad sample value")?;
            points.push(((seconds * 1e3).round() as u64, value));
        }
        series.push(MatrixSeries { labels, points });
    }
    Ok(series)
}
