//! The route table behind the middleware stack.
//!
//! Three families of endpoints, all answering from the local node:
//!
//! | Endpoint              | Method | Role                                        |
//! |-----------------------|--------|---------------------------------------------|
//! | `/healthz`            | GET    | liveness probe                              |
//! | `/metrics`            | GET    | newest sample of every live local series    |
//! | `/self/metrics`       | GET    | the serving edge's own `teemon_http_*` probes |
//! | `/api/v1/write`       | POST   | remote-write ingest (exposition text body)  |
//! | `/api/v1/query`       | GET    | TeeQL instant query (JSON)                  |
//! | `/api/v1/query_range` | GET    | TeeQL range query (JSON)                    |
//!
//! Handlers run inside the serving loop's panic shield; they still must not
//! panic on *input* (that would be a 500 where the contract promises 4xx),
//! so every parse failure maps to a typed status here.

use std::collections::BTreeMap;

use teemon_metrics::exposition::{self, ParseLimits};
use teemon_metrics::{Collector, FamilySnapshot, MetricError, MetricKind, MetricPoint, PointValue};
use teemon_obs::{probes, ObsCollector};
use teemon_query::{json, QueryEngine};
use teemon_tsdb::scrape::PushLane;
use teemon_tsdb::{Selector, TimeSeriesDb, STALE_HEAD_MS};

use crate::http::{Request, Response};

/// Everything a handler may touch.  One per connection: the [`PushLane`]
/// carries the per-connection ingest cache.
pub struct HandlerCtx<'a> {
    /// The local database (shared, internally sharded).
    pub db: &'a TimeSeriesDb,
    /// This connection's remote-write fast lane.
    pub lane: &'a mut PushLane,
    /// Milliseconds on the server clock; stamps pushed samples.
    pub now_ms: u64,
    /// Enables `GET /panic` (used by the resilience tests to exercise the
    /// panic shield; off in production configs).
    pub panic_route: bool,
    /// Per-request series cap on `/api/v1/write`: a body carrying more
    /// distinct series than this is refused whole with a typed 429 before
    /// any of it reaches storage.  `None` is unlimited.
    pub write_series_budget: Option<u64>,
}

/// Dispatches one request.  Never returns an error: failures are encoded as
/// status codes per the overload-behaviour contract.
pub fn route(req: &Request, ctx: &mut HandlerCtx<'_>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => metrics(ctx),
        ("GET", "/self/metrics") => self_metrics(),
        ("POST", "/api/v1/write") => write(req, ctx),
        ("GET", "/api/v1/query") => query(req, ctx),
        ("GET", "/api/v1/query_range") => query_range(req, ctx),
        ("GET", "/panic") if ctx.panic_route => {
            // teemon-verify: allow(no-panic): the deliberate panic route the resilience suite uses to prove the shield holds; config-gated, off by default
            panic!("deliberate panic requested via /panic")
        }
        (
            _,
            "/healthz"
            | "/metrics"
            | "/self/metrics"
            | "/api/v1/write"
            | "/api/v1/query"
            | "/api/v1/query_range",
        ) => Response::json(
            405,
            json::error_response("bad_data", &format!("method {} not allowed here", req.method)),
        ),
        _ => Response::json(404, json::error_response("bad_data", "unknown endpoint")),
    }
}

/// `GET /metrics` — the newest value of every stored series, grouped into
/// untyped families and rendered as exposition text.  This is the outbound
/// wire edge: a downstream Prometheus can federate the whole node from it.
/// A series whose newest sample is more than [`STALE_HEAD_MS`] behind the
/// store's newest (the query engine's lookback) has departed and is left
/// out.  Samples keep their own timestamps, which is why this reads
/// snapshots rather than asking the engine.
fn metrics(ctx: &mut HandlerCtx<'_>) -> Response {
    let newest = ctx.db.newest_timestamp().unwrap_or(0);
    let mut families: BTreeMap<String, FamilySnapshot> = BTreeMap::new();
    for series in ctx.db.select(&Selector::all()) {
        let Some(sample) = series.at(newest) else { continue };
        if newest - sample.timestamp_ms > STALE_HEAD_MS {
            continue;
        }
        families
            .entry(series.name().to_string())
            .or_insert_with(|| {
                FamilySnapshot::new(series.name(), "federated series", MetricKind::Untyped)
            })
            .points
            .push(MetricPoint {
                labels: series.to_labels(),
                value: PointValue::Untyped(sample.value),
                timestamp_ms: Some(sample.timestamp_ms),
            });
    }
    let families: Vec<FamilySnapshot> = families.into_values().collect();
    Response::metrics(exposition::encode_text(&families))
}

/// `GET /self/metrics` — just the `http` layer of the probe table.
fn self_metrics() -> Response {
    match ObsCollector::layer("http").collect() {
        Ok(families) => Response::metrics(exposition::encode_text(&families)),
        Err(e) => Response::text(500, format!("self-collection failed: {e}\n")),
    }
}

/// `POST /api/v1/write` — remote-write ingest.  The body is an exposition
/// text document; samples land through the connection's [`PushLane`]
/// stamped with the server clock.
fn write(req: &Request, ctx: &mut HandlerCtx<'_>) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, json::error_response("bad_data", "body is not valid UTF-8"));
    };
    match exposition::parse_families_bounded(text, ParseLimits::network()) {
        Ok(families) => {
            // Cardinality defense, request-shaped: refuse a body whose series
            // count alone exceeds the per-request budget, before any of it
            // touches the lane or storage.  Series as storage will see them:
            // a histogram or summary point is several.  (Per-job budgets on
            // the lane itself clip finer-grained and report through
            // `overflow`.)
            if let Some(budget) = ctx.write_series_budget {
                let series: u64 = families.iter().map(|f| f.sample_count() as u64).sum();
                if series > budget {
                    probes::HTTP_CARDINALITY_REJECTED.inc();
                    return Response::json(
                        429,
                        json::error_response(
                            "too_many_series",
                            &format!(
                                "request carries {series} series, over job \"{}\"'s \
                                 per-request budget of {budget}",
                                ctx.lane.job()
                            ),
                        ),
                    );
                }
            }
            let outcome = ctx.lane.push(&families, ctx.now_ms);
            probes::HTTP_INGESTED_SAMPLES.add(outcome.ingested);
            if outcome.overflow > 0 {
                probes::HTTP_CARDINALITY_REJECTED.inc();
            }
            Response::json(
                200,
                format!(
                    r#"{{"status":"success","scraped":{},"ingested":{},"overflow":{}}}"#,
                    outcome.scraped, outcome.ingested, outcome.overflow
                ),
            )
        }
        Err(e @ MetricError::LimitExceeded { .. }) => {
            Response::json(413, json::error_response("bad_data", &e.to_string()))
        }
        Err(e) => Response::json(400, json::error_response("bad_data", &e.to_string())),
    }
}

/// `GET /api/v1/query?query=...&time=<seconds>` — TeeQL instant query.
fn query(req: &Request, ctx: &mut HandlerCtx<'_>) -> Response {
    let Some(expr) = req.query_param("query") else {
        return Response::json(400, json::error_response("bad_data", "missing `query` parameter"));
    };
    let at_ms = match req.query_param("time") {
        Some(t) => match parse_seconds(t) {
            Some(ms) => ms,
            None => {
                return Response::json(
                    400,
                    json::error_response("bad_data", &format!("invalid `time` value {t:?}")),
                )
            }
        },
        None => ctx.db.newest_timestamp().unwrap_or(0),
    };
    let engine = QueryEngine::new(ctx.db.clone());
    match engine.instant_query(expr, at_ms) {
        Ok(value) => Response::json(200, json::instant_response(&value, at_ms)),
        Err(e) => Response::json(400, json::error_response("bad_data", &e.to_string())),
    }
}

/// `GET /api/v1/query_range?query=...&start=..&end=..&step=..` (seconds).
fn query_range(req: &Request, ctx: &mut HandlerCtx<'_>) -> Response {
    let Some(expr) = req.query_param("query") else {
        return Response::json(400, json::error_response("bad_data", "missing `query` parameter"));
    };
    let (Some(start), Some(end), Some(step)) = (
        req.query_param("start").and_then(parse_seconds),
        req.query_param("end").and_then(parse_seconds),
        req.query_param("step").and_then(parse_seconds),
    ) else {
        return Response::json(
            400,
            json::error_response(
                "bad_data",
                "range queries need numeric `start`, `end`, `step` in seconds",
            ),
        );
    };
    if step == 0 || end < start {
        return Response::json(
            400,
            json::error_response("bad_data", "need step > 0 and end >= start"),
        );
    }
    let engine = QueryEngine::new(ctx.db.clone());
    match engine.range_query(expr, start, end, step) {
        Ok(series) => Response::json(200, json::range_response(&series)),
        Err(e) => Response::json(400, json::error_response("bad_data", &e.to_string())),
    }
}

/// Parses a decimal-seconds parameter into milliseconds.
fn parse_seconds(s: &str) -> Option<u64> {
    let v = s.trim().parse::<f64>().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    Some((v * 1e3).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;
    use teemon_tsdb::ScrapeTargetConfig;

    fn ctx_parts() -> (TimeSeriesDb, PushLane) {
        let db = TimeSeriesDb::new();
        let lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("remote_write", "test:1"));
        (db, lane)
    }

    fn get(path_and_query: &str) -> Request {
        let (path, q) = path_and_query.split_once('?').unwrap_or((path_and_query, ""));
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: q
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap_or((p, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
            wants_close: false,
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (db, mut lane) = ctx_parts();
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 0,
            panic_route: false,
            write_series_budget: None,
        };
        assert_eq!(route(&get("/healthz"), &mut ctx).status, 200);
        assert_eq!(route(&get("/nope"), &mut ctx).status, 404);
        let mut post = get("/metrics");
        post.method = "POST".to_string();
        assert_eq!(route(&post, &mut ctx).status, 405);
        assert_eq!(
            route(&get("/panic"), &mut ctx).status,
            404,
            "panic route must not exist unless enabled"
        );
    }

    #[test]
    fn write_then_query_roundtrip() {
        let (db, mut lane) = ctx_parts();
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 5_000,
            panic_route: false,
            write_series_budget: None,
        };
        let mut req = get("/api/v1/write");
        req.method = "POST".to_string();
        req.body =
            b"# TYPE sgx_epc_used_bytes gauge\nsgx_epc_used_bytes{node=\"n1\"} 42\n".to_vec();
        let resp = route(&req, &mut ctx);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains(r#""ingested":1"#), "{body}");

        let resp = route(&get("/api/v1/query?query=sgx_epc_used_bytes&time=6"), &mut ctx);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains(r#""status":"success""#), "{body}");
        assert!(body.contains(r#""42""#), "{body}");
    }

    #[test]
    fn malformed_write_is_400_and_oversized_write_is_413() {
        let (db, mut lane) = ctx_parts();
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 0,
            panic_route: false,
            write_series_budget: None,
        };
        let mut req = get("/api/v1/write");
        req.method = "POST".to_string();
        req.body = b"this is { not an exposition document".to_vec();
        assert_eq!(route(&req, &mut ctx).status, 400);

        let mut line = String::from("metric_with_a_very_long_line ");
        line.push_str(&"9".repeat(20_000));
        req.body = line.into_bytes();
        assert_eq!(route(&req, &mut ctx).status, 413);
    }

    #[test]
    fn bad_query_is_400_not_500() {
        let (db, mut lane) = ctx_parts();
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 0,
            panic_route: false,
            write_series_budget: None,
        };
        let resp = route(&get("/api/v1/query?query=sum%28"), &mut ctx);
        assert_eq!(resp.status, 400);
        let resp = route(&get("/api/v1/query_range?query=up&start=5&end=1&step=1"), &mut ctx);
        assert_eq!(resp.status, 400);
        let resp = route(&get("/api/v1/query_range?query=up"), &mut ctx);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn series_that_collide_once_the_name_is_dropped_are_bad_data() {
        let (db, mut lane) = ctx_parts();
        let labels = Labels::from_pairs([("node", "n1")]);
        for t in 0..10u64 {
            db.append("metric_a", &labels, t * 1_000, t as f64);
            db.append("metric_b", &labels, t * 1_000, t as f64 * 2.0);
        }
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 9_000,
            panic_route: false,
            write_series_budget: None,
        };
        for path in [
            r#"/api/v1/query?query=rate({node="n1"}[10s])&time=9"#,
            r#"/api/v1/query_range?query=rate({node="n1"}[10s])&start=0&end=9&step=1"#,
        ] {
            let resp = route(&get(path), &mut ctx);
            let body = String::from_utf8(resp.body).unwrap();
            assert_eq!(resp.status, 400, "{path}: {body}");
            assert!(body.contains(r#""errorType":"bad_data""#), "{body}");
            assert!(body.contains("metric name is dropped"), "{body}");
        }
    }

    #[test]
    fn over_budget_write_is_429_with_a_typed_body_and_nothing_stored() {
        let (db, mut lane) = ctx_parts();
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 1_000,
            panic_route: false,
            write_series_budget: Some(2),
        };
        let mut req = get("/api/v1/write");
        req.method = "POST".to_string();
        req.body = b"m{i=\"a\"} 1\nm{i=\"b\"} 2\nm{i=\"c\"} 3\n".to_vec();
        let before = teemon_obs::probes::HTTP_CARDINALITY_REJECTED.get();
        let resp = route(&req, &mut ctx);
        assert_eq!(resp.status, 429);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("too_many_series"), "{body}");
        assert!(body.contains("remote_write"), "error names the job: {body}");
        assert!(body.contains("budget of 2"), "error names the budget: {body}");
        assert_eq!(teemon_obs::probes::HTTP_CARDINALITY_REJECTED.get(), before + 1);
        assert_eq!(db.series_count(), 0, "a refused request leaves no trace in storage");

        // Two histogram points are not two series: each is one per bucket
        // plus `+Inf`, `_sum` and `_count` on the wire and in storage.
        let mut body = String::from("# TYPE lat histogram\n");
        for pod in ["a", "b"] {
            for bucket in 0..100 {
                body.push_str(&format!("lat_bucket{{pod=\"{pod}\",le=\"{bucket}\"}} {bucket}\n"));
            }
            body.push_str(&format!("lat_bucket{{pod=\"{pod}\",le=\"+Inf\"}} 100\n"));
            body.push_str(&format!("lat_sum{{pod=\"{pod}\"}} 1\nlat_count{{pod=\"{pod}\"}} 100\n"));
        }
        req.body = body.into_bytes();
        let resp = route(&req, &mut ctx);
        assert_eq!(resp.status, 429, "2 histogram points x 100 buckets are 206 series");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("carries 206 series"), "{body}");
        assert_eq!(db.series_count(), 0, "a refused request leaves no trace in storage");

        // A request inside the budget still lands.
        req.body = b"m{i=\"a\"} 1\nm{i=\"b\"} 2\n".to_vec();
        assert_eq!(route(&req, &mut ctx).status, 200);
        assert_eq!(db.series_count(), 2);
    }

    #[test]
    fn metrics_exposition_federates_stored_series() {
        let (db, mut lane) = ctx_parts();
        db.append("demo_total", &Labels::from_pairs([("node", "n1")]), 1_000, 7.0);
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 0,
            panic_route: false,
            write_series_budget: None,
        };
        let resp = route(&get("/metrics"), &mut ctx);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("demo_total"), "{text}");
        assert!(text.contains("node=\"n1\""), "{text}");
    }

    #[test]
    fn metrics_exposition_leaves_out_departed_series() {
        let (db, mut lane) = ctx_parts();
        db.append("departed", &Labels::from_pairs([("node", "gone")]), 0, 1.0);
        db.append("alive", &Labels::from_pairs([("node", "here")]), 600_000, 2.0);
        let mut ctx = HandlerCtx {
            db: &db,
            lane: &mut lane,
            now_ms: 600_000,
            panic_route: false,
            write_series_budget: None,
        };
        let resp = route(&get("/metrics"), &mut ctx);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        // Ten minutes behind the newest sample is past the lookback.
        assert!(text.contains("alive{node=\"here\"} 2 600000"), "{text}");
        assert!(!text.contains("departed"), "{text}");
    }

    #[test]
    fn self_metrics_exports_only_http_families() {
        let resp = self_metrics();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("teemon_http_requests_total"), "{text}");
        assert!(!text.contains("teemon_scrape"), "only the http layer is exported here");
    }
}
