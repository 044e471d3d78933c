//! The adversarial suite: every hostile client the overload-behaviour
//! contract names, asserted against exact status codes — and after each
//! attack, proof the server is still serving.
//!
//! Most attacks run against [`ServerCore`] with [`MockConn`]s (scripted
//! bytes + virtual clock, so stalls cost no wall time); the cases that need
//! real sockets (shed at the accept gate, drain) live in `end_to_end.rs`.

use teemon_obs::probes;
use teemon_server::{MockConn, MockStep, ServerConfig, ServerCore};
use teemon_testkit::mangle::{mangle, Rng};
use teemon_tsdb::TimeSeriesDb;

fn core() -> ServerCore {
    ServerCore::new(ServerConfig::default(), TimeSeriesDb::new())
}

fn serve(core: &ServerCore, conn: MockConn) -> String {
    let mut conn = conn;
    core.serve_connection(&mut conn);
    conn.written_text()
}

fn status_of(response: &str) -> Option<u16> {
    response.strip_prefix("HTTP/1.1 ")?.split_whitespace().next()?.parse().ok()
}

/// The server must answer a healthy request after surviving an attack.
fn assert_still_serving(core: &ServerCore) {
    let text = serve(core, MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()));
    assert_eq!(status_of(&text), Some(200), "server must keep serving: {text}");
}

#[test]
fn torn_request_gets_400_and_the_server_survives() {
    let core = core();
    let before = probes::HTTP_MALFORMED.get();
    for torn in [
        &b"GET"[..],
        &b"GET / HTTP/1.1\r\nHost"[..],
        &b"POST /api/v1/write HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"[..],
    ] {
        let text = serve(&core, MockConn::with_bytes(torn.to_vec()));
        assert_eq!(status_of(&text), Some(400), "torn {torn:?} → {text}");
    }
    assert!(probes::HTTP_MALFORMED.get() >= before + 3);
    assert_still_serving(&core);
}

#[test]
fn garbage_bytes_get_400_not_a_panic() {
    let core = core();
    let text = serve(&core, MockConn::with_bytes(b"\x00\xff\xfe barbarians \x01\r\n\r\n".to_vec()));
    assert_eq!(status_of(&text), Some(400), "{text}");
    let text = serve(&core, MockConn::with_bytes(b"FOO / SMTP/9.9\r\n\r\n".to_vec()));
    assert_eq!(status_of(&text), Some(400), "{text}");
    assert_still_serving(&core);
}

#[test]
fn oversized_body_gets_413_before_the_body_is_read() {
    let core = core();
    let before = probes::HTTP_OVERSIZED.get();
    // Content-Length over the limit: rejected from the header alone.
    let text = serve(
        &core,
        MockConn::with_bytes(
            b"POST /api/v1/write HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n".to_vec(),
        ),
    );
    assert_eq!(status_of(&text), Some(413), "{text}");
    assert!(probes::HTTP_OVERSIZED.get() > before);
    assert_still_serving(&core);
}

#[test]
fn header_flood_gets_413_at_the_header_limit() {
    let core = core();
    let mut steps = vec![MockStep::Chunk(b"GET / HTTP/1.1\r\n".to_vec())];
    for _ in 0..10_000 {
        steps.push(MockStep::Chunk(b"X-Flood: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".to_vec()));
    }
    let text = serve(&core, MockConn::new(steps));
    assert_eq!(status_of(&text), Some(413), "{text}");
    assert_still_serving(&core);
}

#[test]
fn slow_loris_header_gets_408_on_the_virtual_clock() {
    let core = core();
    let before = probes::HTTP_SLOW_CLIENTS.get();
    // Drip one header byte, then go quiet far past the header deadline.
    let text = serve(
        &core,
        MockConn::new(vec![MockStep::Chunk(b"G".to_vec()), MockStep::StallMs(600_000)]),
    );
    assert_eq!(status_of(&text), Some(408), "{text}");
    assert!(probes::HTTP_SLOW_CLIENTS.get() > before);
    assert_still_serving(&core);
}

#[test]
fn mid_body_stall_gets_408() {
    let core = core();
    let text = serve(
        &core,
        MockConn::new(vec![
            MockStep::Chunk(
                b"POST /api/v1/write HTTP/1.1\r\nContent-Length: 100\r\n\r\nhalf".to_vec(),
            ),
            MockStep::StallMs(600_000),
        ]),
    );
    assert_eq!(status_of(&text), Some(408), "{text}");
    assert!(text.contains("body"), "the 408 names the stalled phase: {text}");
    assert_still_serving(&core);
}

#[test]
fn panicking_handler_gets_500_and_the_connection_closes() {
    let config = ServerConfig { panic_route: true, ..ServerConfig::default() };
    let core = ServerCore::new(config, TimeSeriesDb::new());
    let before = probes::HTTP_PANICS.get();
    // Pipeline a second request after /panic: the shield must close the
    // connection after the 500, never reaching the second request.
    let text = serve(
        &core,
        MockConn::with_bytes(b"GET /panic HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n".to_vec()),
    );
    assert_eq!(status_of(&text), Some(500), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert_eq!(text.matches("HTTP/1.1").count(), 1, "connection closed after the 500: {text}");
    assert!(probes::HTTP_PANICS.get() > before);
    assert_still_serving(&core);
}

#[test]
fn rate_limited_client_gets_429_with_retry_after() {
    let config = ServerConfig { rate_per_sec: 0.5, burst: 2.0, ..ServerConfig::default() };
    let core = ServerCore::new(config, TimeSeriesDb::new());
    let before = probes::HTTP_RATE_LIMITED.get();
    // Two requests fit the burst; the third (same client ip, fresh port —
    // the limiter keys on ip) is refused.
    for _ in 0..2 {
        let conn = MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec())
            .with_peer("192.0.2.1:1000");
        assert_eq!(status_of(&serve(&core, conn)), Some(200));
    }
    let conn =
        MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()).with_peer("192.0.2.1:2000");
    let text = serve(&core, conn);
    assert_eq!(status_of(&text), Some(429), "{text}");
    assert!(text.to_ascii_lowercase().contains("retry-after:"), "{text}");
    assert!(probes::HTTP_RATE_LIMITED.get() > before);
    // A different client is not collateral damage.
    let conn =
        MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()).with_peer("192.0.2.9:1000");
    assert_eq!(status_of(&serve(&core, conn)), Some(200));
}

#[test]
fn unrepresentable_names_get_400_and_store_nothing() {
    // Names the rest of the system cannot represent used to be accepted
    // here, stored, re-emitted verbatim by `/metrics` federation
    // (`m{a b="x"}`) and rendered by the query API as a `metric` object
    // with two `__name__` keys.  The text edge now refuses them.
    let db = TimeSeriesDb::new();
    let core = ServerCore::new(ServerConfig::default(), db.clone());
    let post = |body: &str| {
        let request =
            format!("POST /api/v1/write HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        serve(&core, MockConn::with_bytes(request.into_bytes()))
    };
    for body in [
        "m{=\"x\"} 1\n",
        "m{a b=\"x\"} 1\n",
        "m{__name__=\"evil\"} 1\n",
        "9bad-name{a=\"1\"} 1\n",
        "m{a=\"1\",a=\"2\"} 1\n",
    ] {
        let text = post(body);
        assert_eq!(status_of(&text), Some(400), "{body:?} → {text}");
        assert!(text.contains("bad_data"), "{body:?} → {text}");
    }
    assert_eq!(db.stats().series, 0, "a refused document must leave nothing behind");
    assert_eq!(status_of(&post("m{a=\"1\"} 1\n")), Some(200));
    assert_eq!(db.stats().series, 1);
}

#[test]
fn conflicting_content_lengths_get_400_and_nothing_after_them_is_served() {
    // `Content-Length: 5` + `Content-Length: 50` used to be framed by the
    // first value, and the rest of the body was then parsed as a pipelined
    // request of the attacker's choosing.  Differing values are now a 400
    // and the connection closes, so the smuggled request is never answered.
    let core = core();
    let before = probes::HTTP_MALFORMED.get();
    for head in [
        "Content-Length: 5\r\nContent-Length: 50\r\n",
        "Content-Length: 50\r\nContent-Length: 5\r\n",
        "Content-Length: 5, 50\r\n",
    ] {
        let request =
            format!("POST /api/v1/write HTTP/1.1\r\n{head}\r\nup 1\nGET /healthz HTTP/1.1\r\n\r\n");
        let text = serve(&core, MockConn::with_bytes(request.into_bytes()));
        assert_eq!(status_of(&text), Some(400), "{head:?} → {text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "one response, then closed: {text}");
        assert!(text.contains("Connection: close"), "{text}");
    }
    assert!(probes::HTTP_MALFORMED.get() >= before + 3);
    // Values that agree frame the request as one value would.
    let request =
        "POST /api/v1/write HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nup 1\n";
    let text = serve(&core, MockConn::with_bytes(request.as_bytes().to_vec()));
    assert_eq!(status_of(&text), Some(200), "{text}");
    assert_still_serving(&core);
}

#[test]
fn histogram_bodies_are_budgeted_by_the_series_they_become() {
    // A histogram point with n bounds is n + 3 series on the wire and in
    // storage; the per-request budget used to count it as one, so two points
    // x 100 buckets slipped 206 series past a budget of 2.
    let db = TimeSeriesDb::new();
    let config = ServerConfig { write_series_budget: Some(2), ..ServerConfig::default() };
    let core = ServerCore::new(config, db.clone());
    let post = |body: &str| {
        let request =
            format!("POST /api/v1/write HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        serve(&core, MockConn::with_bytes(request.into_bytes()))
    };
    let mut body = String::from("# TYPE lat histogram\n");
    for pod in ["a", "b"] {
        for bucket in 0..100 {
            body.push_str(&format!("lat_bucket{{pod=\"{pod}\",le=\"{bucket}\"}} {bucket}\n"));
        }
        body.push_str(&format!("lat_bucket{{pod=\"{pod}\",le=\"+Inf\"}} 100\n"));
        body.push_str(&format!("lat_sum{{pod=\"{pod}\"}} 1\nlat_count{{pod=\"{pod}\"}} 100\n"));
    }
    let before = probes::HTTP_CARDINALITY_REJECTED.get();
    let text = post(&body);
    assert_eq!(status_of(&text), Some(429), "{text}");
    assert!(text.contains("too_many_series"), "{text}");
    assert!(probes::HTTP_CARDINALITY_REJECTED.get() > before);
    assert_eq!(db.stats().series, 0, "a refused request must leave nothing behind");
    // Two plain series fit the same budget.
    assert_eq!(status_of(&post("m{i=\"a\"} 1\nm{i=\"b\"} 2\n")), Some(200));
    assert_eq!(db.stats().series, 2);
    assert_still_serving(&core);
}

#[test]
fn unbounded_range_queries_get_400_not_unbounded_work() {
    // `step` only had to be positive: this request asked the evaluator for
    // 4·10¹² points per series and the monitor grew until it was killed.  A
    // grid above 11 000 steps is now refused before anything is planned.
    let db = TimeSeriesDb::new();
    db.append("m", &teemon_metrics::Labels::new(), 0, 1.0);
    let core = ServerCore::new(ServerConfig::default(), db);
    let get = |target: &str| {
        serve(&core, MockConn::with_bytes(format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes()))
    };
    for query in ["1", "m", "m%20%2B%20m"] {
        let text =
            get(&format!("/api/v1/query_range?query={query}&start=0&end=4000000000&step=0.001"));
        assert_eq!(status_of(&text), Some(400), "{query} → {text}");
        assert!(text.contains("bad_data") && text.contains("11000"), "{query} → {text}");
    }
    // The limit itself is served: 11 000 steps, and not one more.
    let at_limit = get("/api/v1/query_range?query=1&start=0&end=10.999&step=0.001");
    assert_eq!(status_of(&at_limit), Some(200), "{at_limit}");
    let beyond = get("/api/v1/query_range?query=1&start=0&end=11&step=0.001");
    assert_eq!(status_of(&beyond), Some(400), "{beyond}");
    // The connection path survived to answer an ordinary request.
    assert_eq!(status_of(&get("/healthz")), Some(200));
}

/// The deterministic byte mangler (`teemon_testkit::mangle`): valid
/// requests with seeded corruption — truncation, bit flips, byte
/// insertion, a swap — must always produce a clean HTTP response (or a silent
/// close), never a panic or a hang.
#[test]
fn byte_mangler_fuzz_never_panics_the_server() {
    let core = core();
    let template =
        b"POST /api/v1/write HTTP/1.1\r\nContent-Length: 24\r\n\r\ndemo_metric{a=\"b\"} 42\n x"
            .to_vec();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for round in 0..500 {
        let mut bytes = template.clone();
        mangle(&mut rng, &mut bytes, round);
        // Distinct peers: the fuzz measures parser robustness, not the
        // (also exercised above) rate limiter.
        let peer = format!("10.9.{}.{}:1", round / 250, round % 250);
        let text = serve(&core, MockConn::with_bytes(bytes.clone()).with_peer(peer));
        if !text.is_empty() {
            assert!(
                text.starts_with("HTTP/1.1 "),
                "round {round}: mangled {bytes:?} produced non-HTTP output {text:?}"
            );
        }
    }
    assert_still_serving(&core);
}

#[test]
fn every_layer_feeds_the_http_probe_families() {
    // The self-observability contract: the middleware counters above are
    // exported through /self/metrics.
    let core = core();
    serve(&core, MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()));
    let text = serve(&core, MockConn::with_bytes(b"GET /self/metrics HTTP/1.1\r\n\r\n".to_vec()));
    for family in [
        "teemon_http_connections_total",
        "teemon_http_requests_total",
        "teemon_http_responses_total",
        "teemon_http_shed_total",
        "teemon_http_panics_total",
        "teemon_http_rate_limited_total",
        "teemon_http_slow_clients_total",
        "teemon_http_malformed_total",
        "teemon_http_oversized_total",
        "teemon_http_inflight",
        "teemon_http_request_seconds",
        "teemon_http_ingested_samples_total",
        "teemon_http_drained_total",
    ] {
        assert!(text.contains(family), "missing {family} in /self/metrics");
    }
}
