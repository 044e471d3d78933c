//! End-to-end over real sockets: ingest → query → exposition, concurrent
//! clients, load shedding at the accept gate under overload, and graceful
//! drain.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use teemon_obs::probes;
use teemon_server::{http_get, http_post, percent_encode, HttpLimits, Server, ServerConfig};
use teemon_tsdb::TimeSeriesDb;

fn quick_limits() -> HttpLimits {
    HttpLimits { header_timeout_ms: 400, body_timeout_ms: 400, ..HttpLimits::default() }
}

#[test]
fn write_query_and_metrics_roundtrip_over_tcp() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), TimeSeriesDb::new())
        .expect("bind loopback");
    let addr = server.addr();

    // Push three batches of remote-write samples.
    for (t, v) in [(0u64, 100.0), (1, 140.0), (2, 180.0)] {
        let doc = format!(
            "# TYPE sgx_pages_evicted_total counter\nsgx_pages_evicted_total{{node=\"n1\"}} {v} {}\n",
            t * 5_000
        );
        let resp =
            http_post(addr, "/api/v1/write", "text/plain", doc.as_bytes()).expect("post batch");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        assert!(resp.body_text().contains(r#""ingested":1"#), "{}", resp.body_text());
    }

    // Instant query sees the data.
    let q = percent_encode("sgx_pages_evicted_total");
    let resp = http_get(addr, &format!("/api/v1/query?query={q}&time=10")).expect("query");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""status":"success""#), "{body}");
    assert!(body.contains(r#""180""#), "{body}");

    // Range query over HTTP returns a matrix with all three points.
    let q = percent_encode("sgx_pages_evicted_total");
    let resp = http_get(addr, &format!("/api/v1/query_range?query={q}&start=0&end=10&step=5"))
        .expect("range query");
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(body.contains(r#""resultType":"matrix""#), "{body}");

    // The exposition edge federates the stored series back out.
    let resp = http_get(addr, "/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("sgx_pages_evicted_total"), "{}", resp.body_text());

    assert!(server.shutdown(), "drain must complete");
}

#[test]
fn concurrent_writers_then_concurrent_range_readers_are_all_served() {
    // Loopback clients share one IP: open the per-client limiter wide so the
    // test is about the edge serving clients at once, not about the bucket.
    let config = ServerConfig { rate_per_sec: 1e12, burst: 1e12, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();
    let (clients, requests, series) = (4u64, 8u64, 25u64);

    let writers: Vec<_> = (0..clients)
        .map(|writer| {
            std::thread::spawn(move || {
                for round in 0..requests {
                    let doc: String = (0..series)
                        .map(|i| {
                            format!(
                                "concurrent_total{{writer=\"{writer}\",idx=\"{i}\"}} {round} {}\n",
                                round * 5_000
                            )
                        })
                        .collect();
                    let resp = http_post(addr, "/api/v1/write", "text/plain", doc.as_bytes())
                        .expect("push batch");
                    assert_eq!(resp.status, 200, "{}", resp.body_text());
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }

    // Every series of every writer is there at every step.  (Each POST is
    // its own connection, and a connection's samples carry its peer address
    // as `instance`, so count the writers' own identities.)
    let q = percent_encode("count(count by (writer, idx) (concurrent_total))");
    let path = format!("/api/v1/query_range?query={q}&start=0&end=35&step=5");
    let expected = format!(r#"[35,"{}"]"#, clients * series);
    let readers: Vec<_> = (0..clients)
        .map(|_| {
            let (path, expected) = (path.clone(), expected.clone());
            std::thread::spawn(move || {
                for _ in 0..requests {
                    let resp = http_get(addr, &path).expect("range query");
                    assert_eq!(resp.status, 200, "{}", resp.body_text());
                    assert!(resp.body_text().contains(&expected), "{}", resp.body_text());
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().expect("reader thread");
    }
    assert!(server.shutdown(), "drain must complete");
}

#[test]
fn overload_is_shed_with_503_before_parsing() {
    let config =
        ServerConfig { max_inflight: 1, limits: quick_limits(), ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();
    let before = probes::HTTP_SHED.get();

    // Occupy the single slot with a half-sent request...
    let mut hog = TcpStream::connect(addr).expect("hog connects");
    hog.write_all(b"GET /healthz HTT").expect("partial write");
    std::thread::sleep(Duration::from_millis(50)); // let the acceptor admit it

    // ...then the next clients are shed with an O(1) 503 + Retry-After.
    let resp = http_get(addr, "/healthz").expect("shed response still parses");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(probes::HTTP_SHED.get() > before);

    // Once the hog is gone (it times out at 400 ms), capacity returns.
    drop(hog);
    let mut ok = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        if http_get(addr, "/healthz").map(|r| r.status).unwrap_or(0) == 200 {
            ok = true;
            break;
        }
    }
    assert!(ok, "server must recover capacity after the slow client is gone");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let config = ServerConfig { limits: quick_limits(), ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();

    // Ingest something so the final WAL flush has work to do.
    let resp =
        http_post(addr, "/api/v1/write", "text/plain", b"drain_demo_total 1\n").expect("post");
    assert_eq!(resp.status, 200);

    assert!(server.shutdown(), "drain completes under the deadline");

    // The listener is gone: connects are refused (or reset immediately).
    let after = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    if let Ok(mut stream) = after {
        // A lingering backlog connection must at least never be served.
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
        use std::io::Read;
        let _ = stream.read_to_end(&mut buf);
        assert!(buf.is_empty(), "no responses after shutdown: {:?}", String::from_utf8_lossy(&buf));
    }
}

#[test]
fn panic_shield_holds_over_tcp() {
    let config = ServerConfig { panic_route: true, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();

    let resp = http_get(addr, "/panic").expect("the 500 still arrives");
    assert_eq!(resp.status, 500);

    // The worker died shielded; the server still answers.
    let resp = http_get(addr, "/healthz").expect("still serving");
    assert_eq!(resp.status, 200);
    assert!(server.shutdown());
}
