//! HTTP serving-edge microbenchmark (`micro/http`): the cost of the overload
//! contract — the latency of a shed 503 while the in-flight gate is
//! saturated at 4× capacity (the O(1) answer the edge owes clients it cannot
//! serve).  Throughput through the edge is the end-to-end benchmark's
//! (`push_steady`, `dashboard_read`); no workload there overloads the gate.
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) for a fast correctness pass.

use std::hint::black_box;
use std::io::Write;
use std::net::TcpStream;

use criterion::{criterion_group, criterion_main, Criterion};
use teemon_bench::samples;
use teemon_server::{http_get, HttpLimits, Server, ServerConfig};
use teemon_tsdb::TimeSeriesDb;

/// Shed latency at 4× overload: every in-flight slot is held by a stalled
/// client, three more waves of hogs are already shed, and the measured
/// request must still get its 503 + Retry-After in O(1).
fn bench_shed(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/http");
    group.sample_size(samples(20));
    let capacity = 4;
    let config = ServerConfig {
        max_inflight: capacity,
        // The hogs must out-stall the measurement window.
        limits: HttpLimits { header_timeout_ms: 120_000, ..HttpLimits::default() },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config, TimeSeriesDb::new()).expect("bind loopback");
    let addr = server.addr();
    // 4× overload: capacity hogs hold every slot, 3× capacity more arrive
    // and are shed before the measurement starts.
    let hogs: Vec<TcpStream> = (0..capacity * 4)
        .map(|_| {
            let mut hog = TcpStream::connect(addr).expect("hog connects");
            hog.write_all(b"GET /healthz HTT").expect("partial request");
            hog
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The gate is full: the measured request is refused, cheaply.
    let probe = http_get(addr, "/healthz").expect("shed response parses");
    assert_eq!(probe.status, 503, "gate must be saturated before measuring");
    group.bench_function(format!("shed_503_at_4x_overload_cap{capacity}"), |b| {
        b.iter(|| {
            let resp = http_get(addr, "/healthz").expect("shed response");
            assert_eq!(resp.status, 503);
            black_box(resp.status)
        })
    });
    group.finish();
    drop(hogs);
    server.shutdown();
}

criterion_group!(benches, bench_shed);
criterion_main!(benches);
