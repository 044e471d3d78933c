//! Range-query microbenchmark (`micro/range_query/rate_1h_resets`): `rate()`
//! over a 1 h window at a 15 s step across 100 counters that each restart
//! from zero once mid-span.  A counter that never resets has its windows
//! read off their end points — the road the end-to-end benchmark's
//! `dashboard_read` panels take; a reset puts every series on the
//! evaluator's other road, the running pair sum, which no workload reaches.
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the data set for a fast
//! correctness pass.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use teemon_bench::{samples, smoke};
use teemon_metrics::Labels;
use teemon_query::{parse, QueryEngine};
use teemon_tsdb::{TimeSeriesDb, TsdbConfig};

const SCRAPE_INTERVAL_MS: u64 = 15_000;
const STEP_MS: u64 = 15_000;

/// Monotone counters over `span_ms` at the scrape cadence, each starting
/// over from zero half-way.
fn populate(span_ms: u64) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 120, retention_ms: u64::MAX });
    let series = if smoke() { 8 } else { 100 };
    let keys: Vec<Labels> = (0..series)
        .map(|i| {
            Labels::from_pairs([("node", format!("node-{}", i % 10)), ("idx", format!("{i}"))])
        })
        .collect();
    let ticks = span_ms / SCRAPE_INTERVAL_MS;
    for t in 0..=ticks {
        let since = if t > ticks / 2 { t - ticks / 2 } else { t };
        for (i, labels) in keys.iter().enumerate() {
            db.append(
                "bench_requests_total",
                labels,
                t * SCRAPE_INTERVAL_MS,
                (since * (25 + i as u64)) as f64,
            );
        }
    }
    db
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/range_query");
    group.sample_size(samples(15));
    let (label, span_ms) = if smoke() { ("10m", 10 * 60 * 1000) } else { ("1h", 60 * 60 * 1000) };
    let db = populate(span_ms);
    let series = db.stats().series;
    let engine = QueryEngine::new(db);
    const QUERY: &str = "rate(bench_requests_total[5m])";
    let analysis = engine.analyze(QUERY, 0, span_ms, STEP_MS).expect("rate plans");
    assert_eq!(analysis.irregular_series, series, "every series must hold its reset");
    let rate = parse(QUERY).unwrap();
    group.bench_function(format!("rate_{label}_resets/streaming"), |b| {
        b.iter(|| black_box(engine.range(black_box(&rate), 0, span_ms, STEP_MS).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_range);
criterion_main!(benches);
