//! Range-query microbenchmarks (`micro/range_query`).
//!
//! The dashboard-driving workload: `rate()` range queries over 1 h and 24 h
//! windows at a 15 s step across 100 series, through the streaming evaluator
//! (sliding-window state machines, `O(samples touched)`).  A counter that
//! never resets has its windows read off their end points; the
//! `rate_1h_resets` row restarts every series once mid-span, which puts them
//! all on the evaluator's other road — the running pair sum.
//!
//! A second group times a full scan of the stored chunks — Gorilla blocks,
//! sealed and open alike — and the run prints the storage engine's
//! bytes/sample so compression is recorded alongside the timing (see
//! `BENCH_query_range.json`).
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the data set for a fast
//! correctness pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teemon_metrics::Labels;
use teemon_query::{parse, stream, QueryEngine};
use teemon_tsdb::{Selector, TimeSeriesDb, TsdbConfig};

fn smoke() -> bool {
    std::env::var_os("TEEMON_BENCH_SMOKE").is_some()
}

fn sample_count() -> usize {
    if smoke() {
        2
    } else {
        15
    }
}

const SERIES: usize = 100;
const SCRAPE_INTERVAL_MS: u64 = 15_000;
const STEP_MS: u64 = 15_000;

/// `SERIES` monotone counters over `span_ms` at the scrape cadence, each
/// starting over from zero half-way if `resets`.
fn populate(span_ms: u64, resets: bool) -> TimeSeriesDb {
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 120, retention_ms: u64::MAX });
    let series = if smoke() { 8 } else { SERIES };
    let keys: Vec<Labels> = (0..series)
        .map(|i| {
            Labels::from_pairs([("node", format!("node-{}", i % 10)), ("idx", format!("{i}"))])
        })
        .collect();
    let ticks = span_ms / SCRAPE_INTERVAL_MS;
    for t in 0..=ticks {
        let since = if resets && t > ticks / 2 { t - ticks / 2 } else { t };
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
    group.sample_size(sample_count());

    let windows: &[(&str, u64)] = if smoke() {
        &[("10m", 10 * 60 * 1000)]
    } else {
        &[("1h", 60 * 60 * 1000), ("24h", 24 * 60 * 60 * 1000)]
    };
    for &(label, span_ms) in windows {
        let db = populate(span_ms, false);
        let engine = QueryEngine::new(db.clone());
        let rate = parse("rate(bench_requests_total[5m])").unwrap();
        let grouped = parse("sum by (node) (rate(bench_requests_total[5m]))").unwrap();
        for expr in [&rate, &grouped] {
            let lookback_ms = QueryEngine::DEFAULT_LOOKBACK_MS;
            let planned = stream::plan_or_reason(&db, lookback_ms, expr, 0, span_ms);
            assert!(planned.is_ok(), "`{expr}` must take the streaming path");
        }

        group.bench_function(format!("rate_{label}/streaming"), |b| {
            b.iter(|| black_box(engine.range(black_box(&rate), 0, span_ms, STEP_MS).unwrap()))
        });
        group.bench_function(format!("sum_by_rate_{label}/streaming"), |b| {
            b.iter(|| black_box(engine.range(black_box(&grouped), 0, span_ms, STEP_MS).unwrap()))
        });
    }
    let (label, span_ms) = windows[0];
    let engine = QueryEngine::new(populate(span_ms, true));
    let rate = parse("rate(bench_requests_total[5m])").unwrap();
    group.bench_function(format!("rate_{label}_resets/streaming"), |b| {
        b.iter(|| black_box(engine.range(black_box(&rate), 0, span_ms, STEP_MS).unwrap()))
    });
    group.finish();
}

/// Full-range scans over the stored chunks.
fn bench_chunk_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/range_query");
    group.sample_size(sample_count());
    let span_ms = if smoke() { 10 * 60 * 1000 } else { 60 * 60 * 1000 };
    let selector = Selector::metric("bench_requests_total");

    let db = populate(span_ms, false);
    let snapshots = db.select(&selector);
    group.bench_function("chunk_scan/compressed", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for snapshot in &snapshots {
                total += black_box(snapshot.points_in(0, u64::MAX)).len();
            }
            total
        })
    });
    let stats = db.stats();
    println!(
        "micro/range_query setup: storage holds {} samples in {} bytes ({:.2} bytes/sample)",
        stats.samples,
        stats.resident_bytes,
        stats.bytes_per_sample()
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_range, bench_chunk_scan
}
criterion_main!(benches);
