//! Self-telemetry microbenchmarks (`micro/obs`): the cost of the probe
//! primitives the engine's hot paths pay on every operation — relaxed-atomic
//! counter increments, per-shard counter adds, log-linear histogram records,
//! RAII span timers, the below-threshold slow-query check — plus the in-place
//! [`SelfSnapshot`] refresh and a full dogfooded self-scrape round.
//!
//! The instrumentation is always on, so its overhead is proven differentially:
//! `BENCH_obs.json` records `micro/ingest` and `micro/range_query` before and
//! after the probes were wired in (≤ 5 % drift).  This bench pins the
//! per-primitive costs so a regression shows up as an absolute number, not
//! only as noise in the macro benches.
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) for a fast correctness pass.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use teemon_obs::{probes, slow, SelfSnapshot, Span};
use teemon_tsdb::{Scraper, TimeSeriesDb};

fn smoke() -> bool {
    std::env::var_os("TEEMON_BENCH_SMOKE").is_some()
}

fn sample_count() -> usize {
    if smoke() {
        10
    } else {
        60
    }
}

/// The probe primitives, measured bare: these run inside ingest/query inner
/// loops, so each must stay in the few-nanosecond range.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/obs");
    group.sample_size(sample_count());
    group.bench_function("counter_inc", |b| b.iter(|| probes::SCRAPE_ROUNDS.inc()));
    group.bench_function("shard_counter_add", |b| {
        b.iter(|| probes::SHARD_APPENDS.add(black_box(3), black_box(48)))
    });
    group
        .bench_function("gauge_set", |b| b.iter(|| probes::STORAGE_SERIES.set(black_box(1_024.0))));
    group.bench_function("hist_record", |b| {
        b.iter(|| probes::QUERY_NS.record_ns(black_box(1_500_000)))
    });
    group.bench_function("span_start_drop", |b| {
        b.iter(|| {
            let span = Span::start(&probes::SCRAPE_COLLECT_NS);
            black_box(&span);
        })
    });
    group.bench_function("slow_check_below_threshold", |b| {
        // The common case: the query finished fast, so the ring is never
        // touched and no query text is rendered.
        b.iter(|| black_box(slow::maybe_record("sum(rate(x[5m]))", 10, 100, 0)))
    });
    group.finish();
}

/// The consumer side: refreshing a warm [`SelfSnapshot`] in place (what the
/// self-scrape endpoint runs every round) and a full self-scrape round
/// through the ingest fast lane.
fn bench_self_scrape(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/obs");
    group.sample_size(sample_count());

    let mut snapshot = SelfSnapshot::new();
    snapshot.refresh();
    group.bench_function("snapshot_refresh", |b| {
        b.iter(|| {
            snapshot.refresh();
            black_box(snapshot.families().len())
        })
    });

    let scraper = Scraper::new(TimeSeriesDb::new());
    scraper.add_self_target("bench:self");
    let clock = AtomicU64::new(0);
    // Warm up: build the snapshot layout and the scrape cache.
    for _ in 0..3 {
        scraper.scrape_round(clock.fetch_add(5_000, Ordering::Relaxed) + 5_000);
    }
    group.bench_function("self_scrape_round", |b| {
        b.iter(|| {
            let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
            black_box(scraper.scrape_round(now))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_primitives, bench_self_scrape
}
criterion_main!(benches);
