//! Ingest fast-lane microbenchmarks (`micro/ingest`): one full scrape round
//! — collect, ingest, meta-metrics — through the scraper's cached
//! shard-batched path at 1 k and 10 k series per round, plus a churn
//! scenario where 5 % of the series change identity every round and the
//! cache must repair itself.  (`BENCH_obs.json`'s overhead budget is read
//! off these rows.)
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the series counts and
//! sample counts for a fast correctness pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use std::hint::black_box;
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_tsdb::{MetricsEndpoint, ScrapeError, ScrapeTargetConfig, Scraper, TimeSeriesDb};

fn smoke() -> bool {
    std::env::var_os("TEEMON_BENCH_SMOKE").is_some()
}

fn sample_count() -> usize {
    if smoke() {
        2
    } else {
        20
    }
}

fn series_counts() -> &'static [usize] {
    if smoke() {
        &[256]
    } else {
        &[1_000, 10_000]
    }
}

/// `count` gauge series shaped like a monitored node: 8 metric families,
/// series spread over 64 node labels.
fn families(count: usize) -> Vec<FamilySnapshot> {
    let mut families: Vec<FamilySnapshot> = (0..8)
        .map(|m| FamilySnapshot::new(format!("teemon_metric_{m}"), "generated", MetricKind::Gauge))
        .collect();
    for i in 0..count {
        let labels =
            Labels::from_pairs([("node", format!("node-{}", i % 64)), ("idx", format!("{i}"))]);
        families[i % 8].points.push(MetricPoint::new(labels, PointValue::Gauge(i as f64)));
    }
    families
}

/// Steady-state endpoint: refreshes gauge values in place, the series set
/// never changes (the scrape cache hits every round).
struct SteadyEndpoint(Mutex<Vec<FamilySnapshot>>);

impl MetricsEndpoint for SteadyEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut families = self.0.lock();
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

/// Churn endpoint: every round, a rotating window of `churn` series swaps
/// its `gen` label (cycling through 8 values), so the cached round shape
/// breaks and the fast lane must run its repair pass each round.
struct ChurnEndpoint {
    families: Mutex<Vec<FamilySnapshot>>,
    round: AtomicU64,
    churn: usize,
}

impl MetricsEndpoint for ChurnEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.families.lock().clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let round = self.round.fetch_add(1, Ordering::Relaxed);
        let mut families = self.families.lock();
        let points = &mut families[0].points;
        let len = points.len();
        let start = (round as usize).wrapping_mul(self.churn) % len.max(1);
        for i in 0..self.churn.min(len) {
            let point = &mut points[(start + i) % len];
            point.labels.insert("gen", format!("g{}", round % 8));
            if let PointValue::Gauge(v) = &mut point.value {
                *v += 1.0;
            }
        }
        visit(&families);
        Ok(())
    }
}

fn scraper_with(endpoint: Arc<dyn MetricsEndpoint>) -> (Scraper, AtomicU64) {
    let scraper = Scraper::new(TimeSeriesDb::new());
    scraper.add_target(
        ScrapeTargetConfig::new("bench_exporter", "node-1:9999").with_label("node", "node-1"),
        endpoint,
    );
    // Warm up: build the scrape cache / create every series, then one
    // steady round.
    let clock = AtomicU64::new(0);
    for _ in 0..2 {
        scraper.scrape_round(clock.fetch_add(5_000, Ordering::Relaxed) + 5_000);
    }
    (scraper, clock)
}

/// One full steady-state scrape round per iteration.
fn bench_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/ingest");
    group.sample_size(sample_count());
    for &count in series_counts() {
        let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
        let endpoint = Arc::new(SteadyEndpoint(Mutex::new(families(count))));
        let (scraper, clock) = scraper_with(endpoint);
        group.bench_function(format!("steady_{tag}/fast_lane"), |b| {
            b.iter(|| {
                let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                black_box(scraper.scrape_round(now))
            })
        });
    }
    group.finish();
}

/// A round with 5 % series churn: the fast lane pays a cache repair every
/// round.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/ingest");
    group.sample_size(sample_count());
    let count = if smoke() { 256 } else { 1_000 };
    let churn = (count / 20).max(1);
    let endpoint = Arc::new(ChurnEndpoint {
        families: Mutex::new(families(count)),
        round: AtomicU64::new(0),
        churn,
    });
    let (scraper, clock) = scraper_with(endpoint);
    group.bench_function("churn_5pct_1k/fast_lane", |b| {
        b.iter(|| {
            let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
            black_box(scraper.scrape_round(now))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_steady, bench_churn
}
criterion_main!(benches);
