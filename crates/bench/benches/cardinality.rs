//! Cardinality defense microbenchmarks (`micro/cardinality`).
//!
//! * `churn_round/{volatile,durable_gc}` — one full churn round (a batch of
//!   brand-new unique-labelled series interned and appended, the previous
//!   round's batch dropped, then `wal_flush`).  The volatile side never
//!   garbage-collects its symbol table — it is the leak baseline — while
//!   the durable side runs the whole lifecycle: WAL symbol deltas, cooling,
//!   the rotation-time sweep, slot reuse.  The delta is the total price of
//!   *not* leaking.
//! * `budget_scrape_round_1k/{off,on}` — one warm steady-state scrape round
//!   with admission budgets detached vs attached (sized to admit
//!   everything).  Budget admission runs entirely in the cold repair path,
//!   so the two must be indistinguishable; this bench is the regression
//!   guard for that claim (`tests/alloc_free_scrape.rs` proves the
//!   allocation half).
//! * `budget_scrape_round_1k/clipping` — the same round with the budget set
//!   to clip half the target's series every round: the steady cost of an
//!   over-budget target that keeps sending (overflow counting + the
//!   roll-up meta-metric).
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink sizes for a fast
//! correctness pass.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use teemon_bench::{samples, smoke, ScratchDir};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_tsdb::{
    CardinalityBudgets, DurabilityOptions, FsyncMode, MetricsEndpoint, ScrapeError,
    ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb, TsdbConfig,
};

/// One churn round: `batch` brand-new unique-labelled series appear (cold
/// path — intern, index, WAL series records), the previous round's batch is
/// dropped (symbol release, cooling), and the round commits.  On the
/// durable side small segments keep the symbol table checkpointing, so the
/// sweep and slot reuse run inside the measured loop.
fn churn_round(db: &TimeSeriesDb, round: u64, batch: usize) {
    let now = round * 5_000;
    let tag = format!("r{round}");
    for i in 0..batch {
        let labels = Labels::from_pairs([("round", tag.as_str()), ("i", format!("{i}").as_str())]);
        db.append("teemon_churn_bench", &labels, now, i as f64);
    }
    if round > 1 {
        let gone = format!("r{}", round - 1);
        let dropped =
            db.drop_series(&Selector::metric("teemon_churn_bench").with_label("round", &gone));
        assert_eq!(dropped, batch, "previous churn batch must be live to drop");
    }
    assert!(db.wal_flush(), "bench flush must stay clean");
}

/// Churn lifecycle cost: leak baseline vs full GC.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cardinality");
    group.sample_size(samples(20));
    let batch = if smoke() { 32 } else { 256 };
    for durable in [false, true] {
        let mode_tag = if durable { "durable_gc" } else { "volatile" };
        let scratch = ScratchDir::new(&format!("card-churn-{mode_tag}"));
        let db = if durable {
            let options = DurabilityOptions {
                // Small segments: the symbol table is checkpointed (sweeping
                // cooled symbols) every few rounds, inside the measurement.
                segment_bytes: 32 << 10,
                fsync: FsyncMode::OnRotation,
                ..DurabilityOptions::default()
            };
            TimeSeriesDb::open_with(&scratch.0, TsdbConfig::default(), options)
                .expect("open durable bench db")
        } else {
            TimeSeriesDb::with_config(TsdbConfig::default())
        };
        let clock = AtomicU64::new(0);
        for _ in 0..3 {
            churn_round(&db, clock.fetch_add(1, Ordering::Relaxed) + 1, batch);
        }
        group.bench_function(format!("churn_round_{batch}/{mode_tag}"), |b| {
            b.iter(|| {
                let round = clock.fetch_add(1, Ordering::Relaxed) + 1;
                churn_round(&db, round, batch);
                black_box(db.stats().symbols)
            })
        });
        // What the churn leaves standing, per series: the records' own bytes
        // (arrays and key indexes at capacity), which `total_bytes()` leaves
        // out — a store that kept a high-water mark would read high here.
        let stats = db.stats();
        println!(
            "micro/cardinality/churn_round_{batch}/{mode_tag}: series_bytes / series = {} B \
             ({} series after the churn rounds)",
            stats.series_bytes / stats.series.max(1),
            stats.series
        );
    }
    group.finish();
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

/// Warm-round budget overhead: budgets off, on-but-admitting, and
/// on-and-clipping.
fn bench_budget_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cardinality");
    group.sample_size(samples(20));
    let count = if smoke() { 256 } else { 1_000 };
    let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
    // (case tag, target series budget) — None detaches budgets entirely.
    let cases: [(&str, Option<u64>); 3] =
        [("off", None), ("on", Some(1 << 20)), ("clipping", Some(count as u64 / 2))];
    for (mode_tag, budget) in cases {
        let db = TimeSeriesDb::with_config(TsdbConfig::default());
        let scraper = match budget {
            None => Scraper::new(db.clone()),
            Some(_) => {
                let budgets = CardinalityBudgets::new();
                budgets.set_job_limit("bench_exporter", 1 << 20);
                Scraper::new(db.clone()).with_budgets(budgets)
            }
        };
        let mut config =
            ScrapeTargetConfig::new("bench_exporter", "node-1:9999").with_label("node", "node-1");
        if let Some(limit) = budget {
            config = config.with_series_budget(limit);
        }
        scraper.add_target(config, Arc::new(SteadyEndpoint(Mutex::new(families(count)))));
        let clock = AtomicU64::new(0);
        for _ in 0..3 {
            scraper.scrape_round(clock.fetch_add(5_000, Ordering::Relaxed) + 5_000);
        }
        group.bench_function(format!("budget_scrape_round_{tag}/{mode_tag}"), |b| {
            b.iter(|| {
                let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                black_box(scraper.scrape_round(now))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn, bench_budget_rounds);
criterion_main!(benches);
