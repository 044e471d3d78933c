//! Durability microbenchmarks (`micro/wal`): the cost of the write-ahead
//! log on top of the ingest fast lane, recorded in `BENCH_wal.json`.
//!
//! * `round_{1k,10k}/{volatile,durable}` — one steady batch-append round
//!   (every series one sample, then `wal_flush`) against an in-memory
//!   database vs a durable one on tmpfs in the default fsync mode
//!   (sync-on-rotation).  The delta is the durability tax: staging into the
//!   shard buffers, then one drain, one checksum and one sequential write
//!   for the whole round.
//! * `round_{1k,10k}/durable_fsync` — the same round under
//!   `FsyncMode::EveryCommit` (power-loss-safe acks); the delta vs
//!   `durable` is pure fsync cost, one per round.
//! * `round_1k/durable_dense_values` — the durable round on the input
//!   *without* the property the packed sample entry exploits: full-mantissa
//!   values, handles walked against shard order, so every entry spells out
//!   its series index and all eight value bytes (11 B where `durable` logs
//!   ≈ 4).  The delta vs `durable` is what the property is worth.
//! * `round_1k/durable_rotating` — the same round with a tiny segment
//!   budget, so segments keep sealing and shards keep checkpointing onto
//!   Gorilla snapshots; the delta vs `durable` is the checkpoint cost.
//! * `scrape_round_{1k,10k}/{volatile,durable}` — the deployment-realistic
//!   comparison: one full steady scrape round (collect, ingest,
//!   meta-metrics, WAL flush) through the fast lane, mirroring
//!   `micro/ingest` — the round the "≤15% durable overhead" acceptance
//!   bound is measured on, since that is the unit of work a real
//!   deployment repeats.
//! * `replay_{1k,10k}` — `TimeSeriesDb::open` over the logs the round
//!   benches leave behind: crash-recovery throughput.
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the series counts and
//! sample counts for a fast correctness pass.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_tsdb::{
    DurabilityOptions, FsyncMode, MetricsEndpoint, ScrapeError, ScrapeTargetConfig, Scraper,
    SeriesHandle, TimeSeriesDb, TsdbConfig,
};

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

/// A scratch directory on tmpfs (falls back to the temp dir when the
/// machine has no /dev/shm), removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let base = if PathBuf::from("/dev/shm").is_dir() {
            PathBuf::from("/dev/shm")
        } else {
            std::env::temp_dir()
        };
        let dir = base.join(format!("teemon-bench-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of log in a scratch directory.
fn log_bytes(scratch: &ScratchDir) -> u64 {
    std::fs::read_dir(&scratch.0)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "log"))
        .filter_map(|entry| Some(entry.metadata().ok()?.len()))
        .sum()
}

/// `count` series shaped like a monitored node: series spread over 64 node
/// labels, resolved once so rounds run the handle fast lane.
fn handles(db: &TimeSeriesDb, count: usize) -> Vec<SeriesHandle> {
    (0..count)
        .map(|i| {
            let labels = Labels::from_pairs([
                ("node", format!("node-{}", i % 64).as_str()),
                ("idx", format!("{i}").as_str()),
            ]);
            db.resolve("teemon_wal_bench", &labels)
        })
        .collect()
}

/// One ingest round: every series appends one sample at `t`, then the WAL
/// flush (a no-op on volatile databases, so both sides run the same code).
/// Values are whole numbers, as counters and page counts are, or — `dense` —
/// a full 52-bit mantissa each.
fn round(
    db: &TimeSeriesDb,
    handles: &[SeriesHandle],
    batch: &mut Vec<(SeriesHandle, u64, f64)>,
    t: u64,
    dense: bool,
) {
    batch.clear();
    for (i, &handle) in handles.iter().enumerate() {
        let value = if dense { std::f64::consts::PI * (i as u64 + t) as f64 } else { i as f64 };
        batch.push((handle, t, value));
    }
    let outcome = db.append_batch(batch);
    assert_eq!(outcome.appended as usize, handles.len());
    assert!(db.wal_flush());
}

/// Durable vs volatile steady round, plus the rotating variant.
fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/wal");
    group.sample_size(sample_count());
    for &count in series_counts() {
        let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
        let cases: [(&str, Option<(u64, FsyncMode)>); 5] = [
            ("volatile", None),
            ("durable", Some((u64::MAX, FsyncMode::OnRotation))),
            ("durable_dense_values", Some((u64::MAX, FsyncMode::OnRotation))),
            ("durable_fsync", Some((u64::MAX, FsyncMode::EveryCommit))),
            ("durable_rotating", Some((64 << 10, FsyncMode::OnRotation))),
        ];
        for (mode_tag, durability) in cases {
            let dense = mode_tag == "durable_dense_values";
            if (dense || mode_tag == "durable_rotating") && count >= 10_000 {
                continue; // the rotation and dense-value deltas are measured once, at 1k
            }
            let scratch = ScratchDir::new(&format!("round-{tag}-{mode_tag}"));
            let db = match durability {
                None => TimeSeriesDb::with_config(TsdbConfig::default()),
                Some((segment_bytes, fsync)) => {
                    let options =
                        DurabilityOptions { segment_bytes, fsync, ..DurabilityOptions::default() };
                    TimeSeriesDb::open_with(&scratch.0, TsdbConfig::default(), options)
                        .expect("open durable bench db")
                }
            };
            let mut handles = handles(&db, count);
            if dense {
                // Backwards through every shard: no entry can name its
                // series as a step forward from the one before.
                handles.reverse();
            }
            let mut batch = Vec::with_capacity(count);
            let clock = AtomicU64::new(0);
            // Warm up: grow the staging buffers, open the log files.
            for _ in 0..3 {
                let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                round(&db, &handles, &mut batch, now, dense);
            }
            group.bench_function(format!("round_{tag}/{mode_tag}"), |b| {
                b.iter(|| {
                    let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                    round(&db, &handles, &mut batch, now, dense);
                    black_box(db.stats().samples)
                })
            });
            if durability.is_some_and(|(segment_bytes, _)| segment_bytes == u64::MAX) {
                // One more round, weighed: the bytes its group put in the log.
                let before = log_bytes(&scratch);
                let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                round(&db, &handles, &mut batch, now, dense);
                println!(
                    "micro/wal/round_{tag}/{mode_tag:<28} group: {} bytes per round",
                    log_bytes(&scratch) - before
                );
            }
        }
    }
    group.finish();
}

/// `count` gauge series shaped like a monitored node, mirroring
/// `micro/ingest`: 8 metric families, series spread over 64 node labels.
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

/// One full steady scrape round per iteration — the fast lane end to end
/// (collect, ingest, meta-metrics, WAL flush), volatile vs durable.  The
/// deployment-realistic durability overhead is the delta between the two.
fn bench_scrape_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/wal");
    group.sample_size(sample_count());
    for &count in series_counts() {
        let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
        for durable in [false, true] {
            let mode_tag = if durable { "durable" } else { "volatile" };
            let scratch = ScratchDir::new(&format!("scrape-{tag}-{mode_tag}"));
            let db = if durable {
                TimeSeriesDb::open(&scratch.0, TsdbConfig::default()).expect("open durable db")
            } else {
                TimeSeriesDb::with_config(TsdbConfig::default())
            };
            let scraper = Scraper::new(db);
            scraper.add_target(
                ScrapeTargetConfig::new("bench_exporter", "node-1:9999")
                    .with_label("node", "node-1"),
                Arc::new(SteadyEndpoint(Mutex::new(families(count)))),
            );
            let clock = AtomicU64::new(0);
            // Warm up: build the scrape cache, create every series, grow the
            // WAL staging buffers.
            for _ in 0..3 {
                scraper.scrape_round(clock.fetch_add(5_000, Ordering::Relaxed) + 5_000);
            }
            group.bench_function(format!("scrape_round_{tag}/{mode_tag}"), |b| {
                b.iter(|| {
                    let now = clock.fetch_add(5_000, Ordering::Relaxed) + 5_000;
                    black_box(scraper.scrape_round(now))
                })
            });
        }
    }
    group.finish();
}

/// Crash-recovery replay: `TimeSeriesDb::open` over a directory holding
/// `rounds` flushed rounds of `count` series.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/wal");
    group.sample_size(sample_count());
    let rounds = if smoke() { 4 } else { 50 };
    for &count in series_counts() {
        let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
        let scratch = ScratchDir::new(&format!("replay-{tag}"));
        let expected = {
            let db = TimeSeriesDb::open(&scratch.0, TsdbConfig::default()).expect("open");
            let handles = handles(&db, count);
            let mut batch = Vec::with_capacity(count);
            for r in 1..=rounds {
                round(&db, &handles, &mut batch, r * 5_000, false);
            }
            db.stats().samples
        };
        group.bench_function(format!("replay_{tag}_x{rounds}_rounds"), |b| {
            b.iter(|| {
                let recovered =
                    TimeSeriesDb::open(&scratch.0, TsdbConfig::default()).expect("reopen");
                assert_eq!(recovered.stats().samples, expected);
                black_box(recovered.stats().samples)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rounds, bench_scrape_rounds, bench_replay
}
criterion_main!(benches);
