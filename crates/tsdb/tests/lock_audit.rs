//! Dynamic lock-audit run over the real engine (`RUSTFLAGS="--cfg
//! lock_audit"`, see `vendor/parking_lot/src/audit.rs`).  Under the
//! instrumented shim every acquisition feeds the lock-order graph and any
//! violation — a lock-order cycle, a recursive acquisition, an unordered
//! multi-shard hold — panics at the acquisition site, so simply driving the
//! engine hard *is* the assertion.  On top of that, a counting global
//! allocator records every allocation that arrives while an exclusive shard
//! lock is held outside an approved `allow_alloc` scope — the dynamic twin
//! of the `alloc_free_*` proofs, which are compiled out in this mode.

#![cfg(lock_audit)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{audit, LockClass, Mutex};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_testkit::FaultFs;
use teemon_tsdb::{
    CardinalityBudgets, DurabilityOptions, ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb,
    TsdbConfig, BATCH_BLOCK,
};

/// Allocations observed while [`audit::alloc_armed`] reported `true` — i.e.
/// while some thread held an exclusive `no_alloc` (shard) lock outside an
/// `allow_alloc` scope.  Must stay zero; counted rather than panicked on, so
/// the failure surfaces as a readable assertion instead of an allocator
/// panic mid-unwinding.
static ARMED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct AuditingAllocator;

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for AuditingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if audit::alloc_armed() {
            ARMED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if audit::alloc_armed() {
            ARMED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: AuditingAllocator = AuditingAllocator;

fn armed_allocations() -> u64 {
    ARMED_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Drives every storage path that takes shard write locks — series creation,
/// warm appends, chunk sealing, handle batches with stale repair, retention
/// eviction, selector drops — and checks that no allocation escaped the
/// documented `allow_alloc` scopes.
#[test]
fn engine_exercise_allocates_only_in_approved_scopes() {
    let before = armed_allocations();
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 8, retention_ms: 40_000 });
    let labels: Vec<Labels> = (0..64)
        .map(|i| Labels::from_pairs([("node", format!("n{}", i % 4)), ("idx", format!("{i}"))]))
        .collect();
    // Creation (allocates inside create_series' scope) + warm appends.
    for t in 0..50u64 {
        for (i, l) in labels.iter().enumerate() {
            db.append("teemon_syscalls_total", l, t * 1_000, (t + i as u64) as f64);
        }
    }
    // The fast lane: resolve once, batch per round, chunk seals included.
    let handles: Vec<_> = labels.iter().map(|l| db.resolve("teemon_syscalls_total", l)).collect();
    for t in 50..80u64 {
        let batch: Vec<_> = handles.iter().map(|&h| (h, t * 1_000, t as f64)).collect();
        let outcome = db.append_batch(&batch);
        assert_eq!(outcome.appended, 64);
    }
    // Maintenance: selector drop + retention eviction (both allow-scoped),
    // then a stale-handle batch (the `stale` report may grow under the lock).
    assert!(db.drop_series(&Selector::all().with_label("node", "n3")) > 0);
    let batch: Vec<_> = handles.iter().map(|&h| (h, 90_000, 1.0)).collect();
    db.append_batch(&batch);
    db.append("fresh", &Labels::new(), 200_000, 1.0);
    db.apply_retention();
    assert_eq!(
        armed_allocations() - before,
        0,
        "allocations under an exclusive shard lock outside allow_alloc scopes"
    );
    assert!(audit::acquisition_count() > 0, "the instrumentation must have been live");
}

/// A batch of more than one [`BATCH_BLOCK`] beside range readers: every
/// block walks its shards in ascending order inside the batch's ordered
/// section, each reader holds one shard at a time, and nothing allocates
/// under a shard lock outside an approved scope (chunk seals are one).
#[test]
fn multi_block_batches_beside_range_reads_keep_the_lock_rules() {
    const SERIES: u64 = 200;
    const PER_SERIES: u64 = 24;
    const { assert!(SERIES * PER_SERIES > BATCH_BLOCK as u64) };
    let before = armed_allocations();
    let db = TimeSeriesDb::new();
    let handles: Vec<_> = (0..SERIES)
        .map(|i| db.resolve("m", &Labels::from_pairs([("idx", format!("{i}"))])))
        .collect();
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut batch = Vec::new();
            for first in (0..10 * PER_SERIES).step_by(PER_SERIES as usize) {
                batch.clear();
                for t in first..first + PER_SERIES {
                    batch.extend(handles.iter().map(|&h| (h, t * 1_000, t as f64)));
                }
                assert_eq!(db.append_batch(&batch).appended, SERIES * PER_SERIES);
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for series in db.select(&Selector::metric("m")) {
                        series.points_in(30_000, 200_000);
                    }
                }
            })
        })
        .collect();
    writer.join().expect("no audit violation may fire in the writer");
    for reader in readers {
        reader.join().expect("no audit violation may fire in a reader");
    }
    assert_eq!(db.stats().samples, 10 * SERIES * PER_SERIES);
    assert_eq!(
        armed_allocations() - before,
        0,
        "allocations under an exclusive shard lock outside allow_alloc scopes"
    );
}

/// A full multi-threaded scrape/query workload under the audit: concurrent
/// scrapers (targets → target cache → shard → symbols) and queriers
/// (symbols, then shards) must establish a cycle-free lock order — any
/// inversion panics inside the audit and fails the test.
#[test]
fn concurrent_scrape_and_query_establish_a_clean_lock_order() {
    let db = TimeSeriesDb::new();
    // Shared admission budgets: every cache rebuild runs begin/commit on the
    // `scrape.budgets` pool while holding the target cache lock, so the
    // admission edge joins the audited graph.
    let budgets = CardinalityBudgets::new();
    budgets.set_job_limit("job", 1 << 20);
    let scraper = Scraper::new(db.clone()).with_budgets(budgets);
    // The endpoint reads its families under a lock of its own, so the
    // collection step joins the audited graph too.
    let mut family = FamilySnapshot::new("events_total", "events", MetricKind::Counter);
    for case in ["a", "b", "c"] {
        family
            .points
            .push(MetricPoint::new(Labels::from_pairs([("case", case)]), PointValue::Counter(1.0)));
    }
    let families = Mutex::named(vec![family], LockClass::new("test.endpoint"));
    scraper.add_target(
        ScrapeTargetConfig::new("job", "n1:1").with_series_budget(1 << 20),
        Arc::new(move || Ok(families.lock().clone())),
    );
    let threads: Vec<_> = (0..4)
        .map(|worker| {
            let scraper = scraper.clone();
            let db = db.clone();
            std::thread::spawn(move || {
                for round in 0..50u64 {
                    if worker % 2 == 0 {
                        scraper.scrape_once(round * 5_000);
                    } else {
                        for series in db.select(&Selector::metric("events_total")) {
                            series.points_in(0, u64::MAX);
                        }
                        for series in db.select(&Selector::all()) {
                            series.at(round * 5_000);
                        }
                        db.stats();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no audit violation may fire in any worker");
    }
    // The engine's documented order showed up in the graph; render the
    // report the way a CI log would.
    let report = audit::report();
    assert!(
        report.contains("tsdb.shard -> tsdb.symbols"),
        "series creation acquires symbols under the shard lock:\n{report}"
    );
    assert!(
        report.contains("scrape.target_cache -> tsdb.shard"),
        "the fast lane appends under the target cache lock:\n{report}"
    );
    assert!(
        report.contains("scrape.target_cache -> scrape.budgets"),
        "cache rebuilds run budget admission under the target cache lock:\n{report}"
    );
    println!("{report}");
}

/// The durability tier joins the order graph in one direction only.  A flush
/// holds `tsdb.wal.log` from its commit through its checkpoints and takes
/// everything else inside it — the stages it drains, the symbol table, and
/// for a shard checkpoint the shard it snapshots — while the append paths
/// stage under `tsdb.shard` without ever touching the log lock.  The reverse
/// edge would let an appender and the flusher wait on each other.
#[test]
fn the_wal_log_lock_is_outermost() {
    let fs = FaultFs::new();
    let options = DurabilityOptions {
        segment_bytes: 64, // tiny: every few rounds checkpoint shards and symbols
        fs: Arc::new(fs.clone()),
        ..DurabilityOptions::default()
    };
    let db = TimeSeriesDb::open_with(Path::new("/wal"), TsdbConfig::default(), options)
        .expect("FaultFs open cannot fail");
    for round in 1..=8u64 {
        for node in 0..4 {
            let labels = Labels::from_pairs([("node", format!("n{node}"))]);
            db.append("teemon_wal_metric", &labels, round * 1_000, round as f64);
        }
        assert!(db.wal_flush());
    }
    // An appender that outgrows its shard's staging budget flushes by itself
    // — through the same door, after it let go of the shard.
    let written = fs.total_write_bytes();
    let labels = Labels::from_pairs([("node", "n0")]);
    for t in 0..16_000u64 {
        db.append("teemon_wal_metric", &labels, 10_000 + t, std::f64::consts::PI * t as f64);
    }
    assert!(fs.total_write_bytes() > written, "the appender must have committed on its own");
    let report = audit::report();
    for edge in [
        "tsdb.shard -> tsdb.wal.shard",
        "tsdb.wal.log -> tsdb.wal.shard",
        "tsdb.wal.log -> tsdb.symbols",
        "tsdb.wal.log -> tsdb.shard",
    ] {
        assert!(report.contains(edge), "missing {edge}:\n{report}");
    }
    assert!(!report.contains("tsdb.shard -> tsdb.wal.log"), "{report}");
}

/// The detector actually detects: a deliberately inverted acquisition order
/// (on fresh lock classes, so the engine's graph is untouched) must panic
/// with the offending cycle, and the poisoned edge must not survive.
#[test]
fn deliberate_lock_order_inversion_is_caught() {
    use parking_lot::{LockClass, Mutex};
    let a = Arc::new(Mutex::named((), LockClass::new("test.inversion.a")));
    let b = Arc::new(Mutex::named((), LockClass::new("test.inversion.b")));
    {
        let _ga = a.lock();
        let _gb = b.lock(); // establish a -> b
    }
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let result = std::thread::spawn(move || {
        let _gb = b2.lock();
        let _ga = a2.lock(); // b -> a: closes the cycle
    })
    .join();
    let err = result.expect_err("the inverted order must panic in the acquiring thread");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("lock-order cycle"), "unexpected panic: {msg}");
    // The graph was not poisoned: the legal order still passes.
    let _ga = a.lock();
    let _gb = b.lock();
}
