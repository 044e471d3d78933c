//! Code-level proof that durability keeps the warm ingest round
//! allocation-free: a counting global allocator wraps the system allocator,
//! and a steady-state `append_batch` + `wal_flush` round against a durable
//! database (real files on tmpfs) must perform zero heap allocations — the
//! WAL stages into per-shard buffers and drains them into one group buffer,
//! all of whose capacity is retained round over round, and the flush is one
//! sequential `write_all` of that group.

// Audit bookkeeping (held-lock stacks, the order graph) allocates by
// design, so the zero-allocation proofs only hold without `lock_audit`;
// `tests/lock_audit.rs` covers the allocation rule in that mode.
#![cfg(not(lock_audit))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use teemon_metrics::Labels;
use teemon_tsdb::{Sample, SeriesHandle, TimeSeriesDb, TsdbConfig};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A scratch directory on tmpfs (falls back to the target dir when the
/// machine has no /dev/shm), removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let base = if PathBuf::from("/dev/shm").is_dir() {
            PathBuf::from("/dev/shm")
        } else {
            std::env::temp_dir()
        };
        Self(base.join(format!("teemon-alloc-wal-{tag}-{}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn warm_durable_ingest_round_is_allocation_free() {
    let scratch = ScratchDir::new("round");
    // chunk_size 120: the heads seal once, in the warm-up.
    let config = TsdbConfig { chunk_size: 120, retention_ms: 86_400_000 };
    let db = TimeSeriesDb::open(&scratch.0, config).expect("open durable db on tmpfs");
    assert!(db.durable());

    let labels: Vec<Labels> = (0..64)
        .map(|i| Labels::from_pairs([("node", "n1"), ("idx", format!("{i}").as_str())]))
        .collect();
    let handles: Vec<SeriesHandle> =
        labels.iter().map(|l| db.resolve("teemon_syscalls_total", l)).collect();

    let mut batch: Vec<(SeriesHandle, u64, f64)> = Vec::with_capacity(handles.len());
    let mut round = |t: u64| {
        batch.clear();
        for (i, &handle) in handles.iter().enumerate() {
            batch.push((handle, t, i as f64));
        }
        let outcome = db.append_batch(&batch);
        assert_eq!(outcome.appended, handles.len() as u64);
        assert!(db.wal_flush(), "flush on a healthy filesystem must stay clean");
    };

    // Warm-up: create series, open the log segment lazily, grow the staging
    // and group buffers to their steady-state capacity, and take every head
    // through its first chunk (its block's buffer grows there).
    for t in 1..=120u64 {
        round(t * 1_000);
    }
    let before = allocations();
    for t in 121..=140u64 {
        round(t * 1_000);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm durable ingest round (batch append + WAL flush) must not allocate"
    );
    assert_eq!(db.stats().samples, 140 * 64);
    assert_eq!(db.stats().wal_failed_shards, 0);
}

#[test]
fn recovery_restores_the_durable_state_from_real_files() {
    let scratch = ScratchDir::new("reopen");
    let config = TsdbConfig { chunk_size: 4, retention_ms: 86_400_000 };
    let samples: Vec<Sample> =
        (1..=10u64).map(|t| Sample { timestamp_ms: t * 1_000, value: t as f64 }).collect();
    {
        let db = TimeSeriesDb::open(&scratch.0, config.clone()).expect("open");
        let labels = Labels::from_pairs([("node", "n1")]);
        for s in &samples {
            assert!(db.append("sgx_epc_pages", &labels, s.timestamp_ms, s.value));
        }
        db.wal_flush();
    }
    let db = TimeSeriesDb::open(&scratch.0, config).expect("reopen");
    let selected = db.select(&teemon_tsdb::Selector::metric("sgx_epc_pages"));
    assert_eq!(selected.len(), 1);
    assert_eq!(selected[0].points_in(0, u64::MAX), samples);
    assert_eq!(db.stats().samples, 10);
    assert_eq!(db.stats().wal_failed_shards, 0);
}
