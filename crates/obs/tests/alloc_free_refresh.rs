//! Code-level proof that the self-telemetry loop is **allocation-free on
//! the warm path**: recording probes (counters, gauges, histograms, span
//! timers, contended lock acquisitions) and refreshing a built
//! [`SelfSnapshot`] in place must not touch the heap.  This is the
//! obs-crate half of the property; `teemon_tsdb`'s `alloc_free_scrape.rs`
//! proves the full scrape round that consumes the refreshed snapshot.

// Lock-audit bookkeeping allocates by design; the zero-allocation proofs
// only hold without `--cfg lock_audit`.
#![cfg(not(lock_audit))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teemon_obs::{probes, slow, snapshot::SelfSnapshot, Span};

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

/// One "round" of engine self-telemetry: the writes the ingest, storage and
/// query layers perform, followed by the in-place snapshot refresh the
/// self-scrape endpoint runs.
fn telemetry_round(snap: &mut SelfSnapshot, lock: &parking_lot::Mutex<u64>) {
    {
        let _round = Span::start(&probes::SCRAPE_ROUND_NS);
        let _collect = Span::start(&probes::SCRAPE_COLLECT_NS);
        probes::SCRAPE_ROUNDS.inc();
        probes::CACHE_HITS.inc();
        probes::SHARD_APPENDS.add(3, 48);
        probes::STORAGE_SERIES.set(48.0);
        probes::SHARD_SERIES.set(3, 12.0);
        probes::QUERY_STREAMED.inc();
        probes::QUERY_SAMPLES_DECODED.add(1000);
        probes::QUERY_NS.record_ns(1_500_000);
        // A named-lock acquisition records contention-table telemetry.
        *lock.lock() += 1;
        // Below-threshold queries must not touch the slow-query ring.
        slow::maybe_record("sum(rate(x[5m]))", 10, 1000, 0);
    }
    snap.refresh();
}

#[test]
fn warm_probe_record_and_refresh_allocate_nothing() {
    let lock = parking_lot::Mutex::named(0u64, parking_lot::LockClass::new("obs.alloc_free_test"));
    // Warm up: the first rounds build the snapshot layout, register the lock
    // class and fault in lazy statics (clock epoch, slow-query threshold).
    let mut snap = SelfSnapshot::new();
    for _ in 0..3 {
        telemetry_round(&mut snap, &lock);
    }

    let before = allocations();
    for _ in 0..10 {
        telemetry_round(&mut snap, &lock);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm telemetry rounds must not allocate (saw {} allocations over 10 rounds)",
        after - before
    );

    // Sanity: the refreshed snapshot actually carries the recorded values.
    let rounds = snap
        .families()
        .iter()
        .find(|f| f.name == "teemon_scrape_rounds_total")
        .and_then(|f| f.points.first())
        .map(|p| p.value.scalar())
        .expect("rounds family");
    assert!(rounds >= 13.0);
}
