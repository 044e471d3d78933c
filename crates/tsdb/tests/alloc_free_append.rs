//! Code-level proof of the zero-allocation append hot path: a counting
//! global allocator wraps the system allocator, and appending to an existing
//! series (borrowed-key hash lookup + a store into the head's inline tail,
//! bursts encoded into the buffer its first chunk grew) must perform zero
//! heap allocations.

// Audit bookkeeping (held-lock stacks, the order graph) allocates by
// design, so the zero-allocation proofs only hold without `lock_audit`;
// `tests/lock_audit.rs` covers the allocation rule in that mode.
#![cfg(not(lock_audit))]

use teemon_metrics::Labels;
use teemon_testkit::alloc::{allocations, CountingAllocator};
use teemon_tsdb::{BatchOutcome, Selector, SeriesHandle, TimeSeriesDb, BATCH_BLOCK};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn append_to_existing_series_is_allocation_free() {
    let db = TimeSeriesDb::new(); // chunk_size 120
    let labels = Labels::from_pairs([("node", "n1"), ("job", "sgx_exporter")]);
    // Create the series (interns symbols) and warm it through its first
    // chunk: its block's buffer grows there (`heap_ledger.rs` counts the
    // doublings), the seal keeps it.
    for t in 0..120u64 {
        assert!(db.append("teemon_syscalls_total", &labels, t * 1_000, t as f64));
    }
    let before = allocations();
    for t in 120..192u64 {
        assert!(db.append("teemon_syscalls_total", &labels, t * 1_000, t as f64));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "append to an existing series must not allocate (key lookup is borrowed-key hashing, \
         the head's tail is inline and its block buffer is kept)"
    );
    assert_eq!(db.stats().samples, 192);
}

#[test]
fn rejected_appends_are_allocation_free_too() {
    let db = TimeSeriesDb::new();
    let labels = Labels::from_pairs([("node", "n1")]);
    db.append("m", &labels, 10_000, 1.0);
    let before = allocations();
    assert!(!db.append("m", &labels, 1_000, 2.0));
    assert_eq!(allocations() - before, 0, "out-of-order rejection must not allocate");
    assert_eq!(db.stats().rejected_samples, 1);
}

#[test]
fn chunk_seal_allocates_only_at_the_boundary() {
    let db = TimeSeriesDb::new(); // chunk_size 120
    let labels = Labels::new();
    // The first chunk grows its block's buffer; from the second on it is there.
    for t in 0..120u64 {
        db.append("m", &labels, t, 0.0);
    }
    let before = allocations();
    for t in 120..239u64 {
        db.append("m", &labels, t, 0.0);
    }
    assert_eq!(allocations() - before, 0, "filling a warm head must not allocate");
    // Sample 240 seals the chunk: the only allocations in a chunk's lifetime.
    let before = allocations();
    db.append("m", &labels, 300, 0.0);
    assert!(allocations() > before, "sealing must copy the block into a fresh Arc chunk");
    // And the path is allocation-free again afterwards.
    let before = allocations();
    db.append("m", &labels, 301, 0.0);
    assert_eq!(allocations() - before, 0);
    assert_eq!(db.select(&Selector::metric("m"))[0].chunk_count(), 3);
}

/// A warm `append_batch` of more than one [`BATCH_BLOCK`]: sorting each block
/// by shard uses a stack array, so however long the batch, nothing is
/// allocated.
#[test]
fn a_warm_multi_block_batch_is_allocation_free() {
    const SERIES: u64 = 200;
    // Samples per series per batch: a divisor of the chunk size, so a
    // batch that starts a chunk seals nothing.
    const PER_SERIES: u64 = 24;
    let db = TimeSeriesDb::new(); // chunk_size 120
    let handles: Vec<SeriesHandle> = (0..SERIES)
        .map(|i| db.resolve("m", &Labels::from_pairs([("idx", format!("{i}"))])))
        .collect();
    let mut batch = Vec::with_capacity((SERIES * PER_SERIES) as usize);
    let round = |batch: &mut Vec<(SeriesHandle, u64, f64)>, first: u64| {
        batch.clear();
        for t in first..first + PER_SERIES {
            batch.extend(handles.iter().map(|&h| (h, t * 1_000, t as f64)));
        }
        db.append_batch(batch)
    };
    const { assert!(SERIES * PER_SERIES > BATCH_BLOCK as u64) };
    // Five batches take every series through its first chunk, where its
    // block's buffer grows; the seal at its end keeps the buffer.
    for first in (0..120).step_by(PER_SERIES as usize) {
        assert_eq!(round(&mut batch, first).appended, SERIES * PER_SERIES);
    }
    let before = allocations();
    let outcome = round(&mut batch, 120);
    assert_eq!(allocations() - before, 0, "a warm multi-block batch must not allocate");
    assert_eq!(outcome, BatchOutcome { appended: SERIES * PER_SERIES, ..BatchOutcome::default() });
}

/// A warm batch whose shard runs step back to lower locals — the order a
/// churned push lane hands over, renamed series last — is sorted run by run
/// in place before it is applied, so it allocates nothing either.
#[test]
fn a_warm_out_of_order_batch_is_allocation_free() {
    const SERIES: u64 = 200;
    const PER_SERIES: u64 = 4;
    let db = TimeSeriesDb::new(); // chunk_size 120
    let mut handles: Vec<SeriesHandle> = (0..SERIES)
        .map(|i| db.resolve("m", &Labels::from_pairs([("idx", format!("{i}"))])))
        .collect();
    // Newest series first: every shard's run descends.
    handles.reverse();
    let mut batch = Vec::with_capacity((SERIES * PER_SERIES) as usize);
    let round = |batch: &mut Vec<(SeriesHandle, u64, f64)>, first: u64| {
        batch.clear();
        for t in first..first + PER_SERIES {
            batch.extend(handles.iter().map(|&h| (h, t * 1_000, t as f64)));
        }
        db.append_batch(batch)
    };
    // Thirty batches take every series through its first chunk.
    for first in (0..120).step_by(PER_SERIES as usize) {
        assert_eq!(round(&mut batch, first).appended, SERIES * PER_SERIES);
    }
    let before = allocations();
    let outcome = round(&mut batch, 120);
    assert_eq!(allocations() - before, 0, "a warm out-of-order batch must not allocate");
    assert_eq!(outcome, BatchOutcome { appended: SERIES * PER_SERIES, ..BatchOutcome::default() });
}
