//! The heap holds what the ledger counts: a counting global allocator
//! tracks the *live bytes* behind sample storage in three stores shaped like
//! the end-to-end benchmark's, and they must stay within
//! [`StorageStats::resident_bytes`] plus a stated constant per chunk and per
//! series — an open head is the block it will seal, in a buffer at most
//! twice what it holds (its newest samples sit inline in the series record,
//! no heap at all), sealed payloads are exact-sized allocations, and a
//! retention pass releases the heads of series that went stale.  The same
//! allocator counts the events behind that: how often a head's block
//! reallocates inside its first chunk, and what a seal allocates.
//!
//! Companion to `alloc_free_append.rs` / `alloc_free_scrape.rs`, which prove
//! the warm paths allocate nothing at all.

// Audit bookkeeping (held-lock stacks, the order graph) allocates by
// design, so heap accounting only holds without `lock_audit`.
#![cfg(not(lock_audit))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teemon_metrics::Labels;
use teemon_tsdb::{Selector, SeriesHandle, StorageStats, TimeSeriesDb, TsdbConfig, STALE_HEAD_MS};

struct LiveBytesAllocator;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Sizes of the two most recent `alloc` calls, newest first.
    static LAST_SIZES: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
}

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + layout.size() as i64));
        ALLOCS.with(|c| c.set(c.get() + 1));
        LAST_SIZES.with(|c| c.set([layout.size(), c.get()[0]]));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        REALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytesAllocator = LiveBytesAllocator;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// `(alloc calls, realloc calls)` so far on this thread.
fn events() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

const CHUNK_SIZE: usize = 120;
const TICK_MS: u64 = 5_000;

/// What a sealed chunk costs beyond its payload: the `Arc<Chunk>` block (two
/// counts, the `(start, end, count)` footer, the payload's pointer and
/// length) and its slot in the series' chunk list, with that list's doubling
/// (at most one spare slot per held one).
const PER_CHUNK: u64 = 72 + 8 + 8;

/// What a series may hold beyond that: a first block buffer of 32 bytes
/// however few it fills, and a chunk list that starts at four slots.
const PER_SERIES: u64 = 64;

/// The buffer a head's block grows into over a full chunk of the value
/// shapes [`round`] writes (whole numbers at a steady rate: an integer block
/// of under half a byte a sample): 32 bytes, doubled once.  A seal keeps it
/// for the next chunk.
const KEPT_BUFFER: u64 = 64;

fn db() -> TimeSeriesDb {
    TimeSeriesDb::with_config(TsdbConfig {
        chunk_size: CHUNK_SIZE,
        retention_ms: 24 * 60 * 60 * 1000,
    })
}

fn resolve(db: &TimeSeriesDb, name: &str, count: usize) -> Vec<SeriesHandle> {
    (0..count)
        .map(|i| db.resolve(name, &Labels::from_pairs([("idx", format!("{i}").as_str())])))
        .collect()
}

/// One round: sample `round` of every series in `handles` (a gauge drifting
/// down, a counter climbing — the benchmark's value shapes), one batch.
fn round(
    db: &TimeSeriesDb,
    handles: &[SeriesHandle],
    batch: &mut Vec<(SeriesHandle, u64, f64)>,
    round: u64,
) {
    batch.clear();
    for (i, &handle) in handles.iter().enumerate() {
        let value = if i % 2 == 0 { 24_000.0 - round as f64 } else { (round * 17) as f64 };
        batch.push((handle, round * TICK_MS, value));
    }
    assert_eq!(db.append_batch(batch).appended, handles.len() as u64);
}

/// The ledger's allowance for `stats`: what it counts, the stated constants
/// for what it knowingly does not, and `head_slack` bytes of block buffer
/// not in use.
fn allowance(stats: &StorageStats, head_slack: u64) -> i64 {
    (stats.resident_bytes + stats.chunks * PER_CHUNK + stats.series * PER_SERIES + head_slack)
        as i64
}

/// Moves every shard's newest timestamp to `at_ms` through `tickers` (enough
/// series to land in every shard), so a retention pass judges the rest idle.
fn tick(db: &TimeSeriesDb, tickers: &[SeriesHandle], at_ms: u64) {
    for &ticker in tickers {
        db.append_handle(ticker, at_ms, 1.0);
    }
}

#[test]
fn steady_series_hold_their_blocks_and_one_head_buffer() {
    // `pull_rounds_1k`'s shape: 1 000 series, 400 rounds — three sealed
    // chunks and a 40-sample head each.
    const SERIES: usize = 1_000;
    const ROUNDS: u64 = 400;
    let db = db();
    let handles = resolve(&db, "steady", SERIES);
    let mut batch = Vec::with_capacity(SERIES);
    let before = live();
    for r in 1..=ROUNDS {
        round(&db, &handles, &mut batch, r);
    }
    let held = live() - before;
    let stats = db.stats();
    assert_eq!((stats.samples, stats.chunks), (SERIES as u64 * ROUNDS, SERIES as u64 * 4));
    // Past its first seal a steady series keeps one block buffer; the ledger
    // counts the five bursts in it, the rest of it is stated here.
    let in_use = db.head_bytes();
    assert!(in_use < SERIES as u64 * KEPT_BUFFER, "{in_use} B of open heads");
    let bound = allowance(&stats, SERIES as u64 * KEPT_BUFFER - in_use);
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({stats:?})");
    // (Round 400 ends a burst: no sample sits in an inline tail.)
    assert!(held >= stats.resident_bytes as i64, "the ledger counts nothing that is not there");
}

#[test]
fn preloaded_series_hold_exact_blocks_and_release_empty_heads_once_stale() {
    // `dashboard_read`'s shape: 200 series of exactly 12 full chunks.
    const SERIES: usize = 200;
    const ROUNDS: u64 = 12 * CHUNK_SIZE as u64;
    let db = db();
    let handles = resolve(&db, "preloaded", SERIES);
    let tickers = resolve(&db, "ticker", 256);
    let mut batch = Vec::with_capacity(SERIES);
    let before = live();
    for r in 1..=ROUNDS {
        round(&db, &handles, &mut batch, r);
    }
    let held = live() - before;
    let stats = db.stats();
    assert_eq!(stats.chunks, SERIES as u64 * 12);
    // Every head is empty and still has its buffer: the one thing here the
    // ledger does not count.
    assert_eq!(db.head_bytes(), 0);
    let kept_heads = SERIES as u64 * KEPT_BUFFER;
    let bound = allowance(&stats, kept_heads);
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({stats:?})");

    // More than five idle minutes later a retention pass releases them.
    tick(&db, &tickers, ROUNDS * TICK_MS + STALE_HEAD_MS + 1);
    let before_pass = live();
    assert_eq!(db.apply_retention(), 0);
    let released = before_pass - live();
    assert!(released >= kept_heads as i64, "only {released} B of {kept_heads} B came back");
    let stats = db.stats();
    let (held, bound) = (live() - before, allowance(&stats, 0));
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({stats:?})");
}

#[test]
fn churned_series_cost_their_samples_not_a_head_buffer() {
    // `mixed_churn`'s shape: 2 000 series that die young, 1 to 40 samples in.
    const SERIES: usize = 2_000;
    let db = db();
    let handles = resolve(&db, "churned", SERIES);
    let tickers = resolve(&db, "ticker", 256);
    let before = live();
    for (i, &handle) in handles.iter().enumerate() {
        for t in 0..1 + (i as u64 * 7) % 40 {
            db.append_handle(handle, t * TICK_MS, (t * 3) as f64);
        }
    }
    // A head's buffer is at most twice the block in it (32 bytes at least,
    // in `PER_SERIES`), and the tail the ledger counts is not heap at all…
    let stats = db.stats();
    assert_eq!(db.head_bytes(), stats.resident_bytes, "nothing is sealed yet");
    let (held, bound) = (live() - before, allowance(&stats, db.head_bytes()));
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({stats:?})");

    // …and nothing once the series has been idle for five minutes: the
    // samples are sealed into exact blocks, chunk for chunk.
    tick(&db, &tickers, 40 * TICK_MS + STALE_HEAD_MS + 1);
    assert_eq!(db.apply_retention(), 0);
    let sealed = db.stats();
    assert_eq!(db.head_bytes(), 256 * 16, "the tickers' one sample each");
    assert_eq!(
        (sealed.samples, sealed.chunks, sealed.series),
        (stats.samples + 256, stats.chunks + 256, stats.series),
        "the tickers' samples are all that was added"
    );
    assert!(sealed.resident_bytes < stats.resident_bytes);
    let (held, bound) = (live() - before, allowance(&sealed, 0));
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({sealed:?})");
}

#[test]
fn a_head_doubles_through_its_first_chunk_and_then_only_seals_allocate() {
    let db = db();
    let handle = db.resolve("m", &Labels::new());
    let append = |t: u64| {
        let before = events();
        assert_eq!(
            db.append_handle(handle, t * TICK_MS, t as f64),
            teemon_tsdb::HandleAppend::Appended
        );
        let after = events();
        (after.0 - before.0, after.1 - before.1)
    };

    // First chunk: one allocation for the block's first 32 bytes at the
    // first burst, then a realloc per doubling — one, to 64, for a counter.
    let (mut allocs, mut reallocs) = (0, 0);
    for t in 0..CHUNK_SIZE as u64 - 1 {
        let (a, r) = append(t);
        assert!(a + r == 0 || (t + 1) % 8 == 0, "append {t} allocated outside a burst");
        allocs += a;
        reallocs += r;
    }
    assert_eq!(allocs, 1);
    assert!((1..=4).contains(&reallocs), "{reallocs} reallocations in a first chunk");
    // Its seal: the chunk, the payload and the chunk list's first slots.
    assert_eq!(append(CHUNK_SIZE as u64 - 1), (3, 0));

    // Second chunk: nothing until the seal, which is the `Arc<Chunk>` and a
    // payload allocation of exactly the block's size.
    for t in CHUNK_SIZE as u64..2 * CHUNK_SIZE as u64 - 1 {
        assert_eq!(append(t), (0, 0), "append {t} of a warm head");
    }
    let (before, head) = (db.stats().resident_bytes, db.head_bytes());
    assert_eq!(append(2 * CHUNK_SIZE as u64 - 1), (2, 0));
    // The ledger swapped the open head (fourteen bursts as a block, seven
    // samples in the tail) for the finished block.
    assert_eq!(db.head_bytes(), 0);
    let block = db.stats().resident_bytes - (before - head);
    assert!(
        LAST_SIZES.with(Cell::get).contains(&(block as usize)),
        "no {block}-byte allocation among the seal's {:?}",
        LAST_SIZES.with(Cell::get)
    );
    let snapshot = &db.select(&Selector::metric("m"))[0];
    assert_eq!((snapshot.chunk_count(), snapshot.len()), (2, 2 * CHUNK_SIZE));
}

#[test]
fn sealing_a_thousand_chunks_takes_two_allocations_each() {
    const SERIES: usize = 1_000;
    let db = db();
    let handles = resolve(&db, "steady", SERIES);
    let mut batch = Vec::with_capacity(SERIES);
    for r in 1..2 * CHUNK_SIZE as u64 {
        round(&db, &handles, &mut batch, r);
    }
    let before = events();
    round(&db, &handles, &mut batch, 2 * CHUNK_SIZE as u64);
    let after = events();
    assert_eq!(db.stats().chunks, 2 * SERIES as u64, "every head sealed, none reopened");
    assert_eq!((after.0 - before.0, after.1 - before.1), (2 * SERIES as u64, 0));
}

#[test]
fn a_float_valued_store_weighs_what_it_did_before_blocks_had_kinds() {
    // Values with a fraction take the XOR road, the only one there was at
    // commit fd16bc7: a store of them must cost, byte for byte of its ledger,
    // what that commit's did (both numbers measured there, with this test).
    const SERIES: usize = 200;
    const ROUNDS: u64 = 400;
    let db = db();
    let handles = resolve(&db, "noisy", SERIES);
    let mut batch = Vec::with_capacity(SERIES);
    for r in 1..=ROUNDS {
        batch.clear();
        for (i, &handle) in handles.iter().enumerate() {
            // Odd sixteenths, exact in binary: never a whole number.
            let value = ((i as u64 * 31 + r * 17) % 1_009) as f64 * 0.125 + 0.0625;
            batch.push((handle, r * TICK_MS, value));
        }
        assert_eq!(db.append_batch(&batch).appended, SERIES as u64);
    }
    assert_eq!((db.stats().resident_bytes, db.head_bytes()), (228_429, 22_052));
}
