//! The heap holds what the ledger counts: a counting global allocator
//! tracks the *live bytes* behind sample storage in three stores shaped like
//! the end-to-end benchmark's, and they must stay within
//! [`StorageStats::resident_bytes`] plus a stated constant per chunk and per
//! series — an open head is the block it will seal, in a buffer at most
//! twice what it holds (its newest samples sit inline in the series record,
//! no heap at all), sealed payloads are exact-sized allocations, and a
//! retention pass releases the heads of series that went stale.  The same
//! allocator counts the events behind that: how often a head's block
//! reallocates inside its first chunk, and what a seal allocates — and holds
//! what a sealed chunk costs beside its payload, footer and all, to
//! [`PER_CHUNK`].
//!
//! The second half counts from *before* the series are resolved, so the
//! records, the symbols and the postings are in the count: what a series
//! costs on each benchmark shape, held to a ceiling; that the gauges —
//! `resident_bytes`, [`StorageStats::series_bytes`], the symbol and postings
//! models with stated constants for what those leave out — account for all of
//! it; that `series_bytes` is what the allocator attributes to the records;
//! and that a cardinality spike is given back once it has aged out.
//!
//! Companion to `alloc_free_append.rs` / `alloc_free_scrape.rs`, which prove
//! the warm paths allocate nothing at all.

// Audit bookkeeping (held-lock stacks, the order graph) allocates by
// design, so heap accounting only holds without `lock_audit`.
#![cfg(not(lock_audit))]

use teemon_metrics::Labels;
use teemon_testkit::alloc::{events, last_alloc_size, live, CountingAllocator};
use teemon_tsdb::{Selector, SeriesHandle, StorageStats, TimeSeriesDb, TsdbConfig, STALE_HEAD_MS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const CHUNK_SIZE: usize = 120;
const TICK_MS: u64 = 5_000;

/// What a sealed chunk costs beyond its payload: its 25-byte footer inline
/// in the block that packs it with up to fifteen others, and its share of
/// that block's reference counts, count byte and padding and of the block's
/// slot in the series' list: 28.3 B measured on 1 016 series of 44 chunks.
const PER_CHUNK: u64 = 40;

/// What a series may hold beyond that: a first block buffer of 32 bytes
/// however few it fills, and the header and first slot of its list of
/// blocks with the first block's header and padding.
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
        db.append_batch(&[(ticker, at_ms, 1.0)]);
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
    let in_use = db.census().head_bytes;
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
    assert_eq!(db.census().head_bytes, 0);
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
            db.append_batch(&[(handle, t * TICK_MS, (t * 3) as f64)]);
        }
    }
    // A head's buffer is at most twice the block in it (32 bytes at least,
    // in `PER_SERIES`), and the tail the ledger counts is not heap at all…
    let stats = db.stats();
    assert_eq!(db.census().head_bytes, stats.resident_bytes, "nothing is sealed yet");
    let (held, bound) = (live() - before, allowance(&stats, db.census().head_bytes));
    assert!(held <= bound, "{held} B live for a ledger allowing {bound} B ({stats:?})");

    // …and nothing once the series has been idle for five minutes: the
    // samples are sealed into exact blocks, chunk for chunk.
    tick(&db, &tickers, 40 * TICK_MS + STALE_HEAD_MS + 1);
    assert_eq!(db.apply_retention(), 0);
    let sealed = db.stats();
    assert_eq!(db.census().head_bytes, 256 * 16, "the tickers' one sample each");
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
        let value = (1_000_000 + t) as f64;
        assert_eq!(db.append_batch(&[(handle, t * TICK_MS, value)]).appended, 1);
        let after = events();
        (after.0 - before.0, after.1 - before.1)
    };

    // First chunk: one allocation for the block's first 32 bytes at the
    // first burst, then a realloc per doubling — one, to 64, for a counter
    // already past a million (a counter from zero fits its first 119
    // samples in the 32 bytes, and doubles at the seal).
    let (mut allocs, mut reallocs) = (0, 0);
    for t in 0..CHUNK_SIZE as u64 - 1 {
        let (a, r) = append(t);
        assert!(a + r == 0 || (t + 1) % 8 == 0, "append {t} allocated outside a burst");
        allocs += a;
        reallocs += r;
    }
    assert_eq!(allocs, 1);
    assert!((1..=4).contains(&reallocs), "{reallocs} reallocations in a first chunk");
    // Its seal: the series' first block of sealed chunks and its list.
    let (before, head) = (db.stats().resident_bytes, db.census().head_bytes);
    assert_eq!(append(CHUNK_SIZE as u64 - 1), (2, 0));
    let first = db.stats().resident_bytes - (before - head);

    // Second chunk: nothing until the seal, which builds the block again,
    // both chunks in one allocation of exactly their footers and payloads,
    // in the list's one slot: no reader shares the list.
    for t in CHUNK_SIZE as u64..2 * CHUNK_SIZE as u64 - 1 {
        assert_eq!(append(t), (0, 0), "append {t} of a warm head");
    }
    let (before, head) = (db.stats().resident_bytes, db.census().head_bytes);
    assert_eq!(append(2 * CHUNK_SIZE as u64 - 1), (1, 0));
    // The ledger swapped the open head (fourteen bursts as a block, seven
    // samples in the tail) for the finished block.
    assert_eq!(db.census().head_bytes, 0);
    let second = db.stats().resident_bytes - (before - head);
    let packed = (16 + 1 + 2 * 25 + first + second).next_multiple_of(8);
    assert_eq!(
        last_alloc_size(),
        packed as usize,
        "the seal's allocation is the block of both chunks ({first} + {second} B of payload)"
    );
    let snapshot = &db.select(&Selector::metric("m"))[0];
    assert_eq!((snapshot.chunk_count(), snapshot.len()), (2, 2 * CHUNK_SIZE));

    // With that snapshot holding the list, the third seal builds the list
    // again around the new block: copy-on-write, never a change in place.
    for t in 2 * CHUNK_SIZE as u64..3 * CHUNK_SIZE as u64 - 1 {
        assert_eq!(append(t), (0, 0), "append {t} of a warm head");
    }
    assert_eq!(append(3 * CHUNK_SIZE as u64 - 1), (2, 0));
    assert_eq!((snapshot.chunk_count(), snapshot.len()), (2, 2 * CHUNK_SIZE));
}

#[test]
fn sealing_a_thousand_chunks_takes_one_allocation_each() {
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
    assert_eq!((after.0 - before.0, after.1 - before.1), (SERIES as u64, 0));

    // Under a reader's snapshots every seal also builds its list again.
    let snapshots = db.select(&Selector::metric("steady"));
    for r in 2 * CHUNK_SIZE as u64 + 1..3 * CHUNK_SIZE as u64 {
        round(&db, &handles, &mut batch, r);
    }
    let before = events();
    round(&db, &handles, &mut batch, 3 * CHUNK_SIZE as u64);
    let after = events();
    assert_eq!((after.0 - before.0, after.1 - before.1), (2 * SERIES as u64, 0));
    assert!(snapshots.iter().all(|s| s.chunk_count() == 2 && s.len() == 2 * CHUNK_SIZE));
}

#[test]
fn a_sealed_chunk_costs_at_most_forty_bytes_beside_its_payload() {
    // `pull_rounds_1k`'s end state in chunks: 44 sealed a series.  Counted
    // from the first seal on, so every head holds its kept buffer at both
    // ends of the count and is empty there.
    const SERIES: usize = 100;
    const CHUNKS: u64 = 44;
    let db = db();
    let handles = resolve(&db, "steady", SERIES);
    let mut batch = Vec::with_capacity(SERIES);
    for r in 1..=CHUNK_SIZE as u64 {
        round(&db, &handles, &mut batch, r);
    }
    let (before, resident_before) = (live(), db.stats().resident_bytes);
    for r in CHUNK_SIZE as u64 + 1..=CHUNKS * CHUNK_SIZE as u64 {
        round(&db, &handles, &mut batch, r);
    }
    let stats = db.stats();
    assert_eq!((stats.chunks, db.census().head_bytes), (SERIES as u64 * CHUNKS, 0));
    let sealed = SERIES as u64 * (CHUNKS - 1);
    let beside = (live() - before) - (stats.resident_bytes - resident_before) as i64;
    let per_chunk = beside as f64 / sealed as f64;
    assert!(per_chunk > 25.0, "{per_chunk:.1} B a chunk: less than its footer?");
    assert!(per_chunk <= PER_CHUNK as f64, "{per_chunk:.1} B a sealed chunk beside its payload");
}

#[test]
fn a_float_valued_store_weighs_what_it_did_before_blocks_had_kinds() {
    // Values with a fraction take the XOR road, the only one there was at
    // commit fd16bc7: a store of them must cost no more than that commit's
    // did, (228 429, 22 052) bytes of ledger (measured there, with this
    // test), and costs exactly this since blocks leave their first timestamp
    // to the footer and take their first delta through a ladder.
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
    let weighs = (db.stats().resident_bytes, db.census().head_bytes);
    assert!(weighs.0 <= 228_429 && weighs.1 <= 22_052, "{weighs:?}");
    assert_eq!(weighs, (216_732, 19_123));
}

#[test]
fn a_whole_number_store_weighs_what_its_blocks_say() {
    // The twin of the float-valued store: the same series, rounds and value
    // walk less the fraction, so every block is an integer one.
    const SERIES: usize = 200;
    const ROUNDS: u64 = 400;
    let db = db();
    let handles = resolve(&db, "whole", SERIES);
    let mut batch = Vec::with_capacity(SERIES);
    for r in 1..=ROUNDS {
        batch.clear();
        for (i, &handle) in handles.iter().enumerate() {
            let value = ((i as u64 * 31 + r * 17) % 1_009) as f64;
            batch.push((handle, r * TICK_MS, value));
        }
        assert_eq!(db.append_batch(&batch).appended, SERIES as u64);
    }
    // (46 081, 7 699) while blocks opened with their first sample raw.
    assert_eq!((db.stats().resident_bytes, db.census().head_bytes), (29_855, 3_637));
}

// ---------------------------------------------------------------------------
// Counting from before `resolve`: what a series costs, all of it
// ---------------------------------------------------------------------------

/// One series key of a benchmark-shaped set.
type Key = (String, Labels);

fn key(name: String, pairs: &[(&str, String)]) -> Key {
    (name, Labels::from_pairs(pairs.iter().map(|(k, v)| (*k, v.as_str()))))
}

/// `mixed_churn`'s series: six labels — the lane's `job` and an `instance`
/// that changes with every reconnect, `node`, `client`, an `idx` a handful of
/// renamed series share and a `pod` no two do.
fn churn_keys(count: usize) -> Vec<Key> {
    (0..count)
        .map(|i| {
            key(
                format!("churn_m{}", i % 8),
                &[
                    ("job", "remote_write".into()),
                    ("instance", format!("127.0.0.1:{}", 40_000 + i / 250)),
                    ("node", format!("node-{}", i % 64)),
                    ("client", format!("{}", i % 2)),
                    ("idx", format!("{}", 500_000 + i % 1_000)),
                    ("pod", format!("p-{:08x}", (i as u32).wrapping_mul(0x9e37_79b1))),
                ],
            )
        })
        .collect()
}

/// `push_steady`'s series: five labels, two writers' worth of one set each.
fn push_keys(count: usize) -> Vec<Key> {
    (0..count)
        .map(|i| {
            key(
                format!("push_m{}", i % 8),
                &[
                    ("job", "remote_write".into()),
                    ("instance", format!("127.0.0.1:{}", 40_000 + i / 1_000)),
                    ("node", format!("node-{}", i % 64)),
                    ("client", format!("{}", i / 1_000)),
                    ("idx", format!("{}", 300_000 + i % 1_000)),
                ],
            )
        })
        .collect()
}

/// `pull_rounds_1k`'s series: four targets of 250 and their four meta-series.
fn pull_keys() -> Vec<Key> {
    let target = |t: usize| format!("node-{t}:9100");
    let scraped = (0..1_000).map(|i| {
        key(
            format!("pull_m{}", i % 8),
            &[
                ("job", "sgx_exporter".into()),
                ("instance", target(i / 250)),
                ("node", format!("node-{}", i % 64)),
                ("idx", format!("{}", i % 250)),
            ],
        )
    });
    let meta = ["up", "scrape_duration_seconds", "scrape_samples_scraped", "scrape_samples_added"];
    let meta = (0..16).map(|i| {
        key(meta[i % 4].into(), &[("job", "sgx_exporter".into()), ("instance", target(i / 4))])
    });
    scraped.chain(meta).collect()
}

/// What the symbol table's model leaves out, a symbol: `symbol_bytes` counts
/// the string and 64 bytes; the heap holds the string in a 16-byte `Arc`
/// block rounded up to eight, a 24-byte slot and a 4-byte dirty mark in
/// vectors with up to as much again spare, and a 25-byte map entry at a load
/// between 7/16 and 7/8.
const PER_SYMBOL_EXTRA: u64 = 80;
/// What a postings entry holds: a `u32`, in a list of several with up to as
/// much again spare (a list of one holds nothing outside its map slot).
const PER_POSTINGS_ENTRY: u64 = 8;
/// What a postings list holds: a 33-byte map slot — key, list, control byte —
/// at a load between 7/16 and 7/8.
const PER_POSTINGS_LIST: u64 = 80;
/// The store itself — sixteen empty shards, the symbol table — and the maps'
/// 16-byte trailing control groups.
const PER_STORE: u64 = 8 * 1024;

/// What the gauges, with the constants above, allow the heap to hold for
/// `keys`: samples, series records, symbols and postings, plus `head_slack`
/// bytes of block buffer not in use.
fn accounted(stats: &StorageStats, keys: &[Key], head_slack: u64) -> i64 {
    let entries: u64 = keys.iter().map(|(_, labels)| 1 + labels.len() as u64).sum();
    // The model is 16 bytes an entry and 48 a list: that is how many lists.
    let lists = (stats.index_bytes - 16 * entries) / 48;
    (stats.resident_bytes
        + stats.series_bytes
        + stats.symbol_bytes
        + stats.symbols * PER_SYMBOL_EXTRA
        + entries * PER_POSTINGS_ENTRY
        + lists * PER_POSTINGS_LIST
        + PER_STORE
        + head_slack) as i64
}

fn resolve_keys(db: &TimeSeriesDb, keys: &[Key]) -> Vec<SeriesHandle> {
    keys.iter().map(|(name, labels)| db.resolve(name, labels)).collect()
}

/// Live bytes a series, rounded down, after asserting `held` within what the
/// gauges account for.
fn per_series(tag: &str, held: i64, bound: i64, stats: &StorageStats, keys: &[Key]) -> i64 {
    assert!(held <= bound, "{tag}: {held} B live, {bound} B accounted for ({stats:?})");
    assert!(
        held >= (stats.resident_bytes + stats.series_bytes) as i64,
        "{tag}: {held} B live is less than the gauges hold ({stats:?})"
    );
    held / keys.len() as i64
}

#[test]
fn a_churned_series_costs_what_it_is_worth_from_before_it_is_resolved() {
    // `mixed_churn`'s shape: 10 000 series that die young, 1 to 40 samples
    // in.  At commit 108212d, with this test: 1 147 B a series with heads
    // live, 1 220 once stale (a seal added a chunk and gave nothing back);
    // here 707 and 557.
    const SERIES: usize = 10_000;
    let keys = churn_keys(SERIES);
    let before = live();
    let db = db();
    let handles = resolve_keys(&db, &keys);
    for (i, &handle) in handles.iter().enumerate() {
        for t in 0..1 + (i as u64 * 7) % 40 {
            db.append_batch(&[(handle, t * TICK_MS, (t * 3) as f64)]);
        }
    }
    drop(handles);
    let stats = db.stats();
    // A head's buffer is at most twice the block in it, 32 bytes at least.
    let head_slack = db.census().head_bytes + 32 * SERIES as u64;
    let held = per_series(
        "heads live",
        live() - before,
        accounted(&stats, &keys, head_slack),
        &stats,
        &keys,
    );
    assert!(held <= 750, "{held} B a churned series, heads live");

    // Five idle minutes later a retention pass seals the heads and drops
    // them: a series that stopped reporting costs its symbols, its postings,
    // a record, and one exact block behind a one-slot list.
    let tickers = resolve(&db, "ticker", 256);
    tick(&db, &tickers, 40 * TICK_MS + STALE_HEAD_MS + 1);
    assert_eq!(db.apply_retention(), 0);
    drop(tickers);
    let (stats, held) = (db.stats(), live() - before);
    assert_eq!(db.census().head_bytes, 256 * 16, "the tickers' one sample each");
    let all: Vec<Key> = keys.iter().cloned().chain(ticker_keys(256)).collect();
    let held = per_series("stale", held, accounted(&stats, &all, 256 * 32), &stats, &all);
    assert!(held <= 600, "{held} B a churned series, stale");
}

fn ticker_keys(count: usize) -> Vec<Key> {
    (0..count).map(|i| key("ticker".into(), &[("idx", format!("{i}"))])).collect()
}

#[test]
fn steady_shapes_are_accounted_for_from_before_they_are_resolved() {
    // `push_steady`'s shape, 2 000 series of 200 samples — 1 137 B a series
    // at commit 108212d, 761 here — and `pull_rounds_1k`'s, 1 016 of 2 000,
    // seventeen chunks each — 3 096 B, 1 941 here.
    for (tag, keys, rounds, ceiling) in
        [("push", push_keys(2_000), 200u64, 920), ("pull", pull_keys(), 2_000, 2_000)]
    {
        let before = live();
        let db = db();
        let handles = resolve_keys(&db, &keys);
        let mut batch = Vec::with_capacity(handles.len());
        for r in 1..=rounds {
            round(&db, &handles, &mut batch, r);
        }
        drop((handles, batch));
        let stats = db.stats();
        // Past its first seal a head keeps a buffer of 64 bytes.
        let bound = accounted(&stats, &keys, keys.len() as u64 * KEPT_BUFFER);
        let held = per_series(tag, live() - before, bound, &stats, &keys);
        assert!(held <= ceiling, "{tag}: {held} B a series");
    }
}

/// Heap bytes of a `std` hash table that `entries` were inserted into one by
/// one, at `slot` bytes an entry: the smallest power-of-two bucket array
/// (four at least) that holds them at a load of 7/8, a control byte a bucket
/// and a trailing group of sixteen.
fn table_bytes(entries: usize, slot: usize) -> i64 {
    if entries == 0 {
        return 0;
    }
    let mut buckets = 4usize;
    while (if buckets < 8 { buckets - 1 } else { buckets / 8 * 7 }) < entries {
        buckets *= 2;
    }
    (buckets * (slot + 1) + 16) as i64
}

/// Builds `keys`, drops every series and builds them again: what the second
/// build allocates is the series records and the postings and nothing else —
/// the symbols are interned still, and a drop of everything leaves the shards
/// holding nothing.  Returns that and the store.
fn records_and_postings(keys: &[Key]) -> (i64, TimeSeriesDb) {
    let db = db();
    resolve_keys(&db, keys);
    assert_eq!(db.drop_series(&Selector::all()), keys.len());
    assert_eq!(db.stats().series_bytes, 0, "an emptied store holds no series record");
    let before = live();
    resolve_keys(&db, keys);
    (live() - before, db)
}

#[test]
fn series_bytes_is_what_the_allocator_attributes_to_the_records() {
    // Without labels a series has no postings but its name's: one list of one
    // in each shard's `names` map, whose size the shard's series count gives.
    let bare: Vec<Key> = (0..10_000).map(|i| key(format!("bare_{i}"), &[])).collect();
    let (held, db) = records_and_postings(&bare);
    let names: i64 = db.census().shard_series.iter().map(|&n| table_bytes(n, 4 + 4 + 24)).sum();
    let (records, gauge) = (held - names, db.stats().series_bytes as i64);
    assert!((records - gauge).abs() * 10 <= records, "{gauge} B gauged, {records} B held");

    // With labels the rest is postings: within the stated constants.
    for keys in [churn_keys(10_000), push_keys(2_000), pull_keys()] {
        let (held, db) = records_and_postings(&keys);
        let stats = db.stats();
        let postings = held - stats.series_bytes as i64;
        let entries: u64 = keys.iter().map(|(_, labels)| 1 + labels.len() as u64).sum();
        let lists = (stats.index_bytes - 16 * entries) / 48;
        let allowed = (entries * PER_POSTINGS_ENTRY + lists * PER_POSTINGS_LIST) as i64;
        assert!(
            (0..=allowed).contains(&postings),
            "{postings} B of postings for {entries} entries in {lists} lists ({stats:?})"
        );
    }
}

#[test]
fn a_cardinality_spike_is_given_back() {
    // 500 series report for 25 minutes under a ten-minute retention; in one
    // store 50 000 more come and go in the second minute.  Once retention has
    // evicted them, that store may hold half as much again as the other: the
    // spike's strings stay interned (a volatile store never sweeps), its
    // arrays, key indexes and postings do not.
    const STEADY: usize = 500;
    const SPIKE: usize = 50_000;
    const ROUNDS: u64 = 300;
    let run = |spike: bool| {
        let before = live();
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: CHUNK_SIZE,
            retention_ms: 10 * 60 * 1000,
        });
        let keys = push_keys(STEADY);
        let mut handles = resolve_keys(&db, &keys);
        let mut batch = Vec::with_capacity(STEADY);
        for r in 1..=ROUNDS {
            round(&db, &handles, &mut batch, r);
            if spike && r == 12 {
                for i in 0..SPIKE {
                    let labels = [("a", format!("{}", i % 224)), ("b", format!("{}", i / 224))];
                    let (name, labels) = key("spike".into(), &labels);
                    assert!(db.append(&name, &labels, r * TICK_MS, i as f64));
                }
                assert_eq!(db.stats().series, (STEADY + SPIKE) as u64);
            }
            if r % 20 == 0 {
                db.apply_retention();
                // An eviction made every handle into its shard stale.
                handles = resolve_keys(&db, &keys);
            }
        }
        drop((keys, handles, batch));
        assert_eq!(db.stats().series, STEADY as u64, "the spike aged out");
        (live() - before, db)
    };
    let (quiet, _quiet_db) = run(false);
    let (spiked, spiked_db) = run(true);
    assert!(
        spiked * 2 <= quiet * 3,
        "{spiked} B live after a spike, {quiet} B without one ({:?})",
        spiked_db.stats()
    );
}
