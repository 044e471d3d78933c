//! The storage engine: interned series keys, an inverted label index, sharded
//! locks and zero-copy reads.
//!
//! Layout:
//!
//! * one shared symbol table interns every metric name, label key and label
//!   value once, and is the only place a stored key's strings live,
//! * series are spread over [`SHARD_COUNT`] lock shards by series-key hash,
//!   so concurrent scrapers append without serialising on one lock,
//! * a shard is an array of series records, a key index from key hash to
//!   array slot (one slot a key; keys whose hashes collide overflow into a
//!   list that is empty in practice), a postings index (name and
//!   `(label, value)` → series) and cheap aggregates (sample/chunk/rejection
//!   counts, min/max timestamp), so selection and [`TimeSeriesDb::stats`]
//!   never scan series,
//! * a series record holds each thing once and only while it is needed (72
//!   bytes; see `MemSeries`): the key as symbols and the hash it is filed
//!   under, one pointer to its frozen list of sealed blocks, and one to the
//!   open head, which
//!   exists only while the series is being written.  What the record and its
//!   blocks weigh is [`StorageStats::series_bytes`], counted at the arrays'
//!   capacities — and a removal that leaves an array under a quarter full
//!   shrinks it and its key index, so a cardinality spike is given back,
//! * the append hot path resolves an existing series by hashing the borrowed
//!   `(&str, &Labels)` key directly and comparing it with the interned
//!   strings under the symbol table's read lock — no `String` or `Labels`
//!   clone, no allocation at all,
//! * reads hand out [`SeriesSnapshot`]s: the key's strings are materialised
//!   from the symbol table once per *selected* series (a packed copy of
//!   the label strings and a reference on the name; the snapshot owns them
//!   from then on), the list of sealed blocks is shared whole by one `Arc`,
//!   only the open head chunk is copied — as the block it is, completed
//!   with its tail, in one allocation of exactly its size,
//! * chunks are Gorilla-compressed ([`crate::chunk_codec`]), the open head
//!   included: a head is the delta-of-delta / XOR-float block it will seal,
//!   built in bursts by a resumable encoder, behind a tail of its newest
//!   eight samples (see `crate::head::Head`).  An append is an ordering
//!   check against the record and a sixteen-byte store into that tail; the
//!   append that fills it encodes the burst; a seal encodes what the tail
//!   still holds and copies the block out.  The per-shard `bytes` aggregate
//!   tracks the resident footprint, surfaced as
//!   [`StorageStats::resident_bytes`] / `StorageStats::bytes_per_sample`,
//!   and `head_bytes` the open heads' share of it
//!   ([`StorageCensus::head_bytes`]),
//! * the heap holds what that ledger counts: a head has no buffer until its
//!   first burst, and the buffer doubles 32 → 64 → … bytes with the block in
//!   it; a seal copies the block into the series' last packed block of
//!   sealed chunks (`crate::series::Sealed`: up to sixteen chunks' 25-byte
//!   footers and payloads in one exact-sized allocation, built again by
//!   every seal that lands in it) and keeps the buffer for the next chunk;
//!   and a retention pass seals the head of any series that has gone
//!   [`STALE_HEAD_MS`] without a sample and drops it, record and buffer, so
//!   a churned series costs a one-chunk block behind a one-slot list and
//!   nothing more,
//! * the **ingest fast lane**: [`TimeSeriesDb::resolve`] turns a series key
//!   into a cheap [`SeriesHandle`] once, and
//!   [`TimeSeriesDb::append_batch`] appends a whole scrape round of
//!   `(handle, timestamp, value)` samples taking each shard lock **once per
//!   block** of [`BATCH_BLOCK`] samples instead of once per sample.  Handles
//!   carry the owning shard's generation: series eviction
//!   ([`TimeSeriesDb::apply_retention`] dropping fully-aged series,
//!   [`TimeSeriesDb::drop_series`]) bumps the generation, so a stale handle
//!   is reported back for re-resolution instead of ever writing to the
//!   wrong series.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, RwLock};
use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_obs::{probes, Stopwatch};

use crate::head::{Head, TAIL_SAMPLES};
use crate::index::{Postings, SelectorPlan};
use crate::query::Selector;
use crate::series::{Sample, Sealed, SeriesId, SAMPLE_BYTES};
use crate::snapshot::SeriesSnapshot;
use crate::symbols::{SymbolId, SymbolTable, REPLAY_HOLE_MARKER};
use crate::wal::{self, DurabilityOptions, Wal};

/// Number of lock shards.  A power of two so the shard of a key hash is a
/// mask, sized for "more shards than scraper threads" on typical hosts.
pub const SHARD_COUNT: usize = 16;

/// Samples [`TimeSeriesDb::append_batch`] sorts by shard at a time: its
/// positions fit a `u16`, and the sort's scratch is a stack array of this
/// many of them (8 KiB), so a batch of any size is appended without
/// allocating.  A scrape round of one target fits one block.
pub const BATCH_BLOCK: usize = 4096;

// The per-shard telemetry slots in `teemon_obs` are sized statically (obs
// sits *below* this crate in the dependency graph, so it cannot read
// `SHARD_COUNT` itself); fail the build if the two ever drift.
const _: () =
    assert!(probes::SHARDS == SHARD_COUNT, "teemon_obs::SHARDS must equal the storage shard count");

/// How far a series' newest sample may trail its shard's before a retention
/// pass seals its head and releases the buffer: the instant-selector
/// lookback (`teemon_query::QueryEngine::DEFAULT_LOOKBACK_MS` is this
/// constant), i.e. a series the query engine already treats as gone.
pub const STALE_HEAD_MS: u64 = 5 * 60 * 1000;

/// Static configuration of the database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsdbConfig {
    /// Samples per chunk.
    pub chunk_size: usize,
    /// Retention window in milliseconds; samples older than
    /// `newest - retention_ms` may be dropped by [`TimeSeriesDb::apply_retention`].
    pub retention_ms: u64,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self { chunk_size: 120, retention_ms: 24 * 60 * 60 * 1000 }
    }
}

/// Storage statistics (what the aggregator's own `/metrics` would expose).
/// Served from per-shard aggregates; never scans series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageStats {
    /// Number of distinct series.
    pub series: u64,
    /// Total stored samples.
    pub samples: u64,
    /// Total chunks.
    pub chunks: u64,
    /// Samples rejected because they were out of order.
    pub rejected_samples: u64,
    /// Bytes resident in sample storage: the payload of sealed chunks (each
    /// one allocation of exactly that size) plus, per open head, the bytes
    /// in use of the block it is building and 16 bytes per sample of its
    /// inline tail (a head's buffer is at most twice what it holds, 32 bytes
    /// at least, and nothing once the series has gone stale).  Kept per
    /// shard — by appends and seals incrementally, recounted by retention,
    /// drops and recovery —, so reading it never scans storage.
    pub resident_bytes: u64,
    /// Shards whose write-ahead log has failed (write/fsync errors, or
    /// unrecoverable corruption found at startup).  Always `0` for a
    /// volatile database; `16` once the log itself is broken.
    /// Failed shards keep serving from memory but no longer persist.
    #[serde(default)]
    pub wal_failed_shards: u64,
    /// Number of live interned symbols (names, label keys, label values).
    #[serde(default)]
    pub symbols: u64,
    /// Estimated bytes held by the symbol table, maintained incrementally
    /// like `resident_bytes` (string lengths plus per-slot overhead).
    #[serde(default)]
    pub symbol_bytes: u64,
    /// Estimated bytes held by the per-shard postings indexes — two maps a
    /// shard, metric name → series and `(label, value)` → series, at a
    /// modelled 16 bytes an entry and 48 a list — maintained incrementally
    /// on register/rebuild.
    #[serde(default)]
    pub index_bytes: u64,
    /// Bytes held by the series records, which none of the figures above
    /// count: the per-shard series arrays and key indexes at their
    /// *capacity*, and per series its label symbols, its head record while
    /// it has one, and what its sealed chunks hold beside their payloads —
    /// the list of blocks, and per block its reference counts and count
    /// byte and a 25-byte footer a chunk.  (A head's inline tail is in both
    /// this and `resident_bytes`, 16 bytes a sample it holds; its block
    /// buffer is in neither beyond the bytes in use.)  Capacities are
    /// history, not state: two stores holding the same series may differ
    /// here, a store and its recovered self included.  Maintained
    /// incrementally; not part of [`StorageStats::total_bytes`] yet.
    #[serde(default)]
    pub series_bytes: u64,
}

impl StorageStats {
    /// Average resident bytes per stored sample (`0.0` when empty) — the
    /// headline compression number; raw samples cost 16 bytes each.
    pub(crate) fn bytes_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.samples as f64
        }
    }

    /// Sample storage + symbol table + postings indexes, the last two as
    /// models (string lengths plus 64 bytes a symbol; 16 bytes a postings
    /// entry, 48 a list).  **Not the heap**: it leaves out every series
    /// record ([`StorageStats::series_bytes`]) and what the models miss, and
    /// a live-bytes allocator reads about three times this figure on
    /// high-cardinality stores (`tests/heap_ledger.rs`: 1 150 B a series
    /// against 307–363 before the records shrank).  It is what the
    /// end-to-end benchmark's `mem_bytes_per_sample` is defined on, so it is
    /// computed as it always was; the cardinality soak asserts its plateau
    /// on this plus `series_bytes`.
    pub fn total_bytes(&self) -> u64 {
        self.resident_bytes + self.symbol_bytes + self.index_bytes
    }
}

/// One pass over the shards ([`TimeSeriesDb::census`]): the store's
/// [`StorageStats`] and the per-shard figures read alongside them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageCensus {
    /// The store's statistics, as [`TimeSeriesDb::stats`] returns them.
    pub stats: StorageStats,
    /// The open heads' share of [`StorageStats::resident_bytes`]: per head,
    /// the bytes in use of the block it is building plus 16 per sample of
    /// its tail.
    pub head_bytes: u64,
    /// Series per lock shard — how evenly the series-key hash spreads
    /// ingest load.
    pub shard_series: [usize; SHARD_COUNT],
    /// Each shard's generation (see [`SeriesHandle`]).
    pub shard_generations: [u64; SHARD_COUNT],
}

/// A resolved reference to one stored series: the owning lock shard, the
/// shard-local series slot, and the shard generation the resolution happened
/// under.  Handles are the currency of the ingest fast lane
/// ([`TimeSeriesDb::resolve`] / [`TimeSeriesDb::append_batch`]): a scrape
/// cache resolves each series once and then appends by handle, skipping key
/// hashing, symbol interning and index lookups on every later round.
///
/// Handles are plain `Copy` values and never dangle: any operation that can
/// move or drop series within a shard (retention evicting fully-aged series,
/// [`TimeSeriesDb::drop_series`]) bumps that shard's generation, after which
/// every previously issued handle into the shard is *stale*.  Stale handles
/// are reported back (never silently redirected) in [`BatchOutcome::stale`],
/// and the holder appends that sample by key and re-resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesHandle {
    shard: u16,
    local: u32,
    generation: u64,
}

impl SeriesHandle {
    /// A handle that is never live: the scrape cache stores it in
    /// over-budget entries, which intentionally have no backing series.
    /// [`TimeSeriesDb::handle_live_under`] always reports it stale, and the
    /// cache never lets it reach an append.
    pub(crate) fn unresolved() -> Self {
        Self { shard: u16::MAX, local: u32::MAX, generation: u64::MAX }
    }
}

/// Result of one [`TimeSeriesDb::append_batch`] round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Samples stored.
    pub appended: u64,
    /// Samples rejected as out of order.
    pub rejected: u64,
    /// Indices into the input batch whose handles were stale; nothing was
    /// written for them.  Empty on a steady-state round — and an empty `Vec`
    /// does not allocate, keeping the batch path allocation-free.
    pub stale: Vec<usize>,
}

/// One stored series — one element of a shard's series array, so every
/// field is there because something reads it without a key:
///
/// * `id`: creation order, what results are sorted by;
/// * `key_hash`: the hash the series is filed under in the key index, kept
///   so a rebuild after a removal rehashes nothing and a colliding key is
///   told apart without a string compare;
/// * `name_sym` / `label_syms`: the key, once, as symbols — what the
///   postings register, what the WAL logs, what `exists` / `!=` matchers
///   check.  The strings live in the symbol table only; a borrowed key is
///   compared against them there ([`MemSeries::key_matches`]) and a reader
///   gets its own copy at selection ([`MemSeries::snapshot`]);
/// * `sealed`: the sealed chunks, packed into immutable blocks in one
///   frozen list, shared whole with snapshots (see [`Sealed`]);
/// * `head`: the open chunk, behind one pointer and only while the series is
///   being written — allocated with the series, dropped with its buffer by
///   the stale-head rule and by retention, allocated again by the append
///   that revives the series (see `crate::head`);
/// * `last_ts`, `tail_len`, `room`: the three facts an append decides on,
///   kept beside the pointer so the common append *writes* through it and
///   reads nothing behind it (a load that misses stalls the append loop, a
///   store does not: with the head behind a pointer and no such summary,
///   appending to 20 000 series read 75 ns a sample against 50).  Every cold
///   path that changes the head ends in [`MemSeries::sync_head`].
struct MemSeries {
    id: SeriesId,
    key_hash: u64,
    label_syms: Box<[(SymbolId, SymbolId)]>,
    sealed: Sealed,
    head: Option<Box<Head>>,
    /// [`MemSeries::last_timestamp`], `0` for none (nothing is older than
    /// that).
    last_ts: u64,
    name_sym: SymbolId,
    /// Samples in the head's tail.
    tail_len: u8,
    /// How many more appends may be a bare store into the tail: none into
    /// an empty or absent head (opening a chunk is the cold path's), else
    /// what leaves the tail short of full and the head short of a chunk.
    room: u8,
    /// `true` once any sample was stored.  Guards retention eviction: a
    /// freshly resolved series that has not seen its first append yet is
    /// *new*, not *fully aged* — evicting it would pointlessly invalidate
    /// every handle in the shard.
    ever_appended: bool,
}

impl MemSeries {
    /// A series with no samples.  Its head is allocated here, not by its
    /// first append: a series is created to be written.
    fn new(
        id: SeriesId,
        key_hash: u64,
        name_sym: SymbolId,
        label_syms: Vec<(SymbolId, SymbolId)>,
    ) -> Self {
        Self {
            id,
            key_hash,
            label_syms: label_syms.into_boxed_slice(),
            sealed: Sealed::default(),
            head: Some(Box::default()),
            last_ts: 0,
            name_sym,
            tail_len: 0,
            room: 0,
            ever_appended: false,
        }
    }

    /// Brings `last_ts`, `tail_len` and `room` up to date with the head and
    /// the sealed chunks.
    fn sync_head(&mut self, chunk_size: usize) {
        self.last_ts = self.last_timestamp().unwrap_or(0);
        (self.tail_len, self.room) = match self.open_head() {
            Some(head) => {
                let tail_len = head.tail().len();
                let room = (TAIL_SAMPLES - 1)
                    .saturating_sub(tail_len)
                    .min(chunk_size.saturating_sub(head.len() + 1));
                (tail_len as u8, room as u8)
            }
            None => (0, 0),
        };
    }

    /// Gives the head back, record and block buffer.
    fn drop_head(&mut self) {
        self.head = None;
        (self.tail_len, self.room) = (0, 0);
    }

    /// The open head, if the series has one and it holds samples.
    fn open_head(&self) -> Option<&Head> {
        self.head.as_deref().filter(|head| !head.is_empty())
    }

    fn last_timestamp(&self) -> Option<u64> {
        self.head
            .as_deref()
            .and_then(Head::last_timestamp)
            .or_else(|| self.sealed.last().and_then(|c| c.end()))
    }

    fn first_timestamp(&self) -> Option<u64> {
        self.sealed
            .first()
            .and_then(|c| c.start())
            .or_else(|| self.head.as_deref().and_then(Head::first_timestamp))
    }

    /// What the ledger counts for the head ([`Head::resident_bytes`]), zero
    /// without one.
    fn head_resident_bytes(&self) -> u64 {
        self.head.as_deref().map_or(0, |head| head.resident_bytes() as u64)
    }

    /// The heap blocks this record owns beside its chunks' payloads and its
    /// head's block buffer (both in the resident ledger): the label symbols,
    /// the head, and the sealed list and blocks' overhead
    /// ([`Sealed::overhead_bytes`]) — this series' share of
    /// [`StorageStats::series_bytes`].
    fn boxes_bytes(&self) -> u64 {
        (size_of_val(&*self.label_syms)
            + self.head.as_ref().map_or(0, |_| size_of::<Head>())
            + self.sealed.overhead_bytes()) as u64
    }

    /// Seals the non-empty head into the series' last block — one
    /// allocation, the block built again with the chunk in it, and one more
    /// for the list when a snapshot shares it or the chunk opens a block;
    /// at most a tail of encoding — and returns the payload's size and what
    /// the seal added to [`MemSeries::boxes_bytes`] (`(0, 0)` without a
    /// head).
    fn seal_head(&mut self) -> (usize, usize) {
        let Some(head) = self.head.as_deref_mut() else { return (0, 0) };
        // Sealing is the one allocating step in a chunk's lifetime; the
        // lock audit's no-alloc check is suspended for it explicitly.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        let sealed = &mut self.sealed;
        head.seal(|chunk| (chunk.data_bytes(), sealed.push(chunk)))
    }

    /// The stale-head rule of [`ShardInner::retention_pass`]: a series whose
    /// newest sample is older than `stale_before` gives its head back — the
    /// record and its block buffer — sealing what the head holds first.
    /// Returns whether it sealed a chunk.
    fn seal_if_stale(&mut self, stale_before: u64) -> bool {
        let Some(head) = self.head.as_deref() else { return false };
        let holds_samples = !head.is_empty();
        if self.last_timestamp().is_none_or(|last| last >= stale_before) {
            return false;
        }
        if holds_samples {
            self.seal_head();
        }
        self.drop_head();
        holds_samples
    }

    /// The labels, materialised from `symbols` as a packed copy of their
    /// strings.  (A live series holds a reference on each of its symbols, so
    /// they resolve; an unbound one would read as the empty string.)
    fn labels(&self, symbols: &SymbolTable) -> Labels {
        let str_of = |sym| symbols.resolve(sym).map_or("", |s| &**s);
        Labels::from_str_pairs(self.label_syms.iter().map(|&(k, v)| (str_of(k), str_of(v))))
    }

    /// A reader's view of the series: the sealed list shared, the head
    /// copied and the key's strings materialised from `symbols` — a
    /// reference on the name, a copy of the labels — so it keeps them
    /// whatever happens to the series and its symbols afterwards.
    fn snapshot(&self, symbols: &SymbolTable) -> SeriesSnapshot {
        let head = self.head.as_deref().and_then(Head::snapshot);
        let name = symbols.resolve(self.name_sym).map_or_else(|| Arc::from(""), Arc::clone);
        SeriesSnapshot::new(self.id, name, self.labels(symbols), self.sealed.clone(), head)
    }

    /// Drops whole chunks (and the head, record and buffer) whose newest
    /// sample is older than `cutoff_ms` ([`Sealed::drop_before`]).
    fn drop_before(&mut self, cutoff_ms: u64) {
        self.sealed.drop_before(cutoff_ms);
        let aged = |head: &Head| head.last_timestamp().is_some_and(|t| t < cutoff_ms);
        if self.sealed.is_empty() && self.open_head().is_some_and(aged) {
            self.drop_head();
        }
    }

    /// `true` when the series once held data and retention has since drained
    /// every chunk — the eviction criterion.  A freshly resolved series that
    /// is still waiting for its first append is empty but NOT drained.
    fn is_drained(&self) -> bool {
        self.ever_appended && self.sealed.is_empty() && self.open_head().is_none()
    }

    /// Stored samples (sealed + head).
    fn sample_count(&self) -> u64 {
        self.sealed.sample_count() + self.open_head().map_or(0, |head| head.len() as u64)
    }

    /// Held chunks (sealed + the head when non-empty).
    fn chunk_total(&self) -> u64 {
        self.sealed.chunk_count() as u64 + u64::from(self.open_head().is_some())
    }

    /// Resident payload bytes: sealed chunk payloads + the head's (see
    /// [`Head::resident_bytes`]).
    fn resident_bytes(&self) -> u64 {
        self.sealed.payload_bytes() + self.head_resident_bytes()
    }

    /// The value symbol of label `key`, if the series carries that label.
    fn label_value_sym(&self, key: SymbolId) -> Option<SymbolId> {
        self.label_syms.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Releases the symbol references this series' key holds (name + every
    /// label pair).  Called when the series is removed (drop or retention
    /// eviction); the symbols become sweepable once nothing else references
    /// them and the GC cooling window has passed.
    fn release_symbols(&self, table: &mut SymbolTable) {
        table.release(self.name_sym);
        for &(k, v) in self.label_syms.iter() {
            table.release(k);
            table.release(v);
        }
    }

    /// `true` when the borrowed key equals this series' interned key, read
    /// through `symbols`.
    fn key_matches(&self, name: &str, labels: &Labels, symbols: &SymbolTable) -> bool {
        let is = |sym, s: &str| symbols.resolve(sym).is_some_and(|interned| &**interned == s);
        is(self.name_sym, name)
            && self.label_syms.len() == labels.len()
            && self
                .label_syms
                .iter()
                .zip(labels.iter())
                .all(|(&(sk, sv), (k, v))| is(sk, k) && is(sv, v))
    }
}

/// Near-pass-through hasher for the key index: its keys are already uniform
/// 64-bit series-key hashes, so re-hashing them through SipHash on every
/// append would be wasted hot-path work.  A single Fibonacci multiply still
/// redistributes the bits, because every key in one shard shares its low
/// bits (the shard selector) and `HashMap` derives bucket indices from them.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    #[expect(
        clippy::unreachable,
        reason = "invariant — this hasher is only built for u64-keyed maps"
    )]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("key index only hashes u64 keys");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Heap bytes of a `std` hash table that reports `capacity`, at `slot` bytes
/// an entry: a power-of-two bucket array filled to 7/8 at most, one control
/// byte a bucket and a trailing group of them.
fn hash_table_bytes(capacity: usize, slot: usize) -> usize {
    match capacity {
        0 => 0,
        1..=7 => (capacity + 1) * (slot + 1) + 16,
        _ => capacity / 7 * 8 * (slot + 1) + 16,
    }
}

#[derive(Default)]
struct ShardInner {
    series: Vec<MemSeries>,
    /// Series-key hash → the first (lowest) shard-local index filed under it.
    key_index: HashMap<u64, u32, std::hash::BuildHasherDefault<PreHashed>>,
    /// Every further series whose key hashed to a value `key_index` already
    /// held, ascending — consulted only when the first one's key compare
    /// fails.  A 64-bit collision inside one shard: kept correct, not fast.
    collided: Vec<u32>,
    postings: Postings,
    /// Bumped whenever shard-local series indices are invalidated (series
    /// evicted by retention or dropped); stale [`SeriesHandle`]s are detected
    /// by comparing against this.
    generation: u64,
    /// Samples rejected as out of order: history, which no series holds.
    rejected: u64,
    /// Stored samples.  This and the six fields after it are the shard's
    /// ledger: aggregates of `series` that the append path keeps
    /// incrementally ([`ShardInner::account`]) and every cold path
    /// recomputes ([`ShardInner::recount`]).
    samples: u64,
    /// Chunks, an open head counting as one.
    chunks: u64,
    /// Resident payload bytes (sealed chunk data + every head's, see
    /// [`Head::resident_bytes`]).
    bytes: u64,
    /// The open heads' share of `bytes`.
    head_bytes: u64,
    /// Sum of [`MemSeries::boxes_bytes`] over `series`.
    boxes_bytes: u64,
    min_ts: Option<u64>,
    max_ts: Option<u64>,
}

impl ShardInner {
    /// The series at shard-local index `local`.  The only raw series indexing
    /// in the crate: every caller passes an index from the key index or the
    /// postings, maintained under the same shard lock, or has validated it
    /// against `series.len()` under the current generation.
    #[expect(
        clippy::indexing_slicing,
        reason = "shard-local indices come from the key index/postings under this lock"
    )]
    fn series_at(&self, local: u32) -> &MemSeries {
        &self.series[local as usize]
    }

    /// Borrowed-key lookup: no allocation, no string clone.  A hash the
    /// index holds is verified against the interned strings under the
    /// symbol table's read lock (lock order: this shard's, held by the
    /// caller, then `tsdb.symbols`); a hash it does not hold takes no lock.
    fn find(
        &self,
        key_hash: u64,
        name: &str,
        labels: &Labels,
        symbols: &RwLock<SymbolTable>,
    ) -> Option<u32> {
        let first = *self.key_index.get(&key_hash)?;
        let symbols = symbols.read();
        if self.series_at(first).key_matches(name, labels, &symbols) {
            return Some(first);
        }
        self.collided.iter().copied().find(|&local| {
            let series = self.series_at(local);
            series.key_hash == key_hash && series.key_matches(name, labels, &symbols)
        })
    }

    /// What this shard's series records hold on the heap: the array and the
    /// key index at their capacities, and every record's own blocks.
    fn series_bytes(&self) -> u64 {
        (self.series.capacity() * size_of::<MemSeries>()
            + hash_table_bytes(self.key_index.capacity(), size_of::<(u64, u32)>())
            + self.collided.capacity() * size_of::<u32>()) as u64
            + self.boxes_bytes
    }

    /// Appends `sample` to the series at `local` (same invariant as
    /// [`ShardInner::series_at`]) and folds the result into the shard
    /// aggregates.  Returns `true` when the sample was stored.  The one
    /// append every path — by key, batched, WAL replay — goes through, so
    /// acceptance and accounting cannot diverge.
    ///
    /// The hot path is the ordering check against the newest timestamp and
    /// the room check, both against the series record, and a sixteen-byte
    /// store into the head's tail through the record's pointer; it calls
    /// nothing and loads nothing from the head.  The append that opens a
    /// chunk, fills the tail or fills the head leaves through
    /// [`ShardInner::append_encoding`].
    fn append(&mut self, local: u32, sample: Sample, chunk_size: usize) -> bool {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard-local indices come from the key index/postings under this lock"
        )]
        let series = &mut self.series[local as usize];
        if sample.timestamp_ms < series.last_ts {
            self.rejected += 1;
            return false;
        }
        if series.room > 0 {
            if let Some(head) = series.head.as_deref_mut() {
                head.store_at(series.tail_len, sample);
                series.tail_len += 1;
                series.room -= 1;
                series.last_ts = sample.timestamp_ms;
                self.account(sample.timestamp_ms, false, SAMPLE_BYTES as i64, 0);
                return true;
            }
        }
        self.append_encoding(local, sample, chunk_size)
    }

    /// The rest of [`ShardInner::append`] for an accepted sample that finds
    /// no head — one is allocated —, opens a chunk, fills its head's tail —
    /// a burst is encoded — or the head, which is sealed and emptied, its
    /// block buffer kept for the next chunk: past its first chunk a steady
    /// series allocates only at a seal.
    #[cold]
    #[inline(never)]
    fn append_encoding(&mut self, local: u32, sample: Sample, chunk_size: usize) -> bool {
        let Some(series) = self.series.get_mut(local as usize) else { return false };
        if series.head.is_none() {
            #[cfg(lock_audit)]
            let _allow = parking_lot::audit::allow_alloc();
            series.head = Some(Box::default());
            self.boxes_bytes += size_of::<Head>() as u64;
        }
        let Some(head) = series.head.as_deref_mut() else { return false };
        let opened_chunk = head.is_empty();
        let mut head_delta = head.push(sample);
        let mut sealed_bytes = 0;
        if head.len() >= chunk_size {
            head_delta -= head.resident_bytes() as i64;
            let (payload, boxes) = series.seal_head();
            sealed_bytes = payload;
            self.boxes_bytes += boxes as u64;
        }
        series.ever_appended = true;
        series.sync_head(chunk_size);
        self.account(sample.timestamp_ms, opened_chunk, head_delta, sealed_bytes);
        true
    }

    /// Folds one stored sample into the aggregates: `head_delta` is what it
    /// did to its head's resident bytes, `sealed_bytes` the payload of the
    /// chunk it sealed, if any.
    #[inline(always)]
    fn account(&mut self, ts: u64, opened_chunk: bool, head_delta: i64, sealed_bytes: usize) {
        self.samples += 1;
        self.head_bytes = self.head_bytes.saturating_add_signed(head_delta);
        self.bytes = self.bytes.saturating_add_signed(head_delta + sealed_bytes as i64);
        if opened_chunk {
            self.chunks += 1;
        }
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        self.min_ts = Some(self.min_ts.map_or(ts, |m| m.min(ts)));
    }

    /// Appends a new series, registering it in the key index and the
    /// postings; returns its shard-local index.
    fn push_series(&mut self, series: MemSeries) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "invariant — u32 handles cap a shard at 2^32 series, unreachable in memory"
        )]
        let local = u32::try_from(self.series.len()).expect("fewer than 2^32 series per shard");
        self.index(local, &series);
        self.boxes_bytes += series.boxes_bytes();
        self.series.push(series);
        local
    }

    /// Files `series`, about to be or already stored at `local` — greater
    /// than every index filed so far —, under its key hash and in the
    /// postings.
    fn index(&mut self, local: u32, series: &MemSeries) {
        match self.key_index.entry(series.key_hash) {
            Entry::Vacant(slot) => {
                slot.insert(local);
            }
            Entry::Occupied(_) => self.collided.push(local),
        }
        self.postings.register(local, series.name_sym, &series.label_syms);
    }

    /// Rebuilds the key index and postings from the stored series.  The
    /// generation is the caller's: a removal bumps it, recovery restores
    /// the durable one.
    fn reindex(&mut self) {
        self.key_index.clear();
        self.collided = Vec::new();
        self.postings = Postings::default();
        let series = std::mem::take(&mut self.series);
        for (local, series) in series.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "invariant — u32 handles cap a shard at 2^32 series, unreachable in memory"
            )]
            let local = u32::try_from(local).expect("fewer than 2^32 series per shard");
            self.index(local, series);
        }
        self.series = series;
    }

    /// Removes the series at `victims` (ascending pre-removal shard-local
    /// indices) — the one way series leave a shard: what
    /// [`TimeSeriesDb::drop_series`] drops, what
    /// [`ShardInner::retention_pass`] evicts, and both replayed, so the live
    /// and the replayed state cannot diverge.  The victims' symbol
    /// references are released (no-ops during replay: refcounts are rebuilt
    /// wholesale at the end of recovery), the key index and postings are
    /// rebuilt from the survivors and the generation is bumped, so every
    /// previously issued handle into this shard becomes stale.  Ends in
    /// [`ShardInner::recount`] (all it does without victims).  Returns how
    /// many series were removed.
    ///
    /// A removal that leaves the array under a quarter full also gives the
    /// spike back: the array and the key index shrink to twice what they
    /// hold (the postings maps are rebuilt from nothing every time), so a
    /// burst of cardinality costs memory for its retention window, not for
    /// the life of the process.
    fn remove_locals(&mut self, victims: &[u32], symbols: &RwLock<SymbolTable>) -> usize {
        let held = self.series.len();
        if !victims.is_empty() {
            // Lock order: the caller holds this shard's lock; `tsdb.symbols`
            // nests inside it, same as the series-creation path.
            let mut table = symbols.write();
            for &victim in victims {
                if let Some(series) = self.series.get(victim as usize) {
                    series.release_symbols(&mut table);
                }
            }
            drop(table);
            // `victims` is ascending; walk it alongside a retain pass.
            let (mut next_victim, mut local) = (0, 0u32);
            self.series.retain(|_| {
                let doomed = victims.get(next_victim) == Some(&local);
                next_victim += usize::from(doomed);
                local += 1;
                !doomed
            });
            let kept = self.series.len();
            if kept < self.series.capacity() / 4 {
                self.series.shrink_to(2 * kept);
                self.key_index.clear();
                self.key_index.shrink_to(2 * kept);
            }
            self.reindex();
            self.generation += 1;
        }
        self.recount();
        held - self.series.len()
    }

    /// One shard's retention sweep at `cutoff`: drops aged chunks, seals
    /// stale heads and evicts the series it drained through
    /// [`ShardInner::remove_locals`], whose recount leaves the ledger right.
    /// Shared by [`TimeSeriesDb::apply_retention`] and WAL replay.  Returns
    /// how many samples were dropped: the ledger's count before the pass
    /// less its count after.
    ///
    /// A head is *stale* once its series' newest sample is more than
    /// [`STALE_HEAD_MS`] behind the shard's newest: instant selectors have
    /// stopped seeing the series, so it is unlikely to be appended to again.
    /// Its samples are sealed into a chunk like a full head's and the head
    /// is dropped, record and buffer (an empty stale head is just dropped),
    /// so a churned series costs an exact-sized block, not a tail, an
    /// encoder and a half-used buffer, until retention evicts it.  The rule
    /// reads only what replay reproduces — `max_ts` and the head — so it
    /// needs no WAL record.
    fn retention_pass(&mut self, cutoff: u64, symbols: &RwLock<SymbolTable>) -> u64 {
        let samples = self.samples;
        let stale_before = self.max_ts.map_or(0, |newest| newest.saturating_sub(STALE_HEAD_MS));
        let mut stale_sealed = 0u64;
        let mut drained = Vec::new();
        for (local, series) in (0u32..).zip(&mut self.series) {
            series.drop_before(cutoff);
            if series.is_drained() {
                drained.push(local);
            }
            stale_sealed += u64::from(series.seal_if_stale(stale_before));
        }
        if stale_sealed > 0 {
            probes::STALE_HEADS_SEALED.add(stale_sealed);
        }
        self.remove_locals(&drained, symbols);
        samples.saturating_sub(self.samples)
    }

    /// Recomputes the ledger — `samples`, `chunks`, `bytes`, `head_bytes`,
    /// `boxes_bytes`, `min_ts` and `max_ts` — from the series, in one walk.
    /// Every cold path that changes series ends here
    /// ([`ShardInner::remove_locals`], and through it retention; recovery's
    /// `Recovery::restore`); only the append path keeps the ledger
    /// incrementally ([`ShardInner::account`]).  `rejected` and `generation`
    /// are history no series holds, and stay.
    fn recount(&mut self) {
        (self.samples, self.chunks, self.bytes, self.head_bytes, self.boxes_bytes) =
            (0, 0, 0, 0, 0);
        (self.min_ts, self.max_ts) = (None, None);
        for series in &self.series {
            self.samples += series.sample_count();
            self.chunks += series.chunk_total();
            self.bytes += series.resident_bytes();
            self.head_bytes += series.head_resident_bytes();
            self.boxes_bytes += series.boxes_bytes();
            self.min_ts = self.min_ts.into_iter().chain(series.first_timestamp()).min();
            self.max_ts = self.max_ts.max(series.last_timestamp());
        }
    }

    /// Shard-local matches for a compiled selector, ascending: candidates
    /// from the name and equality postings, walked where they lie, then the
    /// `exists` and `!=` matchers checked per candidate against the series'
    /// own label symbols (the index holds no list for them, see `index.rs`).
    fn matches<'a>(&'a self, plan: &'a SelectorPlan) -> impl Iterator<Item = u32> + 'a {
        let (exists, neq) = plan.post_filters();
        plan.candidates(&self.postings, self.series.len() as u32).filter(move |&local| {
            let series = self.series_at(local);
            exists.iter().all(|&key| series.label_value_sym(key).is_some())
                && neq.iter().all(|&(key, value)| {
                    series.label_value_sym(key).is_some_and(|actual| actual != value)
                })
        })
    }
}

struct DbShared {
    symbols: RwLock<SymbolTable>,
    shards: [RwLock<ShardInner>; SHARD_COUNT],
    next_id: AtomicU64,
    /// The write-ahead log, present only for databases opened through
    /// [`TimeSeriesDb::open`] / [`TimeSeriesDb::open_with`].
    wal: Option<Wal>,
}

impl Default for DbShared {
    fn default() -> Self {
        Self {
            // Lock audit classes (see `parking_lot::audit`): the shard locks
            // are `ordered` (multi-hold only via the ascending ordered path)
            // and `no_alloc` (the append hot path must not allocate while a
            // shard is write-locked); the symbol table is acquired *after* a
            // shard on the creation path, never the other way around.
            symbols: RwLock::named(SymbolTable::default(), LockClass::new("tsdb.symbols")),
            shards: std::array::from_fn(|i| {
                RwLock::named(
                    ShardInner::default(),
                    LockClass::new("tsdb.shard").instance(i as u32).ordered().no_alloc(),
                )
            }),
            next_id: AtomicU64::new(0),
            wal: None,
        }
    }
}

impl DbShared {
    /// The WAL staging handle for `shard`: `None` for a volatile database,
    /// and once the shard's durability has failed.  Called with the shard's
    /// lock held.
    fn stage(&self, shard: usize) -> Option<wal::ShardWriter<'_>> {
        self.wal.as_ref()?.shard_writer(shard)
    }

    /// The lock shard at `index`.  Masked with `SHARD_COUNT - 1`, so the
    /// accessor itself can never panic; every caller derives `index` from a
    /// key hash or a [`SeriesHandle`], both already in range.
    #[expect(clippy::indexing_slicing, reason = "masked by SHARD_COUNT - 1, always in bounds")]
    fn shard(&self, index: usize) -> &RwLock<ShardInner> {
        &self.shards[index & (SHARD_COUNT - 1)]
    }
}

/// One shard being rebuilt by recovery.
#[derive(Default)]
struct ShardRecovery {
    /// The shard's snapshot, held back until the first op past it (or the
    /// end of recovery): by then every symbol bound up to the round it was
    /// taken at has been installed.
    snapshot: Option<wal::ShardSnapshot>,
    inner: ShardInner,
    /// Validation failed: the shard comes up empty and flagged.
    failed: bool,
}

/// Rebuilds in-memory state from what [`Wal::open`] recovers, item by item.
/// Logged ops re-run through the *same* code paths live ingest uses
/// (`ShardInner::append`, `remove_locals`, `retention_pass`), so acceptance
/// decisions and aggregates reproduce exactly.  A shard whose records fail
/// validation (symbol ids or local indices out of range — possible only
/// through corruption that still passed the checksum) comes up empty and
/// flagged, never panics.
struct Recovery<'a> {
    chunk_size: usize,
    symbols: &'a RwLock<SymbolTable>,
    shards: [ShardRecovery; SHARD_COUNT],
    /// Ids of series built from placeholder bindings; see
    /// [`Recovery::series`].
    doomed: HashSet<u64>,
    max_id: Option<u64>,
}

impl<'a> Recovery<'a> {
    fn new(config: &TsdbConfig, symbols: &'a RwLock<SymbolTable>) -> Self {
        Self {
            chunk_size: config.chunk_size.max(1),
            symbols,
            shards: Default::default(),
            doomed: HashSet::new(),
            max_id: None,
        }
    }

    fn apply(&mut self, item: wal::Replay<'_>) {
        match item {
            wal::Replay::Binding(raw, s) => self.symbols.write().install_binding(raw, s),
            wal::Replay::Snapshot(index, snapshot) => {
                if let Some(shard) = self.shards.get_mut(index) {
                    shard.snapshot = Some(snapshot);
                }
            }
            wal::Replay::Op(index, op) => {
                self.restore(index);
                if !self.apply_op(index, op) {
                    if let Some(shard) = self.shards.get_mut(index) {
                        *shard = ShardRecovery { failed: true, ..ShardRecovery::default() };
                    }
                }
            }
        }
    }

    /// Builds a series from a recovered key.  A symbol with no binding does
    /// not fail the shard outright: the GC sweep legitimately removes a
    /// symbol's binding once every series using it is dropped, and the
    /// dropping record may be later in the log.  The unresolvable id gets a
    /// unique placeholder binding and the series is marked *doomed*: only a
    /// doomed series that survives to the end of recovery fails its shard.
    fn series(
        &mut self,
        id: u64,
        name_sym: SymbolId,
        label_syms: Vec<(SymbolId, SymbolId)>,
    ) -> MemSeries {
        let mut symbols = self.symbols.write();
        let mut holed = false;
        let all = std::iter::once(name_sym).chain(label_syms.iter().flat_map(|&(k, v)| [k, v]));
        for sym in all {
            holed |= bind_hole(&mut symbols, sym);
        }
        if holed {
            self.doomed.insert(id);
        }
        self.max_id = Some(self.max_id.map_or(id, |m| m.max(id)));
        let str_of = |sym| symbols.resolve(sym).map_or("", |s| &**s);
        let key_hash = series_key_hash_pairs(
            str_of(name_sym),
            label_syms.iter().map(|&(k, v)| (str_of(k), str_of(v))),
        );
        MemSeries::new(SeriesId(id), key_hash, name_sym, label_syms)
    }

    /// Restores `index`'s held-back snapshot, if any (sealed Gorilla blocks
    /// verbatim, heads sample by sample through the append's own
    /// [`Head::push`], so a restored head stands where the live one stood).
    fn restore(&mut self, index: usize) {
        let Some(snapshot) = self.shards.get_mut(index).and_then(|shard| shard.snapshot.take())
        else {
            return;
        };
        let mut inner = ShardInner {
            generation: snapshot.generation,
            rejected: snapshot.rejected,
            ..ShardInner::default()
        };
        for series in snapshot.series {
            let mut restored = self.series(series.id, series.name_sym, series.label_syms);
            // A head only where the live store had samples in one: a series
            // snapshotted without gets it back from its next append.
            if series.head.is_empty() {
                restored.drop_head();
            } else if let Some(head) = restored.head.as_deref_mut() {
                for sample in series.head {
                    head.push(sample);
                }
            }
            restored.sealed = series.sealed;
            restored.ever_appended = series.ever_appended;
            restored.sync_head(self.chunk_size);
            inner.series.push(restored);
        }
        inner.reindex();
        inner.recount();
        if let Some(shard) = self.shards.get_mut(index) {
            shard.inner = inner;
        }
    }

    /// The shard being rebuilt at `index`, unless it already failed.
    fn live(&mut self, index: usize) -> Option<&mut ShardInner> {
        self.shards.get_mut(index).filter(|shard| !shard.failed).map(|shard| &mut shard.inner)
    }

    /// Re-applies one logged op to shard `index`; `false` when it fails
    /// validation.
    fn apply_op(&mut self, index: usize, op: wal::ShardOp<'_>) -> bool {
        let (chunk_size, symbols) = (self.chunk_size, self.symbols);
        match op {
            wal::ShardOp::Series { id, name_sym, label_syms } => {
                let series = self.series(id, name_sym, label_syms);
                if let Some(inner) = self.live(index) {
                    inner.push_series(series);
                }
            }
            wal::ShardOp::Samples { timestamp_ms, entries, .. } => {
                let Some(inner) = self.live(index) else { return true };
                for (local, value) in entries {
                    if (local as usize) >= inner.series.len() {
                        return false;
                    }
                    inner.append(local, Sample { timestamp_ms, value }, chunk_size);
                }
            }
            // Out-of-range victims cannot match any local index and fall
            // through `remove_locals` harmlessly.
            wal::ShardOp::Drop { victims } => {
                if let Some(inner) = self.live(index) {
                    inner.remove_locals(&victims, symbols);
                }
            }
            wal::ShardOp::Retention { cutoff_ms } => {
                if let Some(inner) = self.live(index) {
                    inner.retention_pass(cutoff_ms, symbols);
                }
            }
        }
        true
    }

    /// Installs the rebuilt shards into `shared` and settles the symbol
    /// table.  A doomed series still standing means a record referenced a
    /// symbol binding that is durably gone while the series itself survived
    /// — which the cooling discipline makes impossible without corruption
    /// or a power-loss-torn drop record.  Its key cannot be reconstructed,
    /// so the shard comes up empty and flagged rather than serving a
    /// fabricated key.
    fn finish(mut self, shared: &DbShared, wal: &Wal) {
        for index in 0..SHARD_COUNT {
            self.restore(index);
        }
        for (index, shard) in self.shards.into_iter().enumerate() {
            if shard.failed || shard.inner.series.iter().any(|s| self.doomed.contains(&s.id.0)) {
                probes::WAL_SALVAGE.inc();
                wal.mark_shard_failed(index);
                continue;
            }
            {
                // Rebuild symbol refcounts wholesale: one reference per use
                // by a surviving series.  (Releases during replayed
                // drops/retention were no-ops against all-zero counts, so
                // this is the single source of truth.)
                let mut symbols = self.symbols.write();
                for series in &shard.inner.series {
                    symbols.acquire(series.name_sym);
                    for &(k, v) in series.label_syms.iter() {
                        symbols.acquire(k);
                        symbols.acquire(v);
                    }
                }
            }
            let mut slot = shared.shard(index).write();
            // Recovery is startup-only; dropping the placeholder shard is
            // outside the hot path.
            #[cfg(lock_audit)]
            let _allow = parking_lot::audit::allow_alloc();
            *slot = shard.inner;
        }
        if let Some(max) = self.max_id {
            shared.next_id.store(max + 1, Ordering::Relaxed);
        }
        // Recovered bindings nothing references (their series were dropped
        // before the crash) enter the cooling queue instead of leaking.
        self.symbols.write().finish_recovery();
    }
}

/// A pull-based, labelled time-series database.  Clones share storage.
#[derive(Clone, Default)]
pub struct TimeSeriesDb {
    config: TsdbConfig,
    shared: Arc<DbShared>,
}

/// Stable hash of a borrowed series key (metric name + sorted label pairs).
/// Used both to pick the lock shard and as the key-index hash, so one hash
/// computation serves the whole append path.
fn series_key_hash(name: &str, labels: &Labels) -> u64 {
    series_key_hash_pairs(name, labels.iter())
}

/// [`series_key_hash`] over any borrowed pair iterator, so index rebuilds can
/// hash a stored series' interned strings without materialising a `Labels`.
fn series_key_hash_pairs<'a>(name: &str, pairs: impl Iterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    for (k, v) in pairs {
        k.hash(&mut hasher);
        v.hash(&mut hasher);
    }
    hasher.finish()
}

fn shard_of(key_hash: u64) -> usize {
    (key_hash as usize) & (SHARD_COUNT - 1)
}

impl TimeSeriesDb {
    /// Creates a database with default configuration.
    pub fn new() -> Self {
        Self::with_config(TsdbConfig::default())
    }

    /// Creates a database with explicit configuration.
    pub fn with_config(config: TsdbConfig) -> Self {
        Self { config, shared: Arc::new(DbShared::default()) }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    /// Opens a durable database rooted at `dir` with default
    /// [`DurabilityOptions`], replaying any write-ahead logs found there.
    /// See [`TimeSeriesDb::open_with`].
    pub fn open(dir: &Path, config: TsdbConfig) -> io::Result<Self> {
        Self::open_with(dir, config, DurabilityOptions::default())
    }

    /// Opens a durable database rooted at `dir`: creates the directory if
    /// missing, recovers symbols, series and samples from the snapshots and
    /// the write-ahead log (salvaging a corrupt tail, isolating unreadable
    /// shards — see the [`crate::wal`] module docs), and arms the WAL so
    /// every subsequent mutation is staged for the next
    /// [`TimeSeriesDb::wal_flush`].
    ///
    /// I/O errors on the directory surface as `Err`, as does a directory in
    /// the per-shard layout of earlier versions
    /// ([`io::ErrorKind::InvalidData`]); *corruption* never does.  A shard
    /// whose snapshot is damaged comes up empty and is counted in
    /// [`StorageStats::wal_failed_shards`], leaving the other shards intact.
    pub fn open_with(
        dir: &Path,
        config: TsdbConfig,
        options: DurabilityOptions,
    ) -> io::Result<Self> {
        let watch = Stopwatch::start();
        let mut shared = DbShared::default();
        let mut recovery = Recovery::new(&config, &shared.symbols);
        let wal = Wal::open(dir, &options, &mut |item| recovery.apply(item))?;
        recovery.finish(&shared, &wal);
        probes::WAL_RECOVERY_SECONDS.set(watch.elapsed_ns() as f64 / 1e9);
        probes::WAL_FAILED_SHARDS.set(wal.failed_shard_count() as f64);
        shared.wal = Some(wal);
        Ok(Self { config, shared: Arc::new(shared) })
    }

    /// `true` when this database writes a WAL (opened via
    /// [`TimeSeriesDb::open`] / [`TimeSeriesDb::open_with`]).
    pub fn durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// Commits everything staged since the last flush: one group, one
    /// checksum, one sequential write (plus one fsync under
    /// [`wal::FsyncMode::EveryCommit`]).  Volatile databases return `true`
    /// immediately.  Returns `false` once the log has hit a write or fsync
    /// error or a shard came up unrecoverable (sticky; also surfaced in
    /// [`StorageStats::wal_failed_shards`]).
    ///
    /// Called once per scrape round by the scrape driver — and by either
    /// appender ([`TimeSeriesDb::append`], [`TimeSeriesDb::append_batch`])
    /// that leaves a shard with more than 256 KiB staged, so ingest without
    /// a driver cannot stage without bound.  After a commit, every shard
    /// that has logged more than the segment budget since its last snapshot
    /// is checkpointed — its state snapshotted, Gorilla blocks re-used
    /// verbatim — and log segments no stream needs are deleted.
    pub fn wal_flush(&self) -> bool {
        let Some(wal) = &self.shared.wal else {
            return true;
        };
        let clean = wal.flush(&self.shared.symbols, &|shard, base_seq| {
            self.snapshot_shard(wal, shard, base_seq)
        });
        probes::WAL_FAILED_SHARDS.set(wal.failed_shard_count() as f64);
        clean
    }

    /// The storage half of a shard checkpoint: `shard`'s state encoded as a
    /// snapshot of round `base_seq`, or `None` when records are staged that
    /// the log does not hold yet (the checkpoint is retried next round).
    fn snapshot_shard(&self, wal: &Wal, shard: usize, base_seq: u64) -> Option<Vec<u8>> {
        // Lock order: `tsdb.shard` (read) strictly before `tsdb.wal.shard`
        // — the same order as the append paths.  With the shard lock held
        // nothing can stage, and the flusher calling this holds the log
        // lock, so an idle stage means the state below is exactly the log
        // through `base_seq`.
        let inner = self.shared.shard(shard).read();
        if !wal.stage_idle(shard) {
            return None;
        }
        // A checkpoint is a cold path: encoding the snapshot allocates.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        let refs: Vec<wal::SnapSeriesRef<'_>> = inner
            .series
            .iter()
            .map(|series| wal::SnapSeriesRef {
                id: series.id.0,
                name_sym: series.name_sym,
                label_syms: &series.label_syms,
                ever_appended: series.ever_appended,
                head: series.head.as_deref(),
                sealed: &series.sealed,
            })
            .collect();
        Some(wal::encode_shard_snapshot(base_seq, inner.generation, inner.rejected, &refs))
    }

    /// Appends one sample to the series identified by `name` + `labels`,
    /// creating the series on first use.  Returns `false` when the sample was
    /// rejected (out of order).
    ///
    /// Appending to an existing series is allocation-free: the borrowed key
    /// is hashed directly (picking the lock shard and the key-index slot) and
    /// verified against the interned key strings, the sample lands in the
    /// head's inline tail, and past a series' first chunk the buffer its
    /// bursts encode into is already there.  Only series creation, that
    /// buffer's few doublings inside the first chunk and chunk sealing
    /// allocate.
    pub fn append(&self, name: &str, labels: &Labels, timestamp_ms: u64, value: f64) -> bool {
        let key_hash = series_key_hash(name, labels);
        let shard = shard_of(key_hash);
        let mut inner = self.shared.shard(shard).write();
        let local = match inner.find(key_hash, name, labels, &self.shared.symbols) {
            Some(local) => local,
            None => self.create_series(&mut inner, shard, key_hash, name, labels),
        };
        // Over budget, the shard's staging is flushed once its lock is
        // released.
        let flush_due = self.shared.stage(shard).is_some_and(|mut writer| {
            writer.sample(local, timestamp_ms, value);
            writer.over_budget()
        });
        let chunk_size = self.config.chunk_size.max(1);
        let accepted = inner.append(local, Sample { timestamp_ms, value }, chunk_size);
        drop(inner);
        if flush_due {
            self.wal_flush();
        }
        accepted
    }

    /// Resolves `name` + `labels` to a [`SeriesHandle`], creating the series
    /// on first use — the slow half of the ingest fast lane, paid once per
    /// series per cache (re)build.  The returned handle stays valid until the
    /// owning shard evicts or drops series (see [`SeriesHandle`]); a batch
    /// entry through it afterwards comes back in [`BatchOutcome::stale`]
    /// rather than ever touching another series.
    pub fn resolve(&self, name: &str, labels: &Labels) -> SeriesHandle {
        let key_hash = series_key_hash(name, labels);
        let shard = shard_of(key_hash);
        {
            // Optimistic read: steady-state re-resolves share the lock.
            let inner = self.shared.shard(shard).read();
            if let Some(local) = inner.find(key_hash, name, labels, &self.shared.symbols) {
                return SeriesHandle { shard: shard as u16, local, generation: inner.generation };
            }
        }
        let mut inner = self.shared.shard(shard).write();
        let local = match inner.find(key_hash, name, labels, &self.shared.symbols) {
            Some(local) => local,
            None => self.create_series(&mut inner, shard, key_hash, name, labels),
        };
        SeriesHandle { shard: shard as u16, local, generation: inner.generation }
    }

    /// The current generation of every lock shard, in shard order.  A scrape
    /// cache snapshots these once per repair pass to validate a batch of
    /// handles without locking per handle.
    pub(crate) fn shard_generations(&self) -> [u64; SHARD_COUNT] {
        std::array::from_fn(|i| self.shared.shard(i).read().generation)
    }

    /// Whether `handle` still addresses a live series — its shard has not
    /// evicted or dropped series since the handle was resolved — under the
    /// given generation snapshot (from [`TimeSeriesDb::shard_generations`]).
    /// Lock-free.
    pub(crate) fn handle_live_under(
        &self,
        handle: SeriesHandle,
        generations: &[u64; SHARD_COUNT],
    ) -> bool {
        generations.get(handle.shard as usize).is_some_and(|&g| g == handle.generation)
    }

    /// Appends a whole scrape round of handle-addressed samples, taking each
    /// shard's write lock **once per block** of [`BATCH_BLOCK`] samples
    /// instead of once per sample.  Each block is sorted by shard once (a
    /// counting sort of its positions into a stack array); each shard with
    /// samples in it is then locked once and walks only its own run, in
    /// local order — a run that steps back to a lower local is sorted in
    /// place first, ties in input order — so per-series semantics
    /// (out-of-order rejection, chunk sealing) are identical to issuing the
    /// same appends one by one, and WAL staging is identical to issuing them
    /// sorted by shard and local.
    ///
    /// Stale handles (their shard evicted or dropped series since
    /// resolution, or a handle that never addressed a shard) are skipped and
    /// reported by input index, in no particular order, in
    /// [`BatchOutcome::stale`]; the caller appends those samples by key and
    /// re-resolves the keys — a stale handle can miss a beat but never write
    /// to the wrong series.  On a steady-state round the call performs zero heap
    /// allocations.
    pub fn append_batch(&self, batch: &[(SeriesHandle, u64, f64)]) -> BatchOutcome {
        let chunk_size = self.config.chunk_size.max(1);
        let mut outcome = BatchOutcome::default();
        // This loop is the one approved multi-shard path: shards are visited
        // in ascending index order, so under the lock audit it runs as an
        // ordered section.  (Today each shard guard drops before the next is
        // taken; the section future-proofs overlapping holds.)
        #[cfg(lock_audit)]
        let _ordered = parking_lot::audit::ordered_section();
        let mut appended_per_shard = [0u64; SHARD_COUNT];
        let mut flush_due = false;
        // A block's positions, shard by shard: shard `s`'s run is
        // `order[start[s]..start[s + 1]]`.
        let mut order = [0u16; BATCH_BLOCK];
        for (block_index, block) in batch.chunks(BATCH_BLOCK).enumerate() {
            let base = block_index * BATCH_BLOCK;
            // Count each shard's samples one slot up, then sum the counts
            // into run starts.  A handle outside every shard (one that was
            // never resolved) is stale: no generation can match it.
            let mut start = [0usize; SHARD_COUNT + 1];
            for (at, (handle, ..)) in block.iter().enumerate() {
                match start.get_mut(handle.shard as usize + 1) {
                    Some(count) => *count += 1,
                    None => outcome.stale.push(base + at),
                }
            }
            let mut sum = 0;
            for slot in &mut start {
                sum += *slot;
                *slot = sum;
            }
            let mut next = start;
            // Per shard: the local its run last took, and whether the run
            // ever stepped back from it.
            let mut last = [0u32; SHARD_COUNT];
            let mut unordered = 0u32;
            for (at, (handle, ..)) in block.iter().enumerate() {
                let shard = handle.shard as usize;
                let (Some(cursor), Some(last)) = (
                    next.get_mut(..SHARD_COUNT).and_then(|n| n.get_mut(shard)),
                    last.get_mut(shard),
                ) else {
                    continue;
                };
                if let Some(slot) = order.get_mut(*cursor) {
                    *slot = at as u16;
                }
                *cursor += 1;
                unordered |= u32::from(handle.local < *last) << shard;
                *last = handle.local;
            }
            for (shard, (bounds, appended)) in
                start.windows(2).zip(&mut appended_per_shard).enumerate()
            {
                let &[from, to] = bounds else { continue };
                let run = order.get_mut(from..to).unwrap_or_default();
                if run.is_empty() {
                    continue;
                }
                if unordered & 1 << shard != 0 {
                    // Applied and staged in local order, a run's log entries
                    // name their series by the control byte's inline delta
                    // instead of a `u16` local.  Ties keep input order, so
                    // each series sees its own samples as given; sorting in
                    // place allocates nothing.
                    run.sort_unstable_by_key(|&at| {
                        let local = block.get(usize::from(at)).map_or(u32::MAX, |(h, ..)| h.local);
                        u64::from(local) << 16 | u64::from(at)
                    });
                }
                let run = &*run;
                let mut inner = self.shared.shard(shard).write();
                let mut writer = self.shared.stage(shard);
                for &at in run {
                    let Some(&(handle, timestamp_ms, value)) = block.get(at as usize) else {
                        continue;
                    };
                    if handle.generation != inner.generation
                        || (handle.local as usize) >= inner.series.len()
                    {
                        // Stale handles are rare (a drop/retention pass raced
                        // the round); growing the report is allowed to
                        // allocate.
                        #[cfg(lock_audit)]
                        let _allow = parking_lot::audit::allow_alloc();
                        outcome.stale.push(base + at as usize);
                        continue;
                    }
                    if let Some(writer) = writer.as_mut() {
                        writer.sample(handle.local, timestamp_ms, value);
                    }
                    if inner.append(handle.local, Sample { timestamp_ms, value }, chunk_size) {
                        *appended += 1;
                    } else {
                        outcome.rejected += 1;
                    }
                }
                flush_due |= writer.is_some_and(|writer| writer.over_budget());
            }
        }
        outcome.appended = appended_per_shard.iter().sum();
        if flush_due {
            // Every shard guard is released: the log lock stays outermost.
            self.wal_flush();
        }
        // Probe the shard heat map after the batch loops finish: calling
        // into the probe statics inside the per-shard loop measurably
        // degrades the inner scan's codegen (~15% on `micro/ingest`), so
        // the counts stage in a stack array and flush here, off the hot
        // path.
        for (shard, &appended) in appended_per_shard.iter().enumerate() {
            if appended > 0 {
                probes::SHARD_APPENDS.add(shard, appended);
            }
        }
        if !outcome.stale.is_empty() {
            probes::STALE_HANDLES.add(outcome.stale.len() as u64);
        }
        outcome
    }

    /// Drops every series matching `selector` — chunks, head and index
    /// entries — and returns how many series were removed.  Affected shards
    /// bump their generation, so outstanding [`SeriesHandle`]s into them
    /// become stale (reported, never misrouted).  This is the cardinality
    /// clean-up knife: vanished scrape targets, renamed metrics, runaway
    /// label values.
    ///
    /// Dropping series also releases their interned symbols (name, label
    /// keys/values).  A symbol whose refcount reaches zero is parked in a
    /// cooling queue and reclaimed at the symbol table's next checkpoint
    /// once two durable commits have passed — so an all-time-unique label
    /// value gives its string memory back instead of leaking it (see the
    /// lifecycle notes on `crate::symbols::SymbolTable`).
    pub fn drop_series(&self, selector: &Selector) -> usize {
        let plan = self.plan(selector);
        if matches!(plan, SelectorPlan::Nothing) {
            return 0;
        }
        let mut dropped = 0;
        for (index, shard) in self.shared.shards.iter().enumerate() {
            let mut inner = shard.write();
            // Dropping series is a cold maintenance path: collecting victims
            // and rebuilding the index allocate under the shard lock.
            #[cfg(lock_audit)]
            let _allow = parking_lot::audit::allow_alloc();
            let victims: Vec<u32> = inner.matches(&plan).collect();
            if victims.is_empty() {
                continue;
            }
            // Stage the removal before mutating, in the same order replay
            // will apply it (`matches` returns ascending local indices).
            if let Some(mut writer) = self.shared.stage(index) {
                writer.drop_locals(&victims);
            }
            dropped += inner.remove_locals(&victims, &self.shared.symbols);
        }
        dropped
    }

    /// Slow path: intern the key and register the series in the shard's
    /// postings.  Called with the shard write lock held; the symbol-table
    /// lock is the inner lock of the pair (query paths release it before
    /// touching any shard).
    fn create_series(
        &self,
        inner: &mut ShardInner,
        shard: usize,
        key_hash: u64,
        name: &str,
        labels: &Labels,
    ) -> u32 {
        // First sight of a series key: interning, postings registration and
        // the series record itself all allocate, by design, under the shard
        // write lock the caller holds.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        let mut symbols = self.shared.symbols.write();
        let name_sym = symbols.intern_acquire(name);
        let label_syms: Vec<(SymbolId, SymbolId)> = labels
            .iter()
            .map(|(k, v)| (symbols.intern_acquire(k), symbols.intern_acquire(v)))
            .collect();
        drop(symbols);

        let id = SeriesId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        if let Some(mut writer) = self.shared.stage(shard) {
            writer.series(id.0, name_sym, &label_syms);
        }
        inner.push_series(MemSeries::new(id, key_hash, name_sym, label_syms))
    }

    /// Number of live series, folded from the shards in O(shards).  (Evicted
    /// and dropped series no longer count; the total ever created is the
    /// upper bound of [`SeriesId`] values.)
    pub fn series_count(&self) -> usize {
        self.shared.shards.iter().map(|s| s.read().series.len()).sum()
    }

    /// Storage statistics, folded from the per-shard aggregates in O(shards).
    pub fn stats(&self) -> StorageStats {
        self.census().stats
    }

    /// Everything the per-shard aggregates say, read under one read lock per
    /// shard and then the symbol lock: the [`StorageStats`], the open heads'
    /// share of their resident bytes, and each shard's series count and
    /// generation.  The scrape driver publishes it after every round.
    pub fn census(&self) -> StorageCensus {
        let mut census = StorageCensus::default();
        let stats = &mut census.stats;
        let per_shard = census.shard_series.iter_mut().zip(&mut census.shard_generations);
        for (shard, (series, generation)) in self.shared.shards.iter().zip(per_shard) {
            let inner = shard.read();
            *series = inner.series.len();
            *generation = inner.generation;
            census.head_bytes += inner.head_bytes;
            stats.series += inner.series.len() as u64;
            stats.samples += inner.samples;
            stats.chunks += inner.chunks;
            stats.rejected_samples += inner.rejected;
            stats.resident_bytes += inner.bytes;
            stats.index_bytes += inner.postings.bytes() as u64;
            stats.series_bytes += inner.series_bytes();
        }
        stats.wal_failed_shards =
            self.shared.wal.as_ref().map(|wal| wal.failed_shard_count()).unwrap_or(0);
        // No shard lock is held here, so taking the symbol lock respects the
        // shard-then-symbols lock order.
        let symbols = self.shared.symbols.read();
        stats.symbols = symbols.len() as u64;
        stats.symbol_bytes = symbols.bytes();
        census
    }

    /// Compiles `selector` once against the symbol table.  The symbol lock is
    /// released before any shard lock is taken (lock order: shard, then
    /// symbols).
    fn plan(&self, selector: &Selector) -> SelectorPlan {
        let symbols = self.shared.symbols.read();
        SelectorPlan::compile(selector, &symbols)
    }

    /// Zero-copy selection: a [`SeriesSnapshot`] for every series matching
    /// `selector`, in creation order.  Every shard's read lock is taken
    /// once, in ascending order, and the matches counted under it, so the
    /// result is one allocation of its size; then each shard's matches are
    /// snapshotted (under the symbol table's read lock, taken inside the
    /// shard's — lock order: `tsdb.shard`, then `tsdb.symbols` — only where
    /// the shard has a match) and its lock released.  Sealed blocks are
    /// shared, not cloned; only the open head chunk of each series is
    /// copied, so a series costs two allocations: that copy and its label
    /// strings.
    pub fn select(&self, selector: &Selector) -> Vec<SeriesSnapshot> {
        let plan = self.plan(selector);
        if matches!(plan, SelectorPlan::Nothing) {
            return Vec::new();
        }
        // Holding several shard locks at once is legal in ascending order.
        #[cfg(lock_audit)]
        let _ordered = parking_lot::audit::ordered_section();
        let shards = self.shared.shards.each_ref().map(RwLock::read);
        let counts = shards.each_ref().map(|inner| inner.matches(&plan).count());
        let mut out = Vec::with_capacity(counts.iter().sum());
        for (inner, count) in shards.into_iter().zip(counts) {
            if count == 0 {
                continue;
            }
            let symbols = self.shared.symbols.read();
            out.extend(inner.matches(&plan).map(|local| inner.series_at(local).snapshot(&symbols)));
        }
        out.sort_unstable_by_key(|snapshot| snapshot.id);
        out
    }

    /// The newest timestamp across every series, folded from the per-shard
    /// maxima in O(shards).
    pub fn newest_timestamp(&self) -> Option<u64> {
        self.shared.shards.iter().filter_map(|s| s.read().max_ts).max()
    }

    /// The oldest retained timestamp across every series (used by query
    /// consumers to clamp open-ended ranges), folded from the per-shard
    /// minima in O(shards).
    pub fn oldest_timestamp(&self) -> Option<u64> {
        self.shared.shards.iter().filter_map(|s| s.read().min_ts).min()
    }

    /// Applies the retention policy relative to the newest stored timestamp.
    /// Returns the number of samples dropped.
    ///
    /// A series whose every chunk ages out is **evicted** — its key leaves
    /// the index and the shard bumps its generation, so cached
    /// [`SeriesHandle`]s into that shard become stale (see [`SeriesHandle`]).
    /// A target that stops exporting a metric therefore stops costing index
    /// space one retention window later, instead of leaking a dead series
    /// forever — and stops costing a head buffer as soon as a pass finds it
    /// [`STALE_HEAD_MS`] behind its shard: the head is sealed into a chunk
    /// and the buffer released (no sample is dropped or moved in time).
    pub fn apply_retention(&self) -> usize {
        let Some(newest) = self.newest_timestamp() else { return 0 };
        let cutoff = newest.saturating_sub(self.config.retention_ms);
        let mut dropped_total = 0;
        for (index, shard) in self.shared.shards.iter().enumerate() {
            let mut inner = shard.write();
            // Retention is a cold maintenance path; evicting drained series
            // rebuilds the index, which allocates under the shard lock.
            #[cfg(lock_audit)]
            let _allow = parking_lot::audit::allow_alloc();
            // Stage the cutoff so replay re-runs the identical sweep.
            if let Some(mut writer) = self.shared.stage(index) {
                writer.retention(cutoff);
            }
            dropped_total += inner.retention_pass(cutoff, &self.shared.symbols) as usize;
        }
        dropped_total
    }
}

/// Replay-side symbol check.  A symbol with no binding gets a unique
/// placeholder (`\u{1}` prefix keeps it out of any legal metric/label
/// namespace) and `true` is returned; series built from placeholders are
/// *doomed* — tolerated only if a later replayed drop removes them (see
/// [`Recovery::finish`]).
fn bind_hole(table: &mut SymbolTable, sym: SymbolId) -> bool {
    if table.resolve(sym).is_some() {
        return false;
    }
    let placeholder = format!("{REPLAY_HOLE_MARKER}wal-hole-{}", sym.as_u32());
    table.install_binding(sym.as_u32(), &placeholder);
    true
}

impl std::fmt::Debug for TimeSeriesDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeriesDb").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Block, FOOTER_BYTES};

    fn sample(timestamp_ms: u64, value: f64) -> Sample {
        Sample { timestamp_ms, value }
    }

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    /// Whether `handle` still addresses its series right now.
    fn is_live(db: &TimeSeriesDb, handle: SeriesHandle) -> bool {
        db.handle_live_under(handle, &db.shard_generations())
    }

    /// One sample through `handle`: a batch of one.
    fn append_one(db: &TimeSeriesDb, handle: SeriesHandle, ts: u64, value: f64) -> BatchOutcome {
        db.append_batch(&[(handle, ts, value)])
    }

    /// What [`append_one`] reports for a sample stored and for one rejected
    /// as out of order.
    const APPENDED: BatchOutcome = BatchOutcome { appended: 1, rejected: 0, stale: Vec::new() };
    const REJECTED: BatchOutcome = BatchOutcome { appended: 0, rejected: 1, stale: Vec::new() };

    #[test]
    fn append_creates_series_lazily() {
        let db = TimeSeriesDb::new();
        assert!(db.append("sgx_nr_free_pages", &labels(&[("node", "n1")]), 1_000, 24_000.0));
        assert!(db.append("sgx_nr_free_pages", &labels(&[("node", "n1")]), 2_000, 23_500.0));
        assert!(db.append("sgx_nr_free_pages", &labels(&[("node", "n2")]), 1_000, 24_064.0));
        assert_eq!(db.series_count(), 2);
        let stats = db.stats();
        assert_eq!(stats.series, 2);
        assert_eq!(stats.samples, 3);
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.rejected_samples, 0);
        assert_eq!(db.oldest_timestamp(), Some(1_000));
        assert_eq!(db.newest_timestamp(), Some(2_000));
        assert_eq!(TimeSeriesDb::new().oldest_timestamp(), None);
    }

    #[test]
    fn symbols_are_interned_once() {
        let db = TimeSeriesDb::new();
        for node in ["n1", "n2", "n3"] {
            for syscall in ["read", "write"] {
                db.append(
                    "teemon_syscalls_total",
                    &labels(&[("node", node), ("syscall", syscall)]),
                    1_000,
                    1.0,
                );
            }
        }
        // 1 metric name + 2 label keys + 3 node values + 2 syscall values.
        assert_eq!(db.stats().symbols, 8);
        assert_eq!(db.series_count(), 6);
    }

    #[test]
    fn out_of_order_rejection_is_counted() {
        let db = TimeSeriesDb::new();
        db.append("m", &Labels::new(), 5_000, 1.0);
        assert!(!db.append("m", &Labels::new(), 1_000, 2.0));
        assert_eq!(db.stats().rejected_samples, 1);
    }

    #[test]
    fn instant_and_range_queries() {
        let db = TimeSeriesDb::new();
        for t in 0..10u64 {
            db.append("syscalls_total", &labels(&[("syscall", "read")]), t * 1000, t as f64);
            db.append(
                "syscalls_total",
                &labels(&[("syscall", "clock_gettime")]),
                t * 1000,
                (t * 100) as f64,
            );
        }
        let selector = Selector::metric("syscalls_total");
        let instant = db.select(&selector);
        assert_eq!(instant.len(), 2);
        assert!(instant.iter().all(|r| r.at(4_500).unwrap().timestamp_ms == 4_000));

        let only_read = Selector::metric("syscalls_total").with_label("syscall", "read");
        let range = db.select(&only_read);
        assert_eq!(range.len(), 1);
        assert_eq!(range[0].points_in(2_000, 5_000).len(), 4);
        assert!(db.select(&Selector::metric("missing")).is_empty());
    }

    #[test]
    fn results_come_back_in_creation_order() {
        let db = TimeSeriesDb::new();
        let names: Vec<String> = (0..40).map(|i| format!("node-{i:02}")).collect();
        for (i, node) in names.iter().enumerate() {
            db.append("up", &labels(&[("node", node)]), 1_000 + i as u64, 1.0);
        }
        let snaps = db.select(&Selector::metric("up"));
        let got: Vec<&str> = snaps.iter().map(|r| r.label_value("node").unwrap()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(snaps.windows(2).all(|w| w[0].series_id() < w[1].series_id()));
    }

    #[test]
    fn inverted_index_answers_matchers() {
        let db = TimeSeriesDb::new();
        for node in ["n1", "n2"] {
            for syscall in ["read", "write", "futex"] {
                db.append(
                    "teemon_syscalls_total",
                    &labels(&[("node", node), ("syscall", syscall)]),
                    1_000,
                    1.0,
                );
            }
            db.append("sgx_nr_free_pages", &labels(&[("node", node)]), 1_000, 24_000.0);
        }
        // Equality postings.
        let eq = Selector::metric("teemon_syscalls_total").with_label("syscall", "read");
        assert_eq!(db.select(&eq).len(), 2);
        // Existence: only syscall series carry the label.
        let exists = Selector::all().with_label_present("syscall");
        assert_eq!(db.select(&exists).len(), 6);
        // Not-equals: label must exist and differ.
        let neq = Selector::all().without_label_value("syscall", "read");
        assert_eq!(db.select(&neq).len(), 4);
        // Not-equals against a value the db never saw degenerates to exists.
        let neq_unseen = Selector::all().without_label_value("syscall", "unseen");
        assert_eq!(db.select(&neq_unseen).len(), 6);
        // A never-interned name or label short-circuits to nothing.
        assert!(db.select(&Selector::metric("missing")).is_empty());
        assert!(db.select(&Selector::all().with_label("node", "n3")).is_empty());
        assert!(db.select(&Selector::all().with_label_present("pod")).is_empty());
    }

    #[test]
    fn snapshots_share_sealed_chunks() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 4, retention_ms: u64::MAX });
        for t in 0..10u64 {
            db.append("m", &Labels::new(), t * 1000, t as f64);
        }
        let a = &db.select(&Selector::metric("m"))[0];
        let b = &db.select(&Selector::metric("m"))[0];
        assert_eq!(a.len(), 10);
        assert_eq!(a.chunk_count(), 3, "two sealed chunks plus the head copy");
        assert_eq!(a.at(3_500).unwrap().value, 3.0);
        assert_eq!(a.points_in(2_000, 5_000).len(), 4);
        let range = a.range(2_000, u64::MAX);
        // Snapshots and ranges taken before later appends stay frozen.
        db.append("m", &Labels::new(), 20_000, 99.0);
        assert_eq!(a.len(), 10);
        assert_eq!(b.last_timestamp(), Some(9_000));
        let mut read = Vec::new();
        range.read_into(&mut read);
        let collected: Vec<u64> = read.iter().map(|s| s.timestamp_ms).collect();
        assert_eq!(collected, (2..10).map(|t| t * 1_000).collect::<Vec<_>>());
    }

    #[test]
    fn retention_respects_window() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 10, retention_ms: 5_000 });
        for t in 0..100u64 {
            db.append("m", &Labels::new(), t * 1000, t as f64);
        }
        let dropped = db.apply_retention();
        assert!(dropped > 50, "dropped {dropped}");
        // Recent data must survive.
        let m = &db.select(&Selector::metric("m"))[0];
        assert_eq!(m.points_in(95_000, 99_000).len(), 5);
        // The per-shard aggregates track the drop.
        let stats = db.stats();
        assert_eq!(stats.samples, 100 - dropped as u64);
        assert_eq!(db.oldest_timestamp(), m.first_timestamp());
    }

    #[test]
    fn compressed_and_raw_storage_answer_identically() {
        // The engine against plain vectors of what it was given: 107 samples
        // at 16 a chunk leave six sealed blocks and an open head of eleven —
        // a burst in its block, three in its tail.
        let compressed =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 16, retention_ms: u64::MAX });
        let node = labels(&[("node", "n1")]);
        let mut raw_counter: Vec<Sample> = Vec::new();
        let mut raw_gauge: Vec<Sample> = Vec::new();
        for t in 0..107u64 {
            let counter = Sample { timestamp_ms: t * 5_000, value: (t * 40) as f64 };
            let gauge = Sample { timestamp_ms: t * 5_000, value: (t as f64 * 0.37).sin() };
            assert!(compressed.append("counter_total", &node, counter.timestamp_ms, counter.value));
            assert!(compressed.append("gauge", &node, gauge.timestamp_ms, gauge.value));
            raw_counter.push(counter);
            raw_gauge.push(gauge);
        }
        for (name, b) in [("counter_total", &raw_counter), ("gauge", &raw_gauge)] {
            let range = |lo: u64, hi: u64| -> Vec<Sample> {
                b.iter().copied().filter(|s| (lo..=hi).contains(&s.timestamp_ms)).collect()
            };
            let at = |at: u64| b.iter().copied().rfind(|s| s.timestamp_ms <= at);
            let selector = Selector::metric(name);
            let a = &compressed.select(&selector)[0];
            assert_eq!(a.chunk_count(), 6 + 1, "the head joins as one more block");
            for (lo, hi) in [(0, u64::MAX), (17_000, 333_000), (490_000, 520_000)] {
                assert_eq!(a.points_in(lo, hi), range(lo, hi));
            }
            for t in [0, 4_999, 5_000, 123_456, 481_000, 515_000, 529_999, u64::MAX] {
                assert_eq!(a.at(t), at(t), "at {t}");
            }
            assert_eq!(a.at(u64::MAX), b.last().copied());
            // A range handle appends to what its buffer holds, and reads the
            // same again: inside one sealed chunk, across them, into the
            // head's block and past the newest sample.
            for (lo, hi) in [(0, u64::MAX), (17_000, 333_000), (42_000, 42_000), (600_000, 700_000)]
            {
                let handle = a.range(lo, hi);
                let held = Sample { timestamp_ms: 7, value: -7.0 };
                let mut read = vec![held];
                handle.read_into(&mut read);
                assert_eq!(read[1..], range(lo, hi));
                read.truncate(1);
                handle.read_into(&mut read);
                assert_eq!(read, [&[held][..], &range(lo, hi)].concat());
            }
        }
        // Identical logical contents, far fewer resident bytes.
        let c = compressed.stats();
        assert_eq!(c.samples, (raw_counter.len() + raw_gauge.len()) as u64);
        assert_eq!(c.chunks, 2 * 107u64.div_ceil(16));
        let raw_bytes = c.samples * SAMPLE_BYTES as u64;
        assert!(
            c.resident_bytes * 2 < raw_bytes,
            "compression saved too little: {} vs {raw_bytes}",
            c.resident_bytes,
        );
        assert!(c.bytes_per_sample() < 8.0, "{}", c.bytes_per_sample());
        assert_eq!(StorageStats::default().bytes_per_sample(), 0.0);
    }

    #[test]
    fn resident_bytes_track_retention() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 10, retention_ms: 20_000 });
        for t in 0..200u64 {
            db.append("m", &Labels::new(), t * 1_000, t as f64);
        }
        let before = db.stats();
        assert!(before.resident_bytes > 0);
        let dropped = db.apply_retention();
        assert!(dropped > 0);
        let after = db.stats();
        assert!(after.resident_bytes < before.resident_bytes);
        assert_eq!(after.samples, before.samples - dropped as u64);
        // The estimate stays consistent with what snapshots report.
        let snap_bytes: u64 =
            db.select(&Selector::all()).iter().map(|s| s.resident_bytes() as u64).sum();
        assert_eq!(after.resident_bytes, snap_bytes);
    }

    #[test]
    fn label_values_lists_distinct_values() {
        let db = TimeSeriesDb::new();
        for (proc_name, value) in [("redis-server", 1.0), ("nginx", 2.0), ("redis-server", 3.0)] {
            let ts = db.newest_timestamp().unwrap_or(0) + 1000;
            db.append("proc_cpu", &labels(&[("process", proc_name)]), ts, value);
        }
        // What a filter drop-down (the process filter of Figure 3) reads: the
        // label of every selected series, off the snapshots.
        let values_of = |label: &str| {
            let selected = db.select(&Selector::metric("proc_cpu"));
            let mut values: Vec<&str> =
                selected.iter().filter_map(|series| series.label_value(label)).collect();
            values.sort_unstable();
            values.dedup();
            values.into_iter().map(str::to_string).collect::<Vec<_>>()
        };
        assert_eq!(values_of("process"), vec!["nginx", "redis-server"]);
        assert!(values_of("missing").is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let db = TimeSeriesDb::new();
        let clone = db.clone();
        clone.append("m", &Labels::new(), 1, 1.0);
        assert_eq!(db.series_count(), 1);
    }

    #[test]
    fn handles_resolve_once_and_batch_append() {
        let db = TimeSeriesDb::new();
        let keys: Vec<(String, Labels)> = (0..64)
            .map(|i| (format!("metric_{}", i % 4), labels(&[("idx", &format!("{i}"))])))
            .collect();
        let handles: Vec<_> = keys.iter().map(|(n, l)| db.resolve(n, l)).collect();
        assert_eq!(db.series_count(), 64, "resolve creates series on first use");
        // Re-resolving returns the same handle.
        for ((n, l), h) in keys.iter().zip(&handles) {
            assert_eq!(db.resolve(n, l), *h);
            assert!(is_live(&db, *h));
        }

        let batch: Vec<(SeriesHandle, u64, f64)> =
            handles.iter().enumerate().map(|(i, &h)| (h, 1_000, i as f64)).collect();
        let outcome = db.append_batch(&batch);
        assert_eq!(outcome.appended, 64);
        assert_eq!(outcome.rejected, 0);
        assert!(outcome.stale.is_empty());

        // Batched contents equal per-sample contents.
        let other = TimeSeriesDb::new();
        for (i, (n, l)) in keys.iter().enumerate() {
            other.append(n, l, 1_000, i as f64);
        }
        assert_eq!(db.stats(), other.stats());
        let (a, b) = (db.select(&Selector::all()), other.select(&Selector::all()));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.to_labels(), y.to_labels());
            assert_eq!(x.points_in(0, u64::MAX), y.points_in(0, u64::MAX));
        }
    }

    #[test]
    fn batch_rejections_and_duplicate_handles_match_per_sample_semantics() {
        let db = TimeSeriesDb::new();
        let l = labels(&[("node", "n1")]);
        let h = db.resolve("m", &l);
        // In-order, duplicate-timestamp and out-of-order samples for the same
        // handle within one batch behave exactly like sequential appends.
        let outcome =
            db.append_batch(&[(h, 1_000, 1.0), (h, 1_000, 2.0), (h, 500, 3.0), (h, 2_000, 4.0)]);
        assert_eq!(outcome.appended, 3);
        assert_eq!(outcome.rejected, 1);
        assert_eq!(db.stats().rejected_samples, 1);
        let m = &db.select(&Selector::metric("m"))[0];
        let want = [sample(1_000, 1.0), sample(1_000, 2.0), sample(2_000, 4.0)];
        assert_eq!(m.points_in(0, u64::MAX), want);
        assert_eq!(append_one(&db, h, 2_500, 5.0), APPENDED);
        assert_eq!(append_one(&db, h, 100, 0.0), REJECTED);
    }

    /// Everything a store answers, as text — values as their bits — and
    /// every file of its durability directory, after a flush.
    fn state_of(db: &TimeSeriesDb, fs: &wal::FaultFs, dir: &Path) -> (String, Vec<Vec<u8>>) {
        use crate::wal::WalFs as _;
        assert!(db.wal_flush());
        let mut out = format!("{:?}\n", StorageStats { series_bytes: 0, ..db.stats() });
        for series in db.select(&Selector::all()).iter() {
            out += &format!("{} {}\n", series.name(), series.to_labels());
            for Sample { timestamp_ms, value } in series.points_in(0, u64::MAX) {
                out += &format!("  {timestamp_ms} {:016x}\n", value.to_bits());
            }
        }
        let mut paths = fs.list(dir).expect("list");
        paths.sort();
        (out, paths.iter().map(|path| fs.read(path).expect("read").expect("a file")).collect())
    }

    proptest::proptest! {
        /// A batch in any order — shards interleaved, a shard's series out
        /// of local order, one series more than once, some of its samples
        /// out of order — stores, stages and replays exactly what the same
        /// batch sorted by shard and local does, each series' samples in
        /// their order.
        #[test]
        fn a_batch_in_any_order_is_the_batch_sorted_by_local(
            len in 1usize..600,
            case in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::deterministic(&format!("batch-order-{case}"));
            let dir = Path::new("/order");
            let config = TsdbConfig { chunk_size: 5, ..TsdbConfig::default() };
            let stores: Vec<_> = (0..2)
                .map(|_| {
                    let fs = wal::FaultFs::new();
                    let options = DurabilityOptions {
                        fs: Arc::new(fs.clone()),
                        ..DurabilityOptions::default()
                    };
                    let db = TimeSeriesDb::open_with(dir, config.clone(), options).expect("open");
                    (db, fs)
                })
                .collect();
            let series = 1 + rng.below(80);
            let handles: Vec<Vec<SeriesHandle>> = stores
                .iter()
                .map(|(db, _)| {
                    (0..series).map(|i| db.resolve("m", &labels(&[("i", &i.to_string())]))).collect()
                })
                .collect();
            assert_eq!(handles[0], handles[1]);
            for round in 0..3u64 {
                let batch: Vec<(SeriesHandle, u64, f64)> = (0..len)
                    .map(|_| {
                        let handle = handles[0][rng.below(series) as usize];
                        let timestamp_ms = 1_000 * (3 * round + rng.below(4));
                        (handle, timestamp_ms, rng.below(1 << 20) as f64 / 4.0)
                    })
                    .collect();
                let mut sorted = batch.clone();
                sorted.sort_by_key(|(handle, ..)| (handle.shard, handle.local));
                let shuffled = stores[0].0.append_batch(&batch);
                let in_order = stores[1].0.append_batch(&sorted);
                assert_eq!(shuffled, in_order);
                assert!(shuffled.stale.is_empty());
            }
            let states: Vec<_> = stores.iter().map(|(db, fs)| state_of(db, fs, dir)).collect();
            assert_eq!(states[0], states[1]);
            for (db, fs) in stores {
                drop(db);
                let options =
                    DurabilityOptions { fs: Arc::new(fs.clone()), ..DurabilityOptions::default() };
                let reopened = TimeSeriesDb::open_with(dir, config.clone(), options).expect("reopen");
                assert_eq!(state_of(&reopened, &fs, dir).0, states[1].0);
            }
        }
    }

    #[test]
    fn drop_series_invalidates_handles_and_index() {
        let db = TimeSeriesDb::new();
        let keep = labels(&[("node", "n1")]);
        let drop = labels(&[("node", "n2")]);
        let h_keep = db.resolve("m", &keep);
        let h_drop = db.resolve("m", &drop);
        append_one(&db, h_keep, 1_000, 1.0);
        append_one(&db, h_drop, 1_000, 2.0);

        assert_eq!(db.drop_series(&Selector::metric("m").with_label("node", "n2")), 1);
        assert_eq!(db.series_count(), 1);
        assert!(db.select(&Selector::all().with_label("node", "n2")).is_empty());
        let stats = db.stats();
        assert_eq!((stats.series, stats.samples, stats.chunks), (1, 1, 1));

        // Both handles lived in some shard; any handle into a rebuilt shard
        // is stale now — appending through it must never hit another series.
        let generations = db.shard_generations();
        for (h, key) in [(h_keep, &keep), (h_drop, &drop)] {
            if db.handle_live_under(h, &generations) {
                assert_eq!(append_one(&db, h, 2_000, 9.0), APPENDED);
            } else {
                assert!(!is_live(&db, h));
                assert_eq!(append_one(&db, h, 2_000, 9.0).stale, [0]);
                // Re-resolving repairs the fast lane.
                let fresh = db.resolve("m", key);
                assert_eq!(append_one(&db, fresh, 2_000, 9.0), APPENDED);
            }
        }
        // Nothing about n2's old data leaked into n1.
        let n1 = &db.select(&Selector::metric("m").with_label("node", "n1"))[0];
        assert_eq!(n1.points_in(0, u64::MAX).first(), Some(&sample(1_000, 1.0)));
        assert_eq!(db.drop_series(&Selector::metric("missing")), 0);
    }

    #[test]
    fn batch_reports_stale_handles_mid_round() {
        let db = TimeSeriesDb::new();
        let a = db.resolve("m", &labels(&[("node", "n1")]));
        let b = db.resolve("gone", &labels(&[("node", "n1")]));
        db.append_batch(&[(a, 1_000, 1.0), (b, 1_000, 1.0)]);
        // The drop lands between two rounds of a cached scraper: the cache
        // still holds handles resolved under the old generation.
        db.drop_series(&Selector::metric("gone"));
        let outcome = db.append_batch(&[(a, 2_000, 2.0), (b, 2_000, 2.0)]);
        let fresh_appends = outcome.appended;
        // Every input either appended or came back stale — none vanished and
        // none was misrouted into a surviving series.
        assert_eq!(fresh_appends as usize + outcome.stale.len(), 2);
        for &idx in &outcome.stale {
            let (_, ts, v) = [(a, 2_000u64, 2.0f64), (b, 2_000, 2.0)][idx];
            let key = if idx == 0 { "m" } else { "gone" };
            let fresh = db.resolve(key, &labels(&[("node", "n1")]));
            assert_eq!(append_one(&db, fresh, ts, v), APPENDED);
        }
        let m = &db.select(&Selector::metric("m"))[0];
        let m = m.points_in(0, u64::MAX);
        assert_eq!(m, [sample(1_000, 1.0), sample(2_000, 2.0)], "no lost samples for m");
        let gone = &db.select(&Selector::metric("gone"))[0];
        assert_eq!(
            gone.points_in(0, u64::MAX),
            [sample(2_000, 2.0)],
            "re-resolved series got the new sample"
        );
    }

    #[test]
    fn a_handle_outside_every_shard_is_reported_stale() {
        let db = TimeSeriesDb::new();
        let live = db.resolve("m", &labels(&[("node", "n1")]));
        let never = SeriesHandle::unresolved();
        let outcome =
            db.append_batch(&[(never, 1_000, 1.0), (live, 1_000, 2.0), (never, 2_000, 3.0)]);
        assert_eq!(outcome, BatchOutcome { appended: 1, rejected: 0, stale: vec![0, 2] });
        assert_eq!(db.stats().samples, 1);
    }

    #[test]
    fn retention_evicts_fully_aged_series() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 4, retention_ms: 10_000 });
        let dead = labels(&[("node", "old")]);
        let live = labels(&[("node", "new")]);
        let dead_handle = db.resolve("m", &dead);
        for t in 0..8u64 {
            append_one(&db, dead_handle, t * 1_000, 1.0);
        }
        for t in 0..40u64 {
            db.append("m", &live, t * 1_000, 2.0);
        }
        let dropped = db.apply_retention();
        assert!(dropped > 0);
        // The dead series aged out entirely: evicted from storage and index.
        assert_eq!(db.series_count(), 1);
        assert!(db.select(&Selector::all().with_label("node", "old")).is_empty());
        assert_eq!(db.stats().series, 1);
        assert_eq!(append_one(&db, dead_handle, 50_000, 1.0).stale, [0]);
        // The survivor still answers, and its creation-order id is retained.
        let results = db.select(&Selector::metric("m"));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].label_value("node"), Some("new"));
        // A re-resolved key gets a fresh series (new id, empty history).
        let reborn = db.resolve("m", &dead);
        assert_eq!(append_one(&db, reborn, 60_000, 3.0), APPENDED);
        assert_eq!(db.series_count(), 2);
    }

    /// Labels that put series `name` into lock shard `shard`.
    fn labels_in_shard(name: &str, shard: usize) -> Labels {
        (0..)
            .map(|i| labels(&[("probe", &format!("{i}"))]))
            .find(|l| shard_of(series_key_hash(name, l)) == shard)
            .expect("some label value hashes into every shard")
    }

    /// `(samples held, samples in the tail, block capacity)` of the head
    /// behind `handle`, `None` when the series has none.
    fn head_of(db: &TimeSeriesDb, handle: SeriesHandle) -> Option<(usize, usize, usize)> {
        let inner = db.shared.shard(handle.shard as usize).read();
        let head = inner.series_at(handle.local).head.as_deref()?;
        Some((head.len(), head.tail().len(), head.block_buffer().1))
    }

    /// The largest burst any [`crate::chunk_codec::BlockEncoder::push`] on
    /// this thread took since the last call.
    fn largest_burst() -> usize {
        crate::chunk_codec::PUSHED.with(|pushed| pushed.borrow_mut().drain(..).max().unwrap_or(0))
    }

    #[test]
    fn heads_grow_with_their_samples_and_keep_the_buffer_after_a_seal() {
        // A counter's block is an integer one, 2 bits a sample at a steady
        // rate: its first bursts fit the initial 32 bytes and the chunk 64.
        // A gauge moving in halves is an XOR block: its first burst fits the
        // 32 bytes too, and the chunk outgrows them eightfold.
        head_grows_and_keeps_its_buffer(|t| (5_000 + t * 17) as f64, &[0, 32, 64]);
        head_grows_and_keeps_its_buffer(|t| t as f64 * 0.5, &[0, 32, 64, 128, 256]);

        // A chunk shorter than the tail seals without a burst before it.
        let small =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 3, ..TsdbConfig::default() });
        let h = small.resolve("m", &Labels::new());
        append_one(&small, h, 0, 1.0);
        append_one(&small, h, 1, 1.0);
        assert_eq!(head_of(&small, h), Some((2, 2, 0)), "two samples are two stores");
        append_one(&small, h, 2, 1.0);
        assert_eq!(head_of(&small, h), Some((0, 0, 32)));
        assert_eq!(largest_burst(), 3);
    }

    fn head_grows_and_keeps_its_buffer(value: fn(u64) -> f64, expected_capacities: &[usize]) {
        let db = TimeSeriesDb::new(); // chunk_size 120
        let h = db.resolve("m", &Labels::new());
        assert_eq!(head_of(&db, h), Some((0, 0, 0)), "a resolved series holds no buffer yet");
        largest_burst();
        let mut capacities = Vec::new();
        for t in 0..119u64 {
            append_one(&db, h, t * 5_000, value(t));
            let (len, tail, capacity) = head_of(&db, h).expect("an open head");
            assert_eq!((len, tail), (t as usize + 1, (t as usize + 1) % 8), "bursts of eight");
            let inner = db.shared.shard(h.shard as usize).read();
            let (in_use, _) =
                inner.series_at(h.local).head.as_deref().expect("an open head").block_buffer();
            assert!(capacity <= (2 * in_use).max(32), "{capacity} B held for {in_use} B in use");
            assert_eq!(inner.head_bytes, (in_use + tail * SAMPLE_BYTES) as u64);
            assert_eq!(inner.head_bytes, inner.bytes, "nothing is sealed yet");
            if capacities.last() != Some(&capacity) {
                capacities.push(capacity);
            }
        }
        // No buffer before the first burst.
        assert_eq!(capacities, expected_capacities);
        assert_eq!(largest_burst(), 8, "no append encodes more than a tail");
        // The seal encodes the seven samples the tail held and the 120th,
        // copies the block out and keeps the buffer.
        append_one(&db, h, 119 * 5_000, value(119));
        assert_eq!(largest_burst(), 8);
        let kept = *expected_capacities.last().expect("a buffer");
        assert_eq!(
            head_of(&db, h),
            Some((0, 0, kept)),
            "a full seal empties the head, not its buffer"
        );
        let snapshot = &db.select(&Selector::metric("m"))[0];
        assert_eq!((snapshot.chunk_count(), snapshot.len()), (1, 120));
        let stats = db.stats();
        assert_eq!(stats.resident_bytes, snapshot.resident_bytes() as u64);
        assert_eq!(db.shared.shard(h.shard as usize).read().head_bytes, 0);
    }

    #[test]
    fn stale_heads_are_sealed_released_and_revive_small() {
        const MINUTE: u64 = 60_000;
        let db =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 120, retention_ms: 20 * MINUTE });
        let idle = db.resolve("idle", &Labels::new());
        let live = db.resolve("live", &labels_in_shard("live", idle.shard as usize));
        assert_eq!(live.shard, idle.shard, "staleness is judged against the shard's own newest");
        for t in 0..17u64 {
            append_one(&db, idle, t * 1_000, t as f64);
            append_one(&db, live, t * 1_000, 1.0);
        }
        let idle_end = 16_000;
        let head_bytes = |db: &TimeSeriesDb| db.shared.shard(idle.shard as usize).read().head_bytes;
        let idle_head = {
            let inner = db.shared.shard(idle.shard as usize).read();
            inner.series_at(idle.local).head_resident_bytes() as usize
        };
        assert!(idle_head < 17 * SAMPLE_BYTES, "two bursts are already a block");

        // Exactly the lookback behind is not yet *more than* it: nothing moves.
        append_one(&db, live, idle_end + STALE_HEAD_MS, 1.0);
        let before = db.stats();
        let sealed_before = probes::STALE_HEADS_SEALED.get();
        assert_eq!(db.apply_retention(), 0);
        assert_eq!(db.stats(), before);
        assert_eq!(head_of(&db, idle), Some((17, 1, 32)));

        // One millisecond later the idle head is sealed and its buffer
        // released; the live one is untouched.  No sample, chunk or series
        // count moves, and the ledger swaps the head's tail and block for
        // the exact-sized block of all seventeen.
        append_one(&db, live, idle_end + STALE_HEAD_MS + 1, 1.0);
        let before = db.stats();
        let heads_before = head_bytes(&db);
        assert_eq!(db.apply_retention(), 0);
        assert!(probes::STALE_HEADS_SEALED.get() > sealed_before);
        assert_eq!(head_of(&db, idle), None, "the head is gone, record and buffer");
        assert_eq!(head_of(&db, live), Some((19, 3, 32)));
        assert_eq!(head_bytes(&db), heads_before - idle_head as u64);
        let after = db.stats();
        let snapshot = &db.select(&Selector::metric("idle"))[0];
        assert_eq!((snapshot.len(), snapshot.chunk_count()), (17, 1));
        assert_eq!(
            after.resident_bytes,
            before.resident_bytes - idle_head as u64 + snapshot.resident_bytes() as u64
        );
        assert!(snapshot.resident_bytes() < idle_head);
        // The records swap a head for a list of one block of one chunk.
        let list = one_chunk_list();
        assert_eq!(after.series_bytes, before.series_bytes - size_of::<Head>() as u64 + list);
        assert_eq!(
            StorageStats { resident_bytes: 0, series_bytes: 0, ..after },
            StorageStats { resident_bytes: 0, series_bytes: 0, ..before }
        );
        assert_eq!(db.apply_retention(), 0, "a second pass finds nothing left to seal");
        assert_eq!(db.stats(), after);
        assert!(is_live(&db, idle), "sealing a head moves no series");

        // A revival is checked against the sealed chunk's end and is a store
        // into the tail of a new chunk: no buffer until a burst needs one.
        assert_eq!(append_one(&db, idle, idle_end - 1, 0.0), REJECTED);
        assert_eq!(append_one(&db, idle, idle_end, 17.0), APPENDED);
        assert_eq!(head_of(&db, idle), Some((1, 1, 0)));
        let revived = db.stats();
        assert_eq!(revived.chunks, after.chunks + 1);
        assert_eq!(revived.resident_bytes, after.resident_bytes + SAMPLE_BYTES as u64);
        let idle_series = &db.select(&Selector::metric("idle"))[0];
        assert_eq!(idle_series.len(), 18);
        assert_eq!(idle_series.at(u64::MAX), Some(sample(idle_end, 17.0)));

        // Eviction is what it was: one retention window after the last sample.
        append_one(&db, live, idle_end + 20 * MINUTE, 1.0);
        db.apply_retention();
        assert!(is_live(&db, idle), "the newest idle sample is exactly at the cutoff");
        append_one(&db, live, idle_end + 20 * MINUTE + 1, 1.0);
        assert_eq!(db.apply_retention(), 18, "the sealed 17 and the revived one");
        assert!(!is_live(&db, idle));
        assert!(db.select(&Selector::metric("idle")).is_empty());
    }

    #[test]
    fn an_empty_stale_head_just_releases_its_buffer() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 8, retention_ms: u64::MAX });
        let full = db.resolve("full", &Labels::new());
        let short = db.resolve("short", &labels_in_shard("short", full.shard as usize));
        let live = db.resolve("live", &labels_in_shard("live", full.shard as usize));
        for t in 0..8u64 {
            append_one(&db, full, t, 1.0);
        }
        append_one(&db, short, 7, 1.0);
        assert_eq!(head_of(&db, full), Some((0, 0, 32)));
        assert_eq!(head_of(&db, short), Some((1, 1, 0)));
        append_one(&db, live, 8 + STALE_HEAD_MS, 1.0);
        let before = db.stats();
        let sealed_before = probes::STALE_HEADS_SEALED.get();
        db.apply_retention();
        assert_eq!(head_of(&db, full), None);
        assert_eq!(head_of(&db, short), None);
        // A lone sample of 1 is one byte as a block (a 7-bit value, no
        // timestamp) where it was 16 in the tail, and an empty head's buffer
        // was never in the ledger: nothing else moves.  The records lose two
        // heads and gain `short`'s list of one block of one chunk.
        let after = db.stats();
        let resident_bytes = before.resident_bytes - 16 + 1;
        assert_eq!(
            after,
            StorageStats { series_bytes: after.series_bytes, resident_bytes, ..before }
        );
        assert_eq!(
            after.series_bytes + 2 * size_of::<Head>() as u64,
            before.series_bytes + one_chunk_list()
        );
        assert_eq!(
            db.select(&Selector::metric("short"))[0].points_in(0, u64::MAX),
            [sample(7, 1.0)]
        );
        assert!(probes::STALE_HEADS_SEALED.get() > sealed_before, "`short` was sealed");
        // The next head starts like a new series': a store, then a buffer.
        append_one(&db, full, 8 + STALE_HEAD_MS, 1.0);
        assert_eq!(head_of(&db, full), Some((1, 1, 0)));
    }

    #[test]
    fn retention_spares_resolved_but_never_appended_series() {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 4, retention_ms: 5_000 });
        db.append("old", &Labels::new(), 1_000, 1.0);
        db.append("old", &Labels::new(), 100_000, 1.0);
        // Resolved (e.g. by a scrape cache mid-build) but not yet written.
        let pending = db.resolve("pending", &labels(&[("node", "n1")]));
        db.apply_retention();
        // The empty-but-new series survives and its handle stays live — a
        // maintenance pass between resolve and first append must not
        // invalidate every handle in the shard.
        assert!(is_live(&db, pending));
        assert_eq!(append_one(&db, pending, 100_000, 2.0), APPENDED);
        assert_eq!(db.series_count(), 2);
    }

    /// Every shard's ledger — the seven aggregates the append path keeps
    /// incrementally and the cold paths recount — against a fold over its
    /// series, one aggregate at a time.
    fn assert_ledger(db: &TimeSeriesDb, when: &str) {
        for (index, shard) in db.shared.shards.iter().enumerate() {
            let inner = shard.read();
            let series = &inner.series;
            let sum = |of: fn(&MemSeries) -> u64| series.iter().map(of).sum::<u64>();
            let folded = (
                sum(MemSeries::sample_count),
                sum(MemSeries::chunk_total),
                sum(MemSeries::resident_bytes),
                sum(MemSeries::head_resident_bytes),
                sum(MemSeries::boxes_bytes),
                series.iter().filter_map(MemSeries::first_timestamp).min(),
                series.iter().filter_map(MemSeries::last_timestamp).max(),
            );
            let kept = (
                inner.samples,
                inner.chunks,
                inner.bytes,
                inner.head_bytes,
                inner.boxes_bytes,
                inner.min_ts,
                inner.max_ts,
            );
            assert_eq!(kept, folded, "shard {index}, {when}");
        }
    }

    proptest::proptest! {
        /// The ledger is the fold over each shard's series after every step
        /// of a generated schedule: by-key and batched appends (out of order,
        /// sealing across blocks under held readers, through stale handles),
        /// clock jumps, stale-head and evicting retention passes, drops, and
        /// a checkpoint and reopen on a [`wal::FaultFs`].
        #[test]
        fn the_ledger_is_a_fold_over_the_series_after_every_step(case in 0u64..u64::MAX) {
            const MINUTE: u64 = 60_000;
            let mut rng = proptest::TestRng::deterministic(&format!("ledger-{case}"));
            let (dir, fs) = (Path::new("/ledger"), wal::FaultFs::new());
            // Chunks shorter than the head's tail, of one burst and of two.
            let chunk_size = [4u64, 9, 17][rng.below(3) as usize];
            let config = TsdbConfig { chunk_size: chunk_size as usize, retention_ms: 10 * MINUTE };
            // A small checkpoint budget: most flushes snapshot a shard, so a
            // reopen restores snapshots and replays the records behind them.
            let open = || {
                let fs = Arc::new(fs.clone());
                let options = DurabilityOptions { segment_bytes: 1 << 10, fs, ..Default::default() };
                TimeSeriesDb::open_with(dir, config.clone(), options).expect("open")
            };
            let totals = |db: &TimeSeriesDb| {
                let stats = StorageStats { series_bytes: 0, ..db.stats() };
                (stats, db.oldest_timestamp(), db.newest_timestamp())
            };
            // Four series in each of two shards, so the stale-head rule has
            // neighbours to judge by; a drop takes a name, one in each.
            let name = |i: usize| format!("m{}", i % 4);
            let keys: Vec<(String, Labels)> =
                (0..8).map(|i| (name(i), labels_in_shard(&name(i), i / 4))).collect();
            let (mut db, mut handles, mut held, mut now) = (open(), Vec::new(), Vec::new(), 0u64);
            for step in 0..20 + rng.below(200) {
                if handles.is_empty() {
                    handles = keys.iter().map(|(name, labels)| db.resolve(name, labels)).collect();
                }
                let value = rng.below(1_000) as f64 + if rng.below(2) == 0 { 0.5 } else { 0.0 };
                let what = match rng.below(13) {
                    0..=2 => {
                        let (name, labels) = &keys[rng.below(8) as usize];
                        db.append(name, labels, now.saturating_sub(rng.below(3) * 1_000), value);
                        "a by-key append"
                    }
                    3..=5 => {
                        // A burst for one series, long enough at times to
                        // seal into a second block, or samples strewn over
                        // all of them; some out of order.
                        let burst = (rng.below(2) == 0).then(|| rng.below(8) as usize);
                        let len = 1 + rng.below(if burst.is_some() { 20 * chunk_size } else { 40 });
                        let entries: Vec<(usize, u64, f64)> = (0..len)
                            .map(|j| {
                                let key = burst.unwrap_or_else(|| rng.below(8) as usize);
                                let ts = (now + 100 * j).saturating_sub(rng.below(2) * 2_000);
                                (key, ts, value + j as f64)
                            })
                            .collect();
                        now += 100 * len;
                        let batch: Vec<_> =
                            entries.iter().map(|&(key, ts, v)| (handles[key], ts, v)).collect();
                        // Stale entries the way the scraper repairs them.
                        for index in db.append_batch(&batch).stale {
                            let (key, ts, v) = entries[index];
                            let (name, labels) = &keys[key];
                            db.append(name, labels, ts, v);
                            handles[key] = db.resolve(name, labels);
                        }
                        "a batch"
                    }
                    6 | 7 => {
                        now += rng.below(8 * MINUTE);
                        "a clock jump"
                    }
                    8 | 9 => {
                        db.apply_retention();
                        "a retention pass"
                    }
                    10 => {
                        db.drop_series(&Selector::metric(name(rng.below(4) as usize)));
                        "a drop"
                    }
                    11 => {
                        // Seals under a reader build the list again.
                        held.push(db.select(&Selector::all()));
                        "a held selection"
                    }
                    _ => {
                        assert!(db.wal_flush());
                        let live = totals(&db);
                        drop(db);
                        db = open();
                        assert_eq!(totals(&db), live, "step {step}: the reopened copy");
                        handles.clear();
                        "a checkpoint and reopen"
                    }
                };
                now += rng.below(5_000);
                assert_ledger(&db, &format!("step {step}, after {what}"));
            }
        }
    }

    /// What a series' sealed chunks hold beside a lone chunk's payload: a
    /// list of one slot, and a block of one footer, each behind its two
    /// reference counts, and the block's count byte.
    fn one_chunk_list() -> u64 {
        (2 * size_of::<usize>() + size_of::<Block>() + 2 * size_of::<usize>() + 1 + FOOTER_BYTES)
            as u64
    }

    #[test]
    fn a_series_record_stays_small() {
        // The array element, which a shard's doubling slack multiplies: the
        // key as symbols and its hash, the sealed list, one pointer to the
        // head and the append's three facts about it.  A string form of the
        // key, an inline head or a second index slot would show here.
        assert!(size_of::<MemSeries>() <= 72, "{} B a series record", size_of::<MemSeries>());
        assert_eq!(size_of::<Head>(), 216, "what a series being written holds behind it");
        // A sealed chunk's footer: start, end, count, payload end, kind.
        assert_eq!(FOOTER_BYTES, 25);
        assert_eq!(one_chunk_list(), 32 + 42);
    }

    /// Creates `name{labels}` in shard 0 filed under `key_hash`, whatever its
    /// key really hashes to — what a 64-bit collision looks like to the shard.
    fn push_with_hash(db: &TimeSeriesDb, key_hash: u64, name: &str, labels: &Labels) -> u32 {
        let mut symbols = db.shared.symbols.write();
        let name_sym = symbols.intern_acquire(name);
        let label_syms: Vec<_> = labels
            .iter()
            .map(|(k, v)| (symbols.intern_acquire(k), symbols.intern_acquire(v)))
            .collect();
        drop(symbols);
        let id = SeriesId(db.shared.next_id.fetch_add(1, Ordering::Relaxed));
        db.shared.shard(0).write().push_series(MemSeries::new(id, key_hash, name_sym, label_syms))
    }

    #[test]
    fn keys_that_collide_on_their_hash_stay_two_series() {
        const HASH: u64 = 0xC0_111D_E000;
        let keys = [("a_total", labels(&[("pod", "p-1")])), ("a_total", labels(&[("pod", "p-2")]))];
        let stranger = labels(&[("pod", "p-3")]);
        let find = |db: &TimeSeriesDb, (name, labels): &(&str, Labels)| {
            db.shared.shard(0).read().find(HASH, name, labels, &db.shared.symbols)
        };
        let points = |db: &TimeSeriesDb, pod: &str| -> Vec<Sample> {
            let selected = db.select(&Selector::metric("a_total").with_label("pod", pod));
            assert!(selected.len() <= 1, "{pod} selected {} series", selected.len());
            selected.first().map_or_else(Vec::new, |s| {
                assert_eq!(s.label_value("pod"), Some(pod));
                s.points_in(0, u64::MAX)
            })
        };
        // Either may be the one the index holds and the other the overflow.
        for order in [[0, 1], [1, 0]] {
            let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 4, retention_ms: 10_000 });
            let [first, second] = order.map(|i| &keys[i]);
            let locals = [first, second].map(|(name, l)| push_with_hash(&db, HASH, name, l));
            assert_eq!(locals, [0, 1]);
            let check_both = |db: &TimeSeriesDb| {
                assert_eq!(find(db, first), Some(0));
                assert_eq!(find(db, second), Some(1));
                assert_eq!(find(db, &("a_total", stranger.clone())), None, "same hash, no series");
                assert_eq!(db.shared.shard(0).read().collided, [1]);
            };
            check_both(&db);

            // Appends land in the series they name.
            {
                let mut inner = db.shared.shard(0).write();
                assert!(inner.append(0, Sample { timestamp_ms: 1_000, value: 1.0 }, 4));
                assert!(inner.append(1, Sample { timestamp_ms: 50_000, value: 2.0 }, 4));
                inner.reindex();
            }
            check_both(&db);
            let [first_pod, second_pod] = order.map(|i| ["p-1", "p-2"][i]);
            assert_eq!(points(&db, first_pod), [sample(1_000, 1.0)]);
            assert_eq!(points(&db, second_pod), [sample(50_000, 2.0)]);

            // Retention evicts the aged one; the other is now the first — and
            // only — series under the hash.
            assert_eq!(db.apply_retention(), 1);
            assert_eq!(find(&db, first), None);
            assert_eq!(find(&db, second), Some(0));
            assert!(db.shared.shard(0).read().collided.is_empty());
            assert_eq!(points(&db, first_pod), []);
            assert_eq!(points(&db, second_pod), [sample(50_000, 2.0)]);

            // A drop of the one the index held leaves the overflow series
            // standing, and the other way round.
            for victim in [0u32, 1] {
                let db = TimeSeriesDb::new();
                for (name, l) in [first, second] {
                    push_with_hash(&db, HASH, name, l);
                }
                db.shared.shard(0).write().remove_locals(&[victim], &db.shared.symbols);
                let [gone, kept] = if victim == 0 { [first, second] } else { [second, first] };
                assert_eq!(find(&db, gone), None);
                assert_eq!(find(&db, kept), Some(0));
                assert_eq!(db.series_count(), 1);
            }
        }
    }

    /// Two shard locks may be held at once only inside an ordered section,
    /// in ascending instance order; the lock audit panics on any other
    /// nesting, whether the second lock is taken in the same function or in
    /// a callee.
    #[cfg(lock_audit)]
    #[test]
    fn shard_locks_nest_only_inside_an_ordered_section() {
        let shared = DbShared::default();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _first = shared.shard(0).read();
            let _second = shared.shard(1).read();
        }))
        .expect_err("two shard locks outside an ordered section must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("outside an ordered section"), "unexpected message: {msg}");

        let _section = parking_lot::audit::ordered_section();
        let guards: Vec<_> = (0..SHARD_COUNT).map(|i| shared.shard(i).write()).collect();
        assert_eq!(guards.len(), SHARD_COUNT);
    }
}
