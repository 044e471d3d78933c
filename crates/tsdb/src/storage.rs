//! The storage engine: interned series keys, an inverted label index, sharded
//! locks and zero-copy reads.
//!
//! Layout:
//!
//! * one shared symbol table interns every metric name, label key and label
//!   value once,
//! * series are spread over [`SHARD_COUNT`] lock shards by series-key hash,
//!   so concurrent scrapers append without serialising on one lock,
//! * each shard keeps a postings index (name and `(label, value)` →
//!   series) and cheap aggregates (sample/chunk/rejection counts, min/max
//!   timestamp), so selection and [`TimeSeriesDb::stats`] never scan series,
//! * the append hot path resolves an existing series by hashing the borrowed
//!   `(&str, &Labels)` key directly — no `String` or `Labels` clone, no
//!   allocation at all,
//! * reads hand out [`SeriesSnapshot`]s: sealed chunks are `Arc`-shared, only
//!   the open head chunk (at most `chunk_size` samples) is copied,
//! * sealed chunks are Gorilla-compressed ([`crate::chunk_codec`]): the open
//!   head stays a plain `Vec<Sample>` so the append hot path is untouched,
//!   and when the head fills it is encoded once into a delta-of-delta /
//!   XOR-float block that snapshots decode *streamingly* at read time.  The
//!   per-shard `bytes` aggregate tracks the resident footprint, surfaced as
//!   [`StorageStats::resident_bytes`] / [`StorageStats::bytes_per_sample`],
//! * the heap holds what that ledger counts: a head has no capacity until
//!   its first sample and doubles 4 → 8 → … → `chunk_size` with what it
//!   holds; a seal encodes into a per-shard scratch and stores the block as
//!   one exact-sized allocation, keeping the head's buffer for the next
//!   chunk; and a retention pass seals the head of any series that has gone
//!   [`STALE_HEAD_MS`] without a sample and releases its buffer, so a
//!   churned series stops costing an uncompressed, mostly empty head,
//! * the **ingest fast lane**: [`TimeSeriesDb::resolve`] turns a series key
//!   into a cheap [`SeriesHandle`] once, and
//!   [`TimeSeriesDb::append_batch`] appends a whole scrape round of
//!   `(handle, timestamp, value)` samples taking each shard lock **once per
//!   round** instead of once per sample.  Handles carry the owning shard's
//!   generation: series eviction ([`TimeSeriesDb::apply_retention`] dropping
//!   fully-aged series, [`TimeSeriesDb::drop_series`]) bumps the generation,
//!   so a stale handle is reported back for re-resolution instead of ever
//!   writing to the wrong series.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, RwLock, RwLockWriteGuard};
use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_obs::{probes, Stopwatch};

use crate::index::{Candidates, Postings, SelectorPlan};
use crate::query::{QueryResult, Selector};
use crate::series::{at_in_chunks, sample_at, Chunk, Sample, SeriesId, SAMPLE_BYTES};
use crate::snapshot::SeriesSnapshot;
use crate::symbols::{SymbolId, SymbolTable, REPLAY_HOLE_MARKER};
use crate::wal::{self, DurabilityOptions, Wal};

/// Number of lock shards.  A power of two so the shard of a key hash is a
/// mask, sized for "more shards than scraper threads" on typical hosts.
pub const SHARD_COUNT: usize = 16;

// The per-shard telemetry slots in `teemon_obs` are sized statically (obs
// sits *below* this crate in the dependency graph, so it cannot read
// `SHARD_COUNT` itself); fail the build if the two ever drift.
const _: () =
    assert!(probes::SHARDS == SHARD_COUNT, "teemon_obs::SHARDS must equal the storage shard count");

/// Samples a series' first head buffer holds; it doubles from here up to
/// `chunk_size` (see `MemSeries::append`).
const HEAD_INITIAL_SAMPLES: usize = 4;

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
    /// Keep sealed chunks as raw samples instead of Gorilla-compressing them
    /// (see [`crate::chunk_codec`]).  Off by default; the raw mode exists as
    /// an escape hatch and as the like-for-like baseline in the benches.
    #[serde(default)]
    pub raw_chunks: bool,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self { chunk_size: 120, retention_ms: 24 * 60 * 60 * 1000, raw_chunks: false }
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
    /// one allocation of exactly that size) plus 16 bytes per unsealed head
    /// sample (a head's buffer is at most twice what it holds inside a
    /// series' first chunk, `chunk_size` samples after it, and nothing once
    /// the series has gone stale).  Maintained incrementally per shard
    /// (appends, seals, retention), so reading it never scans storage.
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
    /// Estimated bytes held by the per-shard postings indexes, maintained
    /// incrementally on register/rebuild.
    #[serde(default)]
    pub index_bytes: u64,
}

impl StorageStats {
    /// Average resident bytes per stored sample (`0.0` when empty) — the
    /// headline compression number; raw samples cost 16 bytes each.
    pub fn bytes_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.samples as f64
        }
    }

    /// Total estimated footprint: sample storage + symbol table + postings
    /// indexes.  `resident_bytes` alone under-reports real memory under
    /// high cardinality, where keys and postings dominate — this is the
    /// number the cardinality soak asserts a plateau on.
    pub fn total_bytes(&self) -> u64 {
        self.resident_bytes + self.symbol_bytes + self.index_bytes
    }
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
/// are reported back (never silently redirected), and the holder re-resolves
/// by key — see [`BatchOutcome::stale`] and [`HandleAppend::Stale`].
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

/// What one handle-addressed append did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandleAppend {
    /// The sample was stored.
    Appended,
    /// The sample was out of order and rejected (counted in
    /// [`StorageStats::rejected_samples`]).
    Rejected,
    /// The handle's shard generation has moved on (series were evicted or
    /// dropped); nothing was written.  Re-resolve the key with
    /// [`TimeSeriesDb::resolve`] and retry.
    Stale,
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

/// One stored series: interned key, resolved key strings (shared with the
/// symbol table) and chunked samples — sealed immutable chunks behind `Arc`
/// plus the open head.
struct MemSeries {
    id: SeriesId,
    name: Arc<str>,
    name_sym: SymbolId,
    labels: Arc<[(Arc<str>, Arc<str>)]>,
    label_syms: Box<[(SymbolId, SymbolId)]>,
    sealed: Vec<Arc<Chunk>>,
    head: Vec<Sample>,
    /// `true` once any sample was stored.  Guards retention eviction: a
    /// freshly resolved series that has not seen its first append yet is
    /// *new*, not *fully aged* — evicting it would pointlessly invalidate
    /// every handle in the shard.
    ever_appended: bool,
}

/// What one append did, so the shard can maintain its aggregates.
enum Appended {
    Rejected,
    Accepted {
        /// The head chunk went from empty to non-empty (a new chunk exists).
        opened_chunk: bool,
        /// Set when the append filled the head and sealed it.
        sealed: Option<Sealed>,
    },
}

/// What sealing a head did to the resident footprint.
struct Sealed {
    /// Head samples the chunk took over (16 raw bytes each).
    samples: usize,
    /// The sealed chunk's payload size (compressed unless `raw_chunks`).
    bytes: usize,
}

impl Sealed {
    /// `shard_bytes` with the head's raw samples replaced by the (usually
    /// smaller) block.
    fn fold_into(self, shard_bytes: u64) -> u64 {
        shard_bytes
            .saturating_sub((self.samples * SAMPLE_BYTES) as u64)
            .saturating_add(self.bytes as u64)
    }
}

impl MemSeries {
    fn last_timestamp(&self) -> Option<u64> {
        self.head
            .last()
            .map(|s| s.timestamp_ms)
            .or_else(|| self.sealed.last().and_then(|c| c.end()))
    }

    fn first_timestamp(&self) -> Option<u64> {
        self.sealed
            .first()
            .and_then(|c| c.start())
            .or_else(|| self.head.first().map(|s| s.timestamp_ms))
    }

    /// Appends in the hot path.  The head holds what it was given: it opens
    /// at [`HEAD_INITIAL_SAMPLES`] — or, behind a sealed chunk, at that
    /// chunk's sample count, so a steady series goes straight back to
    /// `chunk_size` and a revived slow one starts small again — and doubles
    /// up to `chunk_size`.  A full head is sealed (Gorilla-compressed unless
    /// `raw_chunks` is set) and cleared, its buffer kept for the next chunk:
    /// past its first chunk a steady series allocates only at a seal.
    fn append(
        &mut self,
        sample: Sample,
        chunk_size: usize,
        raw_chunks: bool,
        scratch: &mut Vec<u8>,
    ) -> Appended {
        if let Some(last) = self.last_timestamp() {
            if sample.timestamp_ms < last {
                return Appended::Rejected;
            }
        }
        let opened_chunk = self.head.is_empty();
        if self.head.len() == self.head.capacity() {
            self.grow_head(chunk_size);
        }
        self.head.push(sample);
        self.ever_appended = true;
        let sealed = (self.head.len() >= chunk_size).then(|| self.seal_head(raw_chunks, scratch));
        Appended::Accepted { opened_chunk, sealed }
    }

    /// Makes room in a full (or unallocated) head — see [`MemSeries::append`]
    /// for the policy.
    #[cold]
    fn grow_head(&mut self, chunk_size: usize) {
        // Growth is logarithmic in a series' first chunk and absent after
        // it; the lock audit's no-alloc check is suspended for it explicitly.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        let held = self.head.len();
        let target = match self.head.capacity() {
            0 => self.sealed.last().map_or(HEAD_INITIAL_SAMPLES, |chunk| chunk.len()),
            capacity => capacity * 2,
        };
        self.head.reserve_exact(target.min(chunk_size).max(held + 1) - held);
    }

    /// Seals the non-empty head into an immutable chunk — two allocations,
    /// the `Arc<Chunk>` and its exact-sized payload — and clears it, keeping
    /// the buffer.
    fn seal_head(&mut self, raw_chunks: bool, scratch: &mut Vec<u8>) -> Sealed {
        // Sealing is the one allocating step in a chunk's lifetime; the
        // lock audit's no-alloc check is suspended for it explicitly.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        let chunk = Chunk::sealed(&self.head, !raw_chunks, scratch);
        let sealed = Sealed { samples: self.head.len(), bytes: chunk.data_bytes() };
        self.sealed.push(Arc::new(chunk));
        self.head.clear();
        sealed
    }

    /// The stale-head rule of [`ShardInner::retention_pass`]: a series whose
    /// newest sample is older than `stale_before` gives its head buffer
    /// back, sealing what the head holds first.
    fn seal_if_stale(
        &mut self,
        stale_before: u64,
        raw_chunks: bool,
        scratch: &mut Vec<u8>,
    ) -> Option<Sealed> {
        if self.head.capacity() == 0 || self.last_timestamp()? >= stale_before {
            return None;
        }
        let sealed = (!self.head.is_empty()).then(|| self.seal_head(raw_chunks, scratch));
        self.head = Vec::new();
        sealed
    }

    fn at(&self, at_ms: u64) -> Option<Sample> {
        // Head samples are the newest; fall back to the sealed chunks.
        sample_at(&self.head, at_ms).or_else(|| at_in_chunks(&self.sealed, at_ms))
    }

    fn points_in(&self, start_ms: u64, end_ms: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        crate::series::extend_range(&self.sealed, start_ms, end_ms, &mut out, |s| {
            (s.timestamp_ms, s.value)
        });
        let a = self.head.partition_point(|s| s.timestamp_ms < start_ms);
        let b = self.head.partition_point(|s| s.timestamp_ms <= end_ms);
        out.reserve(b.saturating_sub(a));
        // teemon-verify: allow(no-index): partition_point bounds satisfy a <= b <= len
        out.extend(self.head[a..b].iter().map(|s| (s.timestamp_ms, s.value)));
        out
    }

    fn snapshot(&self) -> SeriesSnapshot {
        let mut chunks = self.sealed.clone();
        if !self.head.is_empty() {
            chunks.push(Arc::new(Chunk::from_samples(self.head.clone())));
        }
        SeriesSnapshot::new(self.id, Arc::clone(&self.name), Arc::clone(&self.labels), chunks)
    }

    /// Drops whole chunks (and the head) whose newest sample is older than
    /// `cutoff_ms`.  Returns `(samples_dropped, chunks_dropped,
    /// bytes_dropped)` so the shard can maintain its aggregates.
    fn drop_before(&mut self, cutoff_ms: u64) -> (usize, usize, u64) {
        let mut samples = 0;
        let mut chunks = 0;
        let mut bytes = 0u64;
        let keep_from = self.sealed.partition_point(|c| match c.end() {
            Some(end) => end < cutoff_ms,
            None => false,
        });
        for chunk in self.sealed.drain(..keep_from) {
            samples += chunk.len();
            chunks += 1;
            bytes += chunk.data_bytes() as u64;
        }
        if self.sealed.is_empty() {
            if let Some(last) = self.head.last() {
                if last.timestamp_ms < cutoff_ms {
                    samples += self.head.len();
                    chunks += 1;
                    bytes += (self.head.len() * SAMPLE_BYTES) as u64;
                    self.head.clear();
                }
            }
        }
        (samples, chunks, bytes)
    }

    /// `true` when the series once held data and retention has since drained
    /// every chunk — the eviction criterion.  A freshly resolved series that
    /// is still waiting for its first append is empty but NOT drained.
    fn is_drained(&self) -> bool {
        self.ever_appended && self.sealed.is_empty() && self.head.is_empty()
    }

    /// Stored samples (sealed + head), for aggregate maintenance on drops.
    fn sample_count(&self) -> u64 {
        self.sealed.iter().map(|c| c.len() as u64).sum::<u64>() + self.head.len() as u64
    }

    /// Held chunks (sealed + the head when non-empty).
    fn chunk_total(&self) -> u64 {
        self.sealed.len() as u64 + u64::from(!self.head.is_empty())
    }

    /// Resident payload bytes, matching the shard's incremental `bytes`
    /// accounting (sealed chunk payloads + 16 per head sample).
    fn resident_bytes(&self) -> u64 {
        self.sealed.iter().map(|c| c.data_bytes() as u64).sum::<u64>()
            + (self.head.len() * SAMPLE_BYTES) as u64
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

    /// `true` when the borrowed key equals this series' interned key.
    fn key_matches(&self, name: &str, labels: &Labels) -> bool {
        &*self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels.iter())
                .all(|((sk, sv), (k, v))| &**sk == k && &**sv == v)
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
    fn write(&mut self, _bytes: &[u8]) {
        // teemon-verify: allow(no-panic): invariant — this hasher is only built for u64-keyed maps
        unreachable!("key index only hashes u64 keys");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct ShardInner {
    series: Vec<MemSeries>,
    /// Series-key hash → shard-local indices with that hash (collision list).
    key_index: HashMap<u64, Vec<u32>, std::hash::BuildHasherDefault<PreHashed>>,
    postings: Postings,
    /// Bumped whenever shard-local series indices are invalidated (series
    /// evicted by retention or dropped); stale [`SeriesHandle`]s are detected
    /// by comparing against this.
    generation: u64,
    samples: u64,
    chunks: u64,
    rejected: u64,
    /// Resident payload bytes (sealed chunk data + 16 per head sample).
    bytes: u64,
    min_ts: Option<u64>,
    max_ts: Option<u64>,
    /// Where this shard's seals encode: every sealed payload is copied out
    /// of it at its exact size, so the encoder's growth stays here.
    seal_scratch: Vec<u8>,
}

impl ShardInner {
    /// The series at shard-local index `local`.  The only raw series indexing
    /// in the crate: every caller passes an index from the key index or the
    /// postings, maintained under the same shard lock, or has validated it
    /// against `series.len()` under the current generation.
    fn series_at(&self, local: u32) -> &MemSeries {
        // teemon-verify: allow(no-index): shard-local indices come from the key index/postings under this lock
        &self.series[local as usize]
    }

    /// Borrowed-key lookup: no allocation, no string clone.
    fn find(&self, key_hash: u64, name: &str, labels: &Labels) -> Option<u32> {
        self.key_index
            .get(&key_hash)?
            .iter()
            .copied()
            .find(|&local| self.series_at(local).key_matches(name, labels))
    }

    /// Appends `sample` to the series at `local` (same invariant as
    /// [`ShardInner::series_at`]) and folds the result into the shard
    /// aggregates.  Returns `true` when the sample was stored.  The one
    /// append every path — per-sample, by handle, batched, WAL replay —
    /// goes through, so acceptance and accounting cannot diverge.
    fn append(&mut self, local: u32, sample: Sample, chunk_size: usize, raw_chunks: bool) -> bool {
        // teemon-verify: allow(no-index): shard-local indices come from the key index/postings under this lock
        let series = &mut self.series[local as usize];
        match series.append(sample, chunk_size, raw_chunks, &mut self.seal_scratch) {
            Appended::Rejected => {
                self.rejected += 1;
                false
            }
            Appended::Accepted { opened_chunk, sealed } => {
                self.samples += 1;
                self.bytes += SAMPLE_BYTES as u64;
                if let Some(sealed) = sealed {
                    self.bytes = sealed.fold_into(self.bytes);
                }
                if opened_chunk {
                    self.chunks += 1;
                }
                let ts = sample.timestamp_ms;
                self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
                self.min_ts = Some(self.min_ts.map_or(ts, |m| m.min(ts)));
                true
            }
        }
    }

    /// Appends a new series, registering it in the key index and the
    /// postings; returns its shard-local index.
    fn push_series(&mut self, key_hash: u64, series: MemSeries) -> u32 {
        // teemon-verify: allow(no-unwrap): invariant — u32 handles cap a shard at 2^32 series, unreachable in memory
        let local = u32::try_from(self.series.len()).expect("fewer than 2^32 series per shard");
        self.postings.register(local, series.name_sym, &series.label_syms);
        self.key_index.entry(key_hash).or_default().push(local);
        self.series.push(series);
        local
    }

    /// Rebuilds the key index and postings from the stored series without
    /// touching the generation — WAL replay reconstructs a shard whose
    /// durable generation is restored explicitly.
    fn reindex(&mut self) {
        self.key_index.clear();
        self.postings = Postings::default();
        for (local, series) in self.series.iter().enumerate() {
            // teemon-verify: allow(no-unwrap): invariant — u32 handles cap a shard at 2^32 series, unreachable in memory
            let local = u32::try_from(local).expect("fewer than 2^32 series per shard");
            let hash = series_key_hash_pairs(
                &series.name,
                series.labels.iter().map(|(k, v)| (&**k, &**v)),
            );
            self.key_index.entry(hash).or_default().push(local);
            self.postings.register(local, series.name_sym, &series.label_syms);
        }
    }

    /// Rebuilds the key index and postings from the surviving series and
    /// bumps the shard generation.  Must be called after any operation that
    /// removes series (and thereby renumbers shard-local indices); every
    /// previously issued handle into this shard becomes stale.
    fn rebuild_after_removal(&mut self) {
        self.reindex();
        self.generation += 1;
    }

    /// Removes the series at `victims` (ascending pre-removal shard-local
    /// indices), maintains the shard aggregates, releases the victims'
    /// symbol references and renumbers the shard.  Shared by
    /// [`TimeSeriesDb::drop_series`] and WAL replay so the live and the
    /// replayed state cannot diverge (during replay the releases are no-ops
    /// — refcounts are rebuilt wholesale at the end of recovery).  Returns
    /// how many series were removed.
    fn remove_locals(&mut self, victims: &[u32], symbols: &RwLock<SymbolTable>) -> usize {
        if victims.is_empty() {
            return 0;
        }
        {
            // Lock order: the caller holds this shard's lock; `tsdb.symbols`
            // nests inside it, same as the series-creation path.
            let mut table = symbols.write();
            for &victim in victims {
                if let Some(series) = self.series.get(victim as usize) {
                    series.release_symbols(&mut table);
                }
            }
        }
        // `victims` is ascending; walk it alongside a retain pass.
        let mut next_victim = 0usize;
        let mut local = 0u32;
        let mut removed = 0usize;
        let mut removed_samples = 0u64;
        let mut removed_chunks = 0u64;
        let mut removed_bytes = 0u64;
        self.series.retain(|series| {
            let doomed = victims.get(next_victim) == Some(&local);
            if doomed {
                next_victim += 1;
                removed += 1;
                removed_samples += series.sample_count();
                removed_chunks += series.chunk_total();
                removed_bytes += series.resident_bytes();
            }
            local += 1;
            !doomed
        });
        self.samples = self.samples.saturating_sub(removed_samples);
        self.chunks = self.chunks.saturating_sub(removed_chunks);
        self.bytes = self.bytes.saturating_sub(removed_bytes);
        self.rebuild_after_removal();
        self.refresh_time_bounds();
        removed
    }

    /// One shard's retention sweep at `cutoff`: drops aged chunks, evicts
    /// fully drained series, seals stale heads and maintains the aggregates.
    /// Shared by [`TimeSeriesDb::apply_retention`] and WAL replay.  Returns
    /// how many samples were dropped.
    ///
    /// A head is *stale* once its series' newest sample is more than
    /// [`STALE_HEAD_MS`] behind the shard's newest: instant selectors have
    /// stopped seeing the series, so it is unlikely to be appended to again.
    /// Its samples are sealed into a chunk like a full head's and the buffer
    /// is released (an empty stale head just releases its buffer), so a
    /// churned series costs its compressed samples, not a `chunk_size` raw
    /// buffer, until retention evicts it.  The rule reads only what replay
    /// reproduces — `max_ts` and the head — so it needs no WAL record.
    fn retention_pass(
        &mut self,
        cutoff: u64,
        raw_chunks: bool,
        symbols: &RwLock<SymbolTable>,
    ) -> u64 {
        let mut dropped_samples = 0u64;
        let mut dropped_chunks = 0u64;
        let mut dropped_bytes = 0u64;
        let mut drained = false;
        let mut min_ts = None;
        let stale_before = self.max_ts.map_or(0, |newest| newest.saturating_sub(STALE_HEAD_MS));
        let mut stale_sealed = 0u64;
        for series in &mut self.series {
            let (samples, chunks, bytes) = series.drop_before(cutoff);
            dropped_samples += samples as u64;
            dropped_chunks += chunks as u64;
            dropped_bytes += bytes;
            drained |= series.is_drained();
            if let Some(sealed) =
                series.seal_if_stale(stale_before, raw_chunks, &mut self.seal_scratch)
            {
                self.bytes = sealed.fold_into(self.bytes);
                stale_sealed += 1;
            }
            min_ts = match (min_ts, series.first_timestamp()) {
                (Some(a), Some(b)) => Some(std::cmp::min::<u64>(a, b)),
                (a, b) => a.or(b),
            };
        }
        if stale_sealed > 0 {
            probes::STALE_HEADS_SEALED.add(stale_sealed);
        }
        self.samples -= dropped_samples;
        self.chunks -= dropped_chunks;
        self.bytes = self.bytes.saturating_sub(dropped_bytes);
        if drained {
            // Evicting renumbers the shard; the second walk to refresh
            // both time bounds only runs on this rare path.
            {
                let mut table = symbols.write();
                for series in self.series.iter().filter(|s| s.is_drained()) {
                    series.release_symbols(&mut table);
                }
            }
            self.series.retain(|series| !series.is_drained());
            self.rebuild_after_removal();
            self.refresh_time_bounds();
        } else {
            // Dropping old data can only raise the minimum (folded for
            // free above); the maximum is untouched by retention.
            self.min_ts = min_ts;
        }
        dropped_samples
    }

    /// Recomputes the min/max timestamp aggregates from the stored series
    /// (used after removals, where incremental maintenance cannot shrink).
    fn refresh_time_bounds(&mut self) {
        self.min_ts = self.series.iter().filter_map(MemSeries::first_timestamp).min();
        self.max_ts = self.series.iter().filter_map(MemSeries::last_timestamp).max();
    }

    /// Shard-local matches for a compiled selector, postings-first with the
    /// `!=` value checks applied per candidate.
    fn matches(&self, plan: &SelectorPlan) -> Vec<u32> {
        let mut candidates = match plan.candidates(&self.postings) {
            Candidates::All => (0..self.series.len() as u32).collect::<Vec<u32>>(),
            Candidates::Listed(list) => list,
        };
        let neq = plan.neq_pairs();
        if !neq.is_empty() {
            candidates.retain(|&local| {
                let series = self.series_at(local);
                neq.iter().all(|&(key, value)| {
                    series.label_value_sym(key).map(|actual| actual != value).unwrap_or(false)
                })
            });
        }
        candidates
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

    /// Stages one attempted append to `shard`.  `true` when the shard's
    /// staging has outgrown its budget: the caller then runs
    /// [`TimeSeriesDb::wal_flush`] once it has released the shard lock.
    fn stage_sample(&self, shard: usize, local: u32, timestamp_ms: u64, value: f64) -> bool {
        self.stage(shard).is_some_and(|mut writer| {
            writer.sample(local, timestamp_ms, value);
            writer.over_budget()
        })
    }

    /// The lock shard at `index`.  Masked with `SHARD_COUNT - 1`, so the
    /// accessor itself can never panic; every caller derives `index` from a
    /// key hash or a [`SeriesHandle`], both already in range.
    fn shard(&self, index: usize) -> &RwLock<ShardInner> {
        // teemon-verify: allow(no-index): masked by SHARD_COUNT - 1, always in bounds
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
    raw_chunks: bool,
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
            raw_chunks: config.raw_chunks,
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
        let name = resolve_or_hole(&mut symbols, name_sym, &mut holed);
        let mut labels = Vec::with_capacity(label_syms.len());
        for &(k, v) in &label_syms {
            labels.push((
                resolve_or_hole(&mut symbols, k, &mut holed),
                resolve_or_hole(&mut symbols, v, &mut holed),
            ));
        }
        if holed {
            self.doomed.insert(id);
        }
        self.max_id = Some(self.max_id.map_or(id, |m| m.max(id)));
        MemSeries {
            id: SeriesId(id),
            name,
            name_sym,
            labels: labels.into(),
            label_syms: label_syms.into_boxed_slice(),
            sealed: Vec::new(),
            head: Vec::new(),
            ever_appended: false,
        }
    }

    /// Restores `index`'s held-back snapshot, if any (sealed Gorilla blocks
    /// verbatim).
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
            restored.head = series.head;
            restored.sealed = series.sealed.into_iter().map(Arc::new).collect();
            restored.ever_appended = series.ever_appended;
            inner.series.push(restored);
        }
        inner.reindex();
        inner.samples = inner.series.iter().map(MemSeries::sample_count).sum();
        inner.chunks = inner.series.iter().map(MemSeries::chunk_total).sum();
        inner.bytes = inner.series.iter().map(MemSeries::resident_bytes).sum();
        inner.refresh_time_bounds();
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
        let (chunk_size, raw_chunks, symbols) = (self.chunk_size, self.raw_chunks, self.symbols);
        match op {
            wal::ShardOp::Series { id, name_sym, label_syms } => {
                let series = self.series(id, name_sym, label_syms);
                let hash = series_key_hash_pairs(
                    &series.name,
                    series.labels.iter().map(|(k, v)| (&**k, &**v)),
                );
                if let Some(inner) = self.live(index) {
                    inner.push_series(hash, series);
                }
            }
            wal::ShardOp::Samples { timestamp_ms, entries, .. } => {
                let Some(inner) = self.live(index) else { return true };
                for (local, value) in entries {
                    if (local as usize) >= inner.series.len() {
                        return false;
                    }
                    inner.append(local, Sample { timestamp_ms, value }, chunk_size, raw_chunks);
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
                    inner.retention_pass(cutoff_ms, raw_chunks, symbols);
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
    /// Called once per scrape round by the scrape driver — and by any
    /// appender ([`TimeSeriesDb::append`], [`TimeSeriesDb::append_handle`],
    /// [`TimeSeriesDb::append_batch`]) that leaves a shard with more than
    /// 256 KiB staged, so ingest without a driver cannot stage without
    /// bound.  After a commit, every shard that has logged more than the
    /// segment budget since its last snapshot is checkpointed — its state
    /// snapshotted, Gorilla blocks re-used verbatim — and log segments no
    /// stream needs are deleted.
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
                head: &series.head,
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
    /// verified against the interned key strings, and past a series' first
    /// chunk the head's buffer is already there.  Only series creation, the
    /// head's doublings inside that first chunk and chunk sealing allocate.
    pub fn append(&self, name: &str, labels: &Labels, timestamp_ms: u64, value: f64) -> bool {
        let key_hash = series_key_hash(name, labels);
        let shard = shard_of(key_hash);
        let mut inner = self.shared.shard(shard).write();
        let local = match inner.find(key_hash, name, labels) {
            Some(local) => local,
            None => self.create_series(&mut inner, shard, key_hash, name, labels),
        };
        let flush_due = self.shared.stage_sample(shard, local, timestamp_ms, value);
        let chunk_size = self.config.chunk_size.max(1);
        let raw_chunks = self.config.raw_chunks;
        let accepted = inner.append(local, Sample { timestamp_ms, value }, chunk_size, raw_chunks);
        drop(inner);
        if flush_due {
            self.wal_flush();
        }
        accepted
    }

    /// Resolves `name` + `labels` to a [`SeriesHandle`], creating the series
    /// on first use — the slow half of the ingest fast lane, paid once per
    /// series per cache (re)build.  The returned handle stays valid until the
    /// owning shard evicts or drops series (see [`SeriesHandle`]); appending
    /// through it afterwards reports [`HandleAppend::Stale`] rather than ever
    /// touching another series.
    pub fn resolve(&self, name: &str, labels: &Labels) -> SeriesHandle {
        let key_hash = series_key_hash(name, labels);
        let shard = shard_of(key_hash);
        {
            // Optimistic read: steady-state re-resolves share the lock.
            let inner = self.shared.shard(shard).read();
            if let Some(local) = inner.find(key_hash, name, labels) {
                return SeriesHandle { shard: shard as u16, local, generation: inner.generation };
            }
        }
        let mut inner = self.shared.shard(shard).write();
        let local = match inner.find(key_hash, name, labels) {
            Some(local) => local,
            None => self.create_series(&mut inner, shard, key_hash, name, labels),
        };
        SeriesHandle { shard: shard as u16, local, generation: inner.generation }
    }

    /// `true` when `handle` still addresses a live series (its shard has not
    /// evicted or dropped series since the handle was resolved).
    pub fn handle_live(&self, handle: SeriesHandle) -> bool {
        let inner = self.shared.shard(handle.shard as usize).read();
        handle.generation == inner.generation && (handle.local as usize) < inner.series.len()
    }

    /// The current generation of every lock shard, in shard order.  A scrape
    /// cache snapshots these once per repair pass to validate a batch of
    /// handles without locking per handle.
    pub fn shard_generations(&self) -> [u64; SHARD_COUNT] {
        std::array::from_fn(|i| self.shared.shard(i).read().generation)
    }

    /// Whether `handle` is still live under the given generation snapshot
    /// (from [`TimeSeriesDb::shard_generations`]).  Lock-free.
    pub fn handle_live_under(
        &self,
        handle: SeriesHandle,
        generations: &[u64; SHARD_COUNT],
    ) -> bool {
        generations.get(handle.shard as usize).is_some_and(|&g| g == handle.generation)
    }

    /// Appends one sample through a resolved handle.  Unlike
    /// [`TimeSeriesDb::append`] this never hashes the key or touches the key
    /// index; unlike [`TimeSeriesDb::append_batch`] it locks the shard for a
    /// single sample — use it for stragglers (e.g. re-appending after a stale
    /// handle was re-resolved), not for whole rounds.
    pub fn append_handle(
        &self,
        handle: SeriesHandle,
        timestamp_ms: u64,
        value: f64,
    ) -> HandleAppend {
        let chunk_size = self.config.chunk_size.max(1);
        let raw_chunks = self.config.raw_chunks;
        let mut inner = self.shared.shard(handle.shard as usize).write();
        if handle.generation != inner.generation || (handle.local as usize) >= inner.series.len() {
            return HandleAppend::Stale;
        }
        let flush_due =
            self.shared.stage_sample(handle.shard as usize, handle.local, timestamp_ms, value);
        let accepted =
            inner.append(handle.local, Sample { timestamp_ms, value }, chunk_size, raw_chunks);
        drop(inner);
        if flush_due {
            self.wal_flush();
        }
        if accepted {
            HandleAppend::Appended
        } else {
            HandleAppend::Rejected
        }
    }

    /// Appends a whole scrape round of handle-addressed samples, taking each
    /// shard's write lock **once per round** instead of once per sample.
    /// Samples are grouped by shard; within a shard they apply in input
    /// order, so per-series semantics (out-of-order rejection, chunk sealing)
    /// are identical to issuing the same appends one by one.
    ///
    /// Stale handles (their shard evicted or dropped series since
    /// resolution) are skipped and reported by input index in
    /// [`BatchOutcome::stale`]; the caller re-resolves those keys and retries
    /// — a stale handle can miss a beat but never write to the wrong series.
    /// On a steady-state round the call performs zero heap allocations.
    pub fn append_batch(&self, batch: &[(SeriesHandle, u64, f64)]) -> BatchOutcome {
        let chunk_size = self.config.chunk_size.max(1);
        let raw_chunks = self.config.raw_chunks;
        let mut outcome = BatchOutcome::default();
        // This loop is the one approved multi-shard path: shards are visited
        // in ascending index order, so under the lock audit it runs as an
        // ordered section.  (Today each shard guard drops before the next is
        // taken; the section future-proofs overlapping holds.)
        #[cfg(lock_audit)]
        let _ordered = parking_lot::audit::ordered_section();
        // 16 passes over the input beat one lock round-trip per sample: the
        // scan is branch-predictable integer compares, and shards whose
        // samples were all consumed earlier are skipped without locking.
        let mut remaining = batch.len();
        let mut appended_per_shard = [0u64; SHARD_COUNT];
        let mut flush_due = false;
        for shard in 0..SHARD_COUNT as u16 {
            if remaining == 0 {
                break;
            }
            let mut inner: Option<RwLockWriteGuard<'_, ShardInner>> = None;
            // The WAL writer is taken lazily alongside the shard guard, so a
            // shard with no samples this round locks nothing.
            let mut writer: Option<wal::ShardWriter<'_>> = None;
            let mut appended_here = 0u64;
            for (index, &(handle, timestamp_ms, value)) in batch.iter().enumerate() {
                if handle.shard != shard {
                    continue;
                }
                remaining -= 1;
                let inner = match &mut inner {
                    Some(inner) => inner,
                    None => {
                        let guard = inner.insert(self.shared.shard(shard as usize).write());
                        writer = self.shared.stage(shard as usize);
                        guard
                    }
                };
                if handle.generation != inner.generation
                    || (handle.local as usize) >= inner.series.len()
                {
                    // Stale handles are rare (a drop/retention pass raced the
                    // round); growing the report is allowed to allocate.
                    #[cfg(lock_audit)]
                    let _allow = parking_lot::audit::allow_alloc();
                    outcome.stale.push(index);
                    continue;
                }
                if let Some(writer) = writer.as_mut() {
                    writer.sample(handle.local, timestamp_ms, value);
                }
                let sample = Sample { timestamp_ms, value };
                if inner.append(handle.local, sample, chunk_size, raw_chunks) {
                    outcome.appended += 1;
                    appended_here += 1;
                } else {
                    outcome.rejected += 1;
                }
            }
            // teemon-verify: allow(no-index): invariant — `shard` iterates 0..SHARD_COUNT, the array length
            appended_per_shard[shard as usize] = appended_here;
            flush_due |= writer.is_some_and(|writer| writer.over_budget());
        }
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
            let victims = inner.matches(&plan);
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
        let (name_sym, name_arc) = symbols.intern_acquire(name);
        let mut label_syms = Vec::with_capacity(labels.len());
        let mut label_arcs = Vec::with_capacity(labels.len());
        for (k, v) in labels.iter() {
            let (key_sym, key_arc) = symbols.intern_acquire(k);
            let (value_sym, value_arc) = symbols.intern_acquire(v);
            label_syms.push((key_sym, value_sym));
            label_arcs.push((key_arc, value_arc));
        }
        drop(symbols);

        let id = SeriesId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        if let Some(mut writer) = self.shared.stage(shard) {
            writer.series(id.0, name_sym, &label_syms);
        }
        let series = MemSeries {
            id,
            name: name_arc,
            name_sym,
            labels: label_arcs.into(),
            label_syms: label_syms.into_boxed_slice(),
            sealed: Vec::new(),
            head: Vec::new(),
            ever_appended: false,
        };
        inner.push_series(key_hash, series)
    }

    /// Number of live series, folded from the shards in O(shards).  (Evicted
    /// and dropped series no longer count; the total ever created is the
    /// upper bound of [`SeriesId`] values.)
    pub fn series_count(&self) -> usize {
        self.shared.shards.iter().map(|s| s.read().series.len()).sum()
    }

    /// Number of distinct interned strings (metric names, label keys, label
    /// values).
    pub fn symbol_count(&self) -> usize {
        self.shared.symbols.read().len()
    }

    /// Number of series per lock shard — a diagnostic for how evenly the
    /// series-key hash spreads ingest load.
    pub fn shard_series_counts(&self) -> [usize; SHARD_COUNT] {
        std::array::from_fn(|i| self.shared.shard(i).read().series.len())
    }

    /// Storage statistics, folded from the per-shard aggregates in O(shards).
    pub fn stats(&self) -> StorageStats {
        let mut stats = StorageStats::default();
        for shard in &self.shared.shards {
            let inner = shard.read();
            stats.series += inner.series.len() as u64;
            stats.samples += inner.samples;
            stats.chunks += inner.chunks;
            stats.rejected_samples += inner.rejected;
            stats.resident_bytes += inner.bytes;
            stats.index_bytes += inner.postings.bytes() as u64;
        }
        stats.wal_failed_shards =
            self.shared.wal.as_ref().map(|wal| wal.failed_shard_count()).unwrap_or(0);
        // No shard lock is held here, so taking the symbol lock respects the
        // shard-then-symbols lock order.
        let symbols = self.shared.symbols.read();
        stats.symbols = symbols.len() as u64;
        stats.symbol_bytes = symbols.bytes();
        stats
    }

    /// Compiles `selector` once against the symbol table.  The symbol lock is
    /// released before any shard lock is taken (lock order: shard, then
    /// symbols).
    fn plan(&self, selector: &Selector) -> SelectorPlan {
        let symbols = self.shared.symbols.read();
        SelectorPlan::compile(selector, &symbols)
    }

    /// Runs `f` over every series matching `selector`, shard by shard, and
    /// returns the collected results in series-creation order.
    fn for_matching<T>(&self, selector: &Selector, f: impl Fn(&MemSeries) -> Option<T>) -> Vec<T> {
        let plan = self.plan(selector);
        if matches!(plan, SelectorPlan::Nothing) {
            return Vec::new();
        }
        let mut out: Vec<(SeriesId, T)> = Vec::new();
        for shard in &self.shared.shards {
            let inner = shard.read();
            for local in inner.matches(&plan) {
                let series = inner.series_at(local);
                if let Some(value) = f(series) {
                    out.push((series.id, value));
                }
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, value)| value).collect()
    }

    /// Zero-copy selection: a [`SeriesSnapshot`] for every series matching
    /// `selector`, in creation order.  Sealed chunks are shared, not cloned;
    /// only the open head chunk of each series is copied.
    pub fn select(&self, selector: &Selector) -> Vec<SeriesSnapshot> {
        self.for_matching(selector, |series| Some(series.snapshot()))
    }

    /// Instant query: the newest sample at or before `at_ms` for every
    /// matching series.
    pub fn query_instant(&self, selector: &Selector, at_ms: u64) -> Vec<QueryResult> {
        self.for_matching(selector, |series| {
            series.at(at_ms).map(|sample| QueryResult {
                name: series.name.to_string(),
                labels: materialise_labels(&series.labels),
                points: vec![(sample.timestamp_ms, sample.value)],
            })
        })
    }

    /// Range query: all samples in `[start_ms, end_ms]` for every matching
    /// series.
    pub fn query_range(&self, selector: &Selector, start_ms: u64, end_ms: u64) -> Vec<QueryResult> {
        self.for_matching(selector, |series| {
            let points = series.points_in(start_ms, end_ms);
            if points.is_empty() {
                return None;
            }
            Some(QueryResult {
                name: series.name.to_string(),
                labels: materialise_labels(&series.labels),
                points,
            })
        })
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
            dropped_total +=
                inner.retention_pass(cutoff, self.config.raw_chunks, &self.shared.symbols) as usize;
        }
        dropped_total
    }

    /// All distinct values of label `label` among series matching `selector`
    /// (used by dashboards to build filter drop-downs, e.g. the process filter
    /// of Figure 3).
    pub fn label_values(&self, selector: &Selector, label: &str) -> Vec<String> {
        let mut values =
            self.for_matching(selector, |series| series.label_value(label).map(str::to_string));
        values.sort();
        values.dedup();
        values
    }
}

impl MemSeries {
    /// The value of one label by key string.
    fn label_value(&self, name: &str) -> Option<&str> {
        crate::snapshot::label_value(&self.labels, name)
    }
}

fn materialise_labels(labels: &[(Arc<str>, Arc<str>)]) -> Labels {
    Labels::from_pairs(labels.iter().map(|(k, v)| (&**k, &**v)))
}

/// Replay-side symbol resolution.  A missing binding installs a unique
/// placeholder (`\u{1}` prefix keeps it out of any legal metric/label
/// namespace) and flags the caller via `holed`; series built from
/// placeholders are *doomed* — tolerated only if a later replayed drop
/// removes them (see [`TimeSeriesDb::replay_shard`]).
fn resolve_or_hole(table: &mut SymbolTable, sym: SymbolId, holed: &mut bool) -> Arc<str> {
    if let Some(s) = table.resolve(sym) {
        return Arc::clone(s);
    }
    *holed = true;
    let placeholder = format!("{REPLAY_HOLE_MARKER}wal-hole-{}", sym.as_u32());
    table.install_binding(sym.as_u32(), &placeholder);
    match table.resolve(sym) {
        Some(s) => Arc::clone(s),
        None => Arc::from(placeholder.as_str()),
    }
}

impl std::fmt::Debug for TimeSeriesDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeriesDb").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

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
        assert_eq!(db.symbol_count(), 8);
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
        let instant = db.query_instant(&selector, 4_500);
        assert_eq!(instant.len(), 2);
        assert!(instant.iter().all(|r| r.points[0].0 == 4_000));

        let only_read = Selector::metric("syscalls_total").with_label("syscall", "read");
        let range = db.query_range(&only_read, 2_000, 5_000);
        assert_eq!(range.len(), 1);
        assert_eq!(range[0].points.len(), 4);
        assert!(db.query_range(&Selector::metric("missing"), 0, u64::MAX).is_empty());
    }

    #[test]
    fn results_come_back_in_creation_order() {
        let db = TimeSeriesDb::new();
        let names: Vec<String> = (0..40).map(|i| format!("node-{i:02}")).collect();
        for (i, node) in names.iter().enumerate() {
            db.append("up", &labels(&[("node", node)]), 1_000 + i as u64, 1.0);
        }
        let results = db.query_instant(&Selector::metric("up"), u64::MAX);
        let got: Vec<&str> = results.iter().map(|r| r.labels.get("node").unwrap()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
        let snaps = db.select(&Selector::metric("up"));
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
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 4,
            retention_ms: u64::MAX,
            raw_chunks: false,
        });
        for t in 0..10u64 {
            db.append("m", &Labels::new(), t * 1000, t as f64);
        }
        let a = &db.select(&Selector::metric("m"))[0];
        let b = &db.select(&Selector::metric("m"))[0];
        assert_eq!(a.len(), 10);
        assert_eq!(a.chunk_count(), 3, "two sealed chunks plus the head copy");
        assert_eq!(a.at(3_500).unwrap().value, 3.0);
        assert_eq!(a.points_in(2_000, 5_000).len(), 4);
        let collected: Vec<u64> = a.cursor(2_000, 5_000).map(|s| s.timestamp_ms).collect();
        assert_eq!(collected, vec![2_000, 3_000, 4_000, 5_000]);
        // Snapshots taken before later appends stay frozen.
        db.append("m", &Labels::new(), 20_000, 99.0);
        assert_eq!(a.len(), 10);
        assert_eq!(b.last_timestamp(), Some(9_000));
    }

    #[test]
    fn retention_respects_window() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 10,
            retention_ms: 5_000,
            raw_chunks: false,
        });
        for t in 0..100u64 {
            db.append("m", &Labels::new(), t * 1000, t as f64);
        }
        let dropped = db.apply_retention();
        assert!(dropped > 50, "dropped {dropped}");
        // Recent data must survive.
        let recent = db.query_range(&Selector::metric("m"), 95_000, 99_000);
        assert_eq!(recent[0].points.len(), 5);
        // The per-shard aggregates track the drop.
        let stats = db.stats();
        assert_eq!(stats.samples, 100 - dropped as u64);
        assert_eq!(
            db.oldest_timestamp(),
            db.query_range(&Selector::metric("m"), 0, u64::MAX)[0].points.first().map(|(t, _)| *t)
        );
    }

    #[test]
    fn compressed_and_raw_storage_answer_identically() {
        let compressed = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 16,
            retention_ms: u64::MAX,
            raw_chunks: false,
        });
        let raw = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 16,
            retention_ms: u64::MAX,
            raw_chunks: true,
        });
        for t in 0..100u64 {
            for db in [&compressed, &raw] {
                db.append("counter_total", &labels(&[("node", "n1")]), t * 5_000, (t * 40) as f64);
                db.append("gauge", &labels(&[("node", "n1")]), t * 5_000, (t as f64 * 0.37).sin());
            }
        }
        for selector in [Selector::metric("counter_total"), Selector::metric("gauge")] {
            let a = &compressed.select(&selector)[0];
            let b = &raw.select(&selector)[0];
            assert_eq!(a.points_in(0, u64::MAX), b.points_in(0, u64::MAX));
            assert_eq!(a.points_in(17_000, 333_000), b.points_in(17_000, 333_000));
            for at in [0, 4_999, 5_000, 123_456, u64::MAX] {
                assert_eq!(a.at(at), b.at(at), "at {at}");
            }
            assert_eq!(
                a.cursor(40_000, 200_000).collect::<Vec<_>>(),
                b.cursor(40_000, 200_000).collect::<Vec<_>>(),
            );
            assert_eq!(
                a.owned_cursor(0, u64::MAX).collect::<Vec<_>>(),
                a.samples().collect::<Vec<_>>(),
            );
            assert_eq!(a.last_sample(), b.last_sample());
            // The bulk drain yields what stepping would, from a fresh cursor
            // and from one stopped inside a sealed chunk or the raw head.
            for (lo, hi) in [(0, u64::MAX), (17_000, 333_000), (42_000, 42_000), (600_000, 700_000)]
            {
                for snapshot in [a, b] {
                    for consumed in [0usize, 1, 5, 37, 99, 200] {
                        let mut stepped = snapshot.owned_cursor(lo, hi);
                        let mut bulk = snapshot.owned_cursor(lo, hi);
                        let mut drained: Vec<Sample> = bulk.by_ref().take(consumed).collect();
                        bulk.read_into(&mut drained);
                        assert_eq!(drained, stepped.by_ref().collect::<Vec<_>>());
                        assert_eq!(bulk.next(), None, "read_into exhausts the cursor");
                    }
                }
            }
        }
        // Identical logical contents, far fewer resident bytes.
        let (c, r) = (compressed.stats(), raw.stats());
        assert_eq!(c.samples, r.samples);
        assert_eq!((c.series, c.chunks), (r.series, r.chunks));
        assert_eq!(r.resident_bytes, r.samples * SAMPLE_BYTES as u64);
        assert!(
            c.resident_bytes * 2 < r.resident_bytes,
            "compression saved too little: {} vs {}",
            c.resident_bytes,
            r.resident_bytes
        );
        assert!(c.bytes_per_sample() < 8.0, "{}", c.bytes_per_sample());
        assert_eq!(StorageStats::default().bytes_per_sample(), 0.0);
    }

    #[test]
    fn resident_bytes_track_retention() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 10,
            retention_ms: 20_000,
            raw_chunks: false,
        });
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
        let values = db.label_values(&Selector::metric("proc_cpu"), "process");
        assert_eq!(values, vec!["nginx", "redis-server"]);
        assert!(db.label_values(&Selector::metric("proc_cpu"), "missing").is_empty());
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
            assert!(db.handle_live(*h));
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
        let points = db.query_range(&Selector::metric("m"), 0, u64::MAX);
        assert_eq!(points[0].points, vec![(1_000, 1.0), (1_000, 2.0), (2_000, 4.0)]);
        assert_eq!(db.append_handle(h, 2_500, 5.0), HandleAppend::Appended);
        assert_eq!(db.append_handle(h, 100, 0.0), HandleAppend::Rejected);
    }

    #[test]
    fn drop_series_invalidates_handles_and_index() {
        let db = TimeSeriesDb::new();
        let keep = labels(&[("node", "n1")]);
        let drop = labels(&[("node", "n2")]);
        let h_keep = db.resolve("m", &keep);
        let h_drop = db.resolve("m", &drop);
        db.append_handle(h_keep, 1_000, 1.0);
        db.append_handle(h_drop, 1_000, 2.0);

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
                assert_eq!(db.append_handle(h, 2_000, 9.0), HandleAppend::Appended);
            } else {
                assert!(!db.handle_live(h));
                assert_eq!(db.append_handle(h, 2_000, 9.0), HandleAppend::Stale);
                // Re-resolving repairs the fast lane.
                let fresh = db.resolve("m", key);
                assert_eq!(db.append_handle(fresh, 2_000, 9.0), HandleAppend::Appended);
            }
        }
        // Nothing about n2's old data leaked into n1.
        let n1 = db.query_range(&Selector::metric("m").with_label("node", "n1"), 0, u64::MAX);
        assert_eq!(n1[0].points.first(), Some(&(1_000, 1.0)));
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
            assert_eq!(db.append_handle(fresh, ts, v), HandleAppend::Appended);
        }
        let m = db.query_range(&Selector::metric("m"), 0, u64::MAX);
        assert_eq!(m[0].points, vec![(1_000, 1.0), (2_000, 2.0)], "no lost samples for m");
        let gone = db.query_range(&Selector::metric("gone"), 0, u64::MAX);
        assert_eq!(gone[0].points, vec![(2_000, 2.0)], "re-resolved series got the new sample");
    }

    #[test]
    fn retention_evicts_fully_aged_series() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 4,
            retention_ms: 10_000,
            raw_chunks: false,
        });
        let dead = labels(&[("node", "old")]);
        let live = labels(&[("node", "new")]);
        let dead_handle = db.resolve("m", &dead);
        for t in 0..8u64 {
            db.append_handle(dead_handle, t * 1_000, 1.0);
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
        assert_eq!(db.append_handle(dead_handle, 50_000, 1.0), HandleAppend::Stale);
        // The survivor still answers, and its creation-order id is retained.
        let results = db.query_range(&Selector::metric("m"), 0, u64::MAX);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].labels.get("node"), Some("new"));
        // A re-resolved key gets a fresh series (new id, empty history).
        let reborn = db.resolve("m", &dead);
        assert_eq!(db.append_handle(reborn, 60_000, 3.0), HandleAppend::Appended);
        assert_eq!(db.series_count(), 2);
    }

    /// Labels that put series `name` into lock shard `shard`.
    fn labels_in_shard(name: &str, shard: usize) -> Labels {
        (0..)
            .map(|i| labels(&[("probe", &format!("{i}"))]))
            .find(|l| shard_of(series_key_hash(name, l)) == shard)
            .expect("some label value hashes into every shard")
    }

    /// `(len, capacity)` of the head behind `handle`.
    fn head_of(db: &TimeSeriesDb, handle: SeriesHandle) -> (usize, usize) {
        let inner = db.shared.shard(handle.shard as usize).read();
        let head = &inner.series_at(handle.local).head;
        (head.len(), head.capacity())
    }

    #[test]
    fn heads_grow_with_their_samples_and_keep_the_buffer_after_a_seal() {
        let db = TimeSeriesDb::new(); // chunk_size 120
        let h = db.resolve("m", &Labels::new());
        assert_eq!(head_of(&db, h), (0, 0), "a resolved series holds no buffer yet");
        let mut capacities = Vec::new();
        for t in 0..119u64 {
            db.append_handle(h, t, 1.0);
            let (len, capacity) = head_of(&db, h);
            assert!(capacity <= (2 * len).max(4), "{capacity} slots for {len} samples");
            if capacities.last() != Some(&capacity) {
                capacities.push(capacity);
            }
        }
        assert_eq!(capacities, [4, 8, 16, 32, 64, 120]);
        db.append_handle(h, 119, 1.0);
        assert_eq!(head_of(&db, h), (0, 120), "a full seal clears the head and keeps the buffer");
        let small =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 3, ..TsdbConfig::default() });
        let h = small.resolve("m", &Labels::new());
        small.append_handle(h, 0, 1.0);
        assert_eq!(head_of(&small, h), (1, 3), "never past chunk_size");
    }

    #[test]
    fn stale_heads_are_sealed_released_and_revive_small() {
        const MINUTE: u64 = 60_000;
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 120,
            retention_ms: 20 * MINUTE,
            raw_chunks: false,
        });
        let idle = db.resolve("idle", &Labels::new());
        let live = db.resolve("live", &labels_in_shard("live", idle.shard as usize));
        assert_eq!(live.shard, idle.shard, "staleness is judged against the shard's own newest");
        for t in 0..17u64 {
            db.append_handle(idle, t * 1_000, t as f64);
            db.append_handle(live, t * 1_000, 1.0);
        }
        let idle_end = 16_000;

        // Exactly the lookback behind is not yet *more than* it: nothing moves.
        db.append_handle(live, idle_end + STALE_HEAD_MS, 1.0);
        let before = db.stats();
        let sealed_before = probes::STALE_HEADS_SEALED.get();
        assert_eq!(db.apply_retention(), 0);
        assert_eq!(db.stats(), before);
        assert_eq!(head_of(&db, idle), (17, 32));

        // One millisecond later the idle head is sealed and its buffer
        // released; the live one is untouched.  No sample, chunk or series
        // count moves, and the ledger swaps 16 B/sample for the block.
        db.append_handle(live, idle_end + STALE_HEAD_MS + 1, 1.0);
        let before = db.stats();
        assert_eq!(db.apply_retention(), 0);
        assert!(probes::STALE_HEADS_SEALED.get() > sealed_before);
        assert_eq!(head_of(&db, idle), (0, 0));
        assert_eq!(head_of(&db, live), (19, 32));
        let after = db.stats();
        let snapshot = &db.select(&Selector::metric("idle"))[0];
        assert_eq!((snapshot.len(), snapshot.chunk_count()), (17, 1));
        assert_eq!(
            after.resident_bytes,
            before.resident_bytes - 17 * SAMPLE_BYTES as u64 + snapshot.resident_bytes() as u64
        );
        assert!(snapshot.resident_bytes() < 17 * SAMPLE_BYTES);
        assert_eq!(
            StorageStats { resident_bytes: 0, ..after },
            StorageStats { resident_bytes: 0, ..before }
        );
        assert_eq!(db.apply_retention(), 0, "a second pass finds nothing left to seal");
        assert_eq!(db.stats(), after);
        assert!(db.handle_live(idle), "sealing a head moves no series");

        // A revival is checked against the sealed chunk's end and opens a
        // head the size of that short chunk, as a new chunk.
        assert_eq!(db.append_handle(idle, idle_end - 1, 0.0), HandleAppend::Rejected);
        assert_eq!(db.append_handle(idle, idle_end, 17.0), HandleAppend::Appended);
        assert_eq!(head_of(&db, idle), (1, 17));
        let revived = db.stats();
        assert_eq!(revived.chunks, after.chunks + 1);
        assert_eq!(revived.resident_bytes, after.resident_bytes + SAMPLE_BYTES as u64);
        let points = db.query_range(&Selector::metric("idle"), 0, u64::MAX);
        assert_eq!(points[0].points.len(), 18);
        assert_eq!(points[0].points.last(), Some(&(idle_end, 17.0)));

        // Eviction is what it was: one retention window after the last sample.
        db.append_handle(live, idle_end + 20 * MINUTE, 1.0);
        db.apply_retention();
        assert!(db.handle_live(idle), "the newest idle sample is exactly at the cutoff");
        db.append_handle(live, idle_end + 20 * MINUTE + 1, 1.0);
        assert_eq!(db.apply_retention(), 18, "the sealed 17 and the revived one");
        assert!(!db.handle_live(idle));
        assert!(db.select(&Selector::metric("idle")).is_empty());
    }

    #[test]
    fn an_empty_stale_head_just_releases_its_buffer() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 8,
            retention_ms: u64::MAX,
            raw_chunks: true,
        });
        let full = db.resolve("full", &Labels::new());
        let short = db.resolve("short", &labels_in_shard("short", full.shard as usize));
        let live = db.resolve("live", &labels_in_shard("live", full.shard as usize));
        for t in 0..8u64 {
            db.append_handle(full, t, 1.0);
        }
        db.append_handle(short, 7, 1.0);
        assert_eq!(head_of(&db, full), (0, 8));
        db.append_handle(live, 8 + STALE_HEAD_MS, 1.0);
        let before = db.stats();
        db.apply_retention();
        assert_eq!(head_of(&db, full), (0, 0));
        assert_eq!(head_of(&db, short), (0, 0));
        // `raw_chunks` seals the stale head raw: the ledger does not move.
        assert_eq!(db.stats(), before);
        assert_eq!(db.select(&Selector::metric("short"))[0].points_in(0, u64::MAX), [(7, 1.0)]);
        // The next head of a steady series opens at full size again.
        db.append_handle(full, 8 + STALE_HEAD_MS, 1.0);
        assert_eq!(head_of(&db, full), (1, 8));
    }

    #[test]
    fn retention_spares_resolved_but_never_appended_series() {
        let db = TimeSeriesDb::with_config(TsdbConfig {
            chunk_size: 4,
            retention_ms: 5_000,
            raw_chunks: false,
        });
        db.append("old", &Labels::new(), 1_000, 1.0);
        db.append("old", &Labels::new(), 100_000, 1.0);
        // Resolved (e.g. by a scrape cache mid-build) but not yet written.
        let pending = db.resolve("pending", &labels(&[("node", "n1")]));
        db.apply_retention();
        // The empty-but-new series survives and its handle stays live — a
        // maintenance pass between resolve and first append must not
        // invalidate every handle in the shard.
        assert!(db.handle_live(pending));
        assert_eq!(db.append_handle(pending, 100_000, 2.0), HandleAppend::Appended);
        assert_eq!(db.series_count(), 2);
    }
}
