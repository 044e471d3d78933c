//! The static registry of engine probes.
//!
//! Every probe is a fixed slot — a relaxed-atomic [`Counter`], a bit-cast
//! [`Gauge`], a per-shard array of either, or a [`LogLinearHist`] — declared
//! `static` here and recorded into directly by the engine crates.  There is
//! no registration step, no locking and no allocation anywhere on the record
//! path; [`crate::ObsCollector`] and [`crate::SelfSnapshot`] read the same
//! slots when the engine scrapes itself.
//!
//! The probe surface (what a `teemon self` dashboard can query) is listed in
//! [`registry`]; names follow the metric names the collector exports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::Stopwatch;
use crate::hist::LogLinearHist;

/// Number of storage lock shards the per-shard probes cover.  Must equal
/// `teemon_tsdb::SHARD_COUNT`; the tsdb crate asserts the equality at
/// compile time (obs cannot depend on tsdb — the probes sit *below* it).
pub const SHARDS: usize = 16;

/// A monotonically increasing relaxed-atomic counter probe.
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`: one relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-value gauge probe storing `f64` bits in a relaxed atomic.
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in `static` position).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value: one relaxed store.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Counter`] per storage shard.  Out-of-range shard indices are ignored
/// rather than panicking — the recorder hot path must not abort the engine.
pub struct ShardCounters([Counter; SHARDS]);

impl ShardCounters {
    /// Zeroed per-shard counters.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Counter = Counter::new();
        Self([ZERO; SHARDS])
    }

    /// Adds `n` to shard `shard`'s counter.
    #[inline]
    pub fn add(&self, shard: usize, n: u64) {
        if let Some(counter) = self.0.get(shard) {
            counter.add(n);
        }
    }

    /// Current value of shard `shard` (0 when out of range).
    pub fn get(&self, shard: usize) -> u64 {
        self.0.get(shard).map(Counter::get).unwrap_or(0)
    }
}

impl Default for ShardCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Gauge`] per storage shard.
pub struct ShardGauges([Gauge; SHARDS]);

impl ShardGauges {
    /// Zeroed per-shard gauges.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Gauge = Gauge::new();
        Self([ZERO; SHARDS])
    }

    /// Sets shard `shard`'s gauge.
    #[inline]
    pub fn set(&self, shard: usize, value: f64) {
        if let Some(gauge) = self.0.get(shard) {
            gauge.set(value);
        }
    }

    /// Current value of shard `shard` (0 when out of range).
    pub fn get(&self, shard: usize) -> f64 {
        self.0.get(shard).map(Gauge::get).unwrap_or(0.0)
    }
}

impl Default for ShardGauges {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII span timer: captures a [`Stopwatch`] at construction and records the
/// elapsed nanoseconds into its histogram on drop.  Two relaxed `fetch_add`s
/// plus two monotonic clock reads per span, no allocation.
pub struct Span {
    hist: &'static LogLinearHist,
    watch: Stopwatch,
}

impl Span {
    /// Starts a span recording into `hist` when dropped.
    #[inline]
    pub fn start(hist: &'static LogLinearHist) -> Self {
        Self { hist, watch: Stopwatch::start() }
    }

    /// Elapsed nanoseconds so far (the span keeps running).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.watch.elapsed_ns()
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.hist.record_ns(self.watch.elapsed_ns());
    }
}

// ---------------------------------------------------------------------------
// Ingest layer (recorded by `teemon_tsdb::scrape` / `storage`)
// ---------------------------------------------------------------------------

/// Scrape rounds that touched at least one target.
pub static SCRAPE_ROUNDS: Counter = Counter::new();
/// Measured wall time of whole scrape rounds.
pub static SCRAPE_ROUND_NS: LogLinearHist = LogLinearHist::new();
/// Per-target collect stage (endpoint snapshot production).
pub static SCRAPE_COLLECT_NS: LogLinearHist = LogLinearHist::new();
/// Per-target cache-walk stage (identity verification / repair).
pub static SCRAPE_CACHE_WALK_NS: LogLinearHist = LogLinearHist::new();
/// Per-target batch-append stage (storage writes incl. stale repair).
pub static SCRAPE_APPEND_NS: LogLinearHist = LogLinearHist::new();
/// Fast-lane rounds whose scrape cache verified positionally.
pub static CACHE_HITS: Counter = Counter::new();
/// Fast-lane rounds that had to rebuild the scrape cache (churn).
pub static CACHE_REBUILDS: Counter = Counter::new();
/// Stale series handles encountered during batch appends.
pub static STALE_HANDLES: Counter = Counter::new();
/// Samples appended per storage shard (the shard heat map).
pub static SHARD_APPENDS: ShardCounters = ShardCounters::new();

// ---------------------------------------------------------------------------
// Storage diagnostics (published once per scrape round from `StorageStats`)
// ---------------------------------------------------------------------------

/// Estimated bytes resident in sample storage.
pub static STORAGE_RESIDENT_BYTES: Gauge = Gauge::new();
/// Stored samples (a gauge: retention shrinks it).
pub static STORAGE_SAMPLES: Gauge = Gauge::new();
/// Average resident bytes per stored sample.
pub static STORAGE_BYTES_PER_SAMPLE: Gauge = Gauge::new();
/// Number of distinct series.
pub static STORAGE_SERIES: Gauge = Gauge::new();
/// Samples rejected as out of order, cumulative.
pub static STORAGE_REJECTED_SAMPLES: Gauge = Gauge::new();
/// Series resident per storage shard (the imbalance view).
pub static SHARD_SERIES: ShardGauges = ShardGauges::new();
/// Generation of each storage shard (bumps on eviction / drop).
pub static SHARD_GENERATIONS: ShardGauges = ShardGauges::new();
/// Live interned symbols (names, label keys and values).
pub static STORAGE_SYMBOLS: Gauge = Gauge::new();
/// Estimated bytes held by the symbol table (strings + slot overhead).
pub static STORAGE_SYMBOL_BYTES: Gauge = Gauge::new();
/// Estimated bytes held by the per-shard postings indexes.
pub static STORAGE_INDEX_BYTES: Gauge = Gauge::new();
/// Symbols garbage-collected at symbol-table checkpoints, cumulative.
pub static SYMBOLS_SWEPT: Counter = Counter::new();
/// Series rejected by per-target/per-job cardinality budgets at the scrape
/// edge, cumulative.
pub static SCRAPE_BUDGET_REJECTED: Counter = Counter::new();

// ---------------------------------------------------------------------------
// Durability / WAL (recorded by `teemon_tsdb::wal` and crash recovery)
// ---------------------------------------------------------------------------

/// Bytes appended to the write-ahead log.
pub static WAL_BYTES_WRITTEN: Counter = Counter::new();
/// Appends issued to the write-ahead log — one per committed round.
pub static WAL_WRITES: Counter = Counter::new();
/// Measured wall time of WAL flushes: drain, checksum, write, checkpoints.
pub static WAL_FLUSH_NS: LogLinearHist = LogLinearHist::new();
/// Measured wall time of WAL fsyncs.
pub static WAL_FSYNC_NS: LogLinearHist = LogLinearHist::new();
/// WAL records applied during crash recovery.
pub static WAL_RECORDS_REPLAYED: Counter = Counter::new();
/// Corrupt-tail truncation events during recovery (one per salvaged file).
pub static WAL_SALVAGE: Counter = Counter::new();
/// Bytes discarded by corrupt-tail truncation during recovery.
pub static WAL_SALVAGED_BYTES: Counter = Counter::new();
/// Duration of the last crash recovery, in seconds.
pub static WAL_RECOVERY_SECONDS: Gauge = Gauge::new();
/// Shards whose WAL or snapshot was unreadable and came up empty.
pub static WAL_FAILED_SHARDS: Gauge = Gauge::new();
/// Scrape rounds whose WAL flush reported a write/fsync failure — the round
/// was served from memory but its durability was lost.
pub static WAL_UNCLEAN_ROUNDS: Counter = Counter::new();

// ---------------------------------------------------------------------------
// Query layer (recorded by `teemon_query`)
// ---------------------------------------------------------------------------

/// Range queries answered by the streaming evaluator.
pub static QUERY_STREAMED: Counter = Counter::new();
/// Range queries that fell back to the per-step oracle.
pub static QUERY_FALLBACK: Counter = Counter::new();
/// Chunk samples decoded by streaming window machines.
pub static QUERY_SAMPLES_DECODED: Counter = Counter::new();
/// Window aggregate rebuilds (numeric-drift resets), cumulative.
pub static QUERY_WINDOW_REBUILDS: Counter = Counter::new();
/// Measured wall time of range queries.
pub static QUERY_NS: LogLinearHist = LogLinearHist::new();
/// Range queries slower than the slow-query threshold.
pub static QUERY_SLOW: Counter = Counter::new();

// ---------------------------------------------------------------------------
// HTTP serving edge (recorded by `teemon_server`'s middleware stack)
// ---------------------------------------------------------------------------

/// Connections accepted by the HTTP listener.
pub static HTTP_CONNECTIONS: Counter = Counter::new();
/// Requests that entered the middleware stack (sheds happen before this).
pub static HTTP_REQUESTS: Counter = Counter::new();
/// Responses sent with a 2xx status.
pub static HTTP_RESPONSES_2XX: Counter = Counter::new();
/// Responses sent with a 4xx status.
pub static HTTP_RESPONSES_4XX: Counter = Counter::new();
/// Responses sent with a 5xx status.
pub static HTTP_RESPONSES_5XX: Counter = Counter::new();
/// Connections shed before parsing because the in-flight gate was full (503).
pub static HTTP_SHED: Counter = Counter::new();
/// Handler panics caught by the panic shield (500, connection closed).
pub static HTTP_PANICS: Counter = Counter::new();
/// Requests rejected by the per-client token bucket (429).
pub static HTTP_RATE_LIMITED: Counter = Counter::new();
/// Slow-loris clients timed out while sending headers or body (408).
pub static HTTP_SLOW_CLIENTS: Counter = Counter::new();
/// Malformed requests rejected by the parser (400).
pub static HTTP_MALFORMED: Counter = Counter::new();
/// Requests rejected for exceeding a size limit (413).
pub static HTTP_OVERSIZED: Counter = Counter::new();
/// Requests currently being served.
pub static HTTP_INFLIGHT: Gauge = Gauge::new();
/// Measured wall time of handled requests (parse through response write).
pub static HTTP_REQUEST_NS: LogLinearHist = LogLinearHist::new();
/// Samples ingested through the remote-write endpoint.
pub static HTTP_INGESTED_SAMPLES: Counter = Counter::new();
/// In-flight requests drained to completion during graceful shutdown.
pub static HTTP_DRAINED: Counter = Counter::new();
/// Remote-write requests rejected by the per-request series budget (429).
pub static HTTP_CARDINALITY_REJECTED: Counter = Counter::new();

/// One row of the probe registry: a probe's exported metric name, its shape
/// and which engine layer records it.
#[derive(Debug, Clone, Copy)]
pub struct ProbeDesc {
    /// Metric name the collector exports (histograms expand into
    /// `_bucket`/`_sum`/`_count` on the wire).
    pub name: &'static str,
    /// Probe shape: `counter`, `gauge`, `histogram` or a per-`shard`/`class`
    /// labelled variant.
    pub kind: &'static str,
    /// The engine layer that records it.
    pub layer: &'static str,
    /// What the probe measures.
    pub help: &'static str,
}

/// The static probe registry: every engine self-metric the
/// [`crate::ObsCollector`] exports, with its shape and recording layer.
/// (Lock contention metrics are listed here too; their slots live in the
/// `parking_lot` shim's always-on `contention` table.)
pub const fn registry() -> &'static [ProbeDesc] {
    const REGISTRY: &[ProbeDesc] = &[
        ProbeDesc {
            name: "teemon_scrape_rounds_total",
            kind: "counter",
            layer: "ingest",
            help: "scrape rounds that touched at least one target",
        },
        ProbeDesc {
            name: "teemon_scrape_round_seconds",
            kind: "histogram",
            layer: "ingest",
            help: "measured wall time of whole scrape rounds",
        },
        ProbeDesc {
            name: "teemon_scrape_stage_seconds",
            kind: "histogram{stage}",
            layer: "ingest",
            help: "per-target stage timings: collect, cache_walk, append",
        },
        ProbeDesc {
            name: "teemon_scrape_cache_hits_total",
            kind: "counter",
            layer: "ingest",
            help: "fast-lane rounds verified positionally against the scrape cache",
        },
        ProbeDesc {
            name: "teemon_scrape_cache_rebuilds_total",
            kind: "counter",
            layer: "ingest",
            help: "fast-lane cache repairs after series churn",
        },
        ProbeDesc {
            name: "teemon_scrape_stale_handles_total",
            kind: "counter",
            layer: "ingest",
            help: "stale series handles hit during batch appends",
        },
        ProbeDesc {
            name: "teemon_tsdb_shard_appends_total",
            kind: "counter{shard}",
            layer: "ingest",
            help: "samples appended per storage shard (heat map)",
        },
        ProbeDesc {
            name: "teemon_tsdb_resident_bytes",
            kind: "gauge",
            layer: "storage",
            help: "estimated bytes resident in sample storage",
        },
        ProbeDesc {
            name: "teemon_tsdb_samples",
            kind: "gauge",
            layer: "storage",
            help: "stored samples (retention shrinks it)",
        },
        ProbeDesc {
            name: "teemon_tsdb_bytes_per_sample",
            kind: "gauge",
            layer: "storage",
            help: "average resident bytes per stored sample",
        },
        ProbeDesc {
            name: "teemon_tsdb_series",
            kind: "gauge",
            layer: "storage",
            help: "distinct series resident",
        },
        ProbeDesc {
            name: "teemon_tsdb_rejected_samples",
            kind: "gauge",
            layer: "storage",
            help: "samples rejected as out of order, cumulative",
        },
        ProbeDesc {
            name: "teemon_tsdb_shard_series",
            kind: "gauge{shard}",
            layer: "storage",
            help: "series resident per storage shard (imbalance view)",
        },
        ProbeDesc {
            name: "teemon_tsdb_shard_generation",
            kind: "gauge{shard}",
            layer: "storage",
            help: "storage shard generation (bumps on eviction/drop)",
        },
        ProbeDesc {
            name: "teemon_tsdb_symbols",
            kind: "gauge",
            layer: "storage",
            help: "live interned symbols (names, label keys and values)",
        },
        ProbeDesc {
            name: "teemon_tsdb_symbol_bytes",
            kind: "gauge",
            layer: "storage",
            help: "estimated bytes held by the symbol table",
        },
        ProbeDesc {
            name: "teemon_tsdb_index_bytes",
            kind: "gauge",
            layer: "storage",
            help: "estimated bytes held by the per-shard postings indexes",
        },
        ProbeDesc {
            name: "teemon_tsdb_symbols_swept_total",
            kind: "counter",
            layer: "storage",
            help: "symbols garbage-collected at symbol-table checkpoints",
        },
        ProbeDesc {
            name: "teemon_scrape_budget_rejected_total",
            kind: "counter",
            layer: "ingest",
            help: "series rejected by per-target/per-job cardinality budgets at the scrape edge",
        },
        ProbeDesc {
            name: "teemon_wal_bytes_written_total",
            kind: "counter",
            layer: "storage",
            help: "bytes appended to the write-ahead log",
        },
        ProbeDesc {
            name: "teemon_wal_writes_total",
            kind: "counter",
            layer: "storage",
            help: "appends issued to the write-ahead log, one per committed round",
        },
        ProbeDesc {
            name: "teemon_wal_flush_seconds",
            kind: "histogram",
            layer: "storage",
            help: "measured wall time of WAL flushes: drain, checksum, write, checkpoints",
        },
        ProbeDesc {
            name: "teemon_wal_fsync_seconds",
            kind: "histogram",
            layer: "storage",
            help: "measured wall time of WAL fsyncs",
        },
        ProbeDesc {
            name: "teemon_wal_records_replayed_total",
            kind: "counter",
            layer: "storage",
            help: "WAL records applied during crash recovery",
        },
        ProbeDesc {
            name: "teemon_wal_salvage_total",
            kind: "counter",
            layer: "storage",
            help: "corrupt-tail truncation events during recovery (per salvaged file)",
        },
        ProbeDesc {
            name: "teemon_wal_salvaged_bytes_total",
            kind: "counter",
            layer: "storage",
            help: "bytes discarded by corrupt-tail truncation during recovery",
        },
        ProbeDesc {
            name: "teemon_wal_recovery_seconds",
            kind: "gauge",
            layer: "storage",
            help: "duration of the last crash recovery",
        },
        ProbeDesc {
            name: "teemon_wal_failed_shards",
            kind: "gauge",
            layer: "storage",
            help: "shards whose WAL or snapshot was unreadable and came up empty",
        },
        ProbeDesc {
            name: "teemon_wal_unclean_rounds_total",
            kind: "counter",
            layer: "storage",
            help: "scrape rounds whose WAL flush hit a write/fsync failure (durability lost)",
        },
        ProbeDesc {
            name: "teemon_query_range_total",
            kind: "counter{mode}",
            layer: "query",
            help: "range queries by evaluation mode: streamed or fallback",
        },
        ProbeDesc {
            name: "teemon_query_samples_decoded_total",
            kind: "counter",
            layer: "query",
            help: "chunk samples decoded by streaming window machines",
        },
        ProbeDesc {
            name: "teemon_query_window_rebuilds_total",
            kind: "counter",
            layer: "query",
            help: "window aggregate rebuilds (numeric-drift resets)",
        },
        ProbeDesc {
            name: "teemon_query_seconds",
            kind: "histogram",
            layer: "query",
            help: "measured wall time of range queries",
        },
        ProbeDesc {
            name: "teemon_query_slow_total",
            kind: "counter",
            layer: "query",
            help: "range queries over the slow-query threshold",
        },
        ProbeDesc {
            name: "teemon_http_connections_total",
            kind: "counter",
            layer: "http",
            help: "connections accepted by the HTTP listener",
        },
        ProbeDesc {
            name: "teemon_http_requests_total",
            kind: "counter",
            layer: "http",
            help: "requests that entered the middleware stack",
        },
        ProbeDesc {
            name: "teemon_http_responses_total",
            kind: "counter{class}",
            layer: "http",
            help: "responses sent, by status class: 2xx, 4xx, 5xx",
        },
        ProbeDesc {
            name: "teemon_http_shed_total",
            kind: "counter",
            layer: "http",
            help: "connections shed before parsing under overload (503)",
        },
        ProbeDesc {
            name: "teemon_http_panics_total",
            kind: "counter",
            layer: "http",
            help: "handler panics caught by the panic shield (500)",
        },
        ProbeDesc {
            name: "teemon_http_rate_limited_total",
            kind: "counter",
            layer: "http",
            help: "requests rejected by the per-client token bucket (429)",
        },
        ProbeDesc {
            name: "teemon_http_slow_clients_total",
            kind: "counter",
            layer: "http",
            help: "slow-loris clients timed out sending headers or body (408)",
        },
        ProbeDesc {
            name: "teemon_http_malformed_total",
            kind: "counter",
            layer: "http",
            help: "malformed requests rejected by the parser (400)",
        },
        ProbeDesc {
            name: "teemon_http_oversized_total",
            kind: "counter",
            layer: "http",
            help: "requests rejected for exceeding a size limit (413)",
        },
        ProbeDesc {
            name: "teemon_http_inflight",
            kind: "gauge",
            layer: "http",
            help: "requests currently being served",
        },
        ProbeDesc {
            name: "teemon_http_request_seconds",
            kind: "histogram",
            layer: "http",
            help: "measured wall time of handled requests",
        },
        ProbeDesc {
            name: "teemon_http_ingested_samples_total",
            kind: "counter",
            layer: "http",
            help: "samples ingested through the remote-write endpoint",
        },
        ProbeDesc {
            name: "teemon_http_drained_total",
            kind: "counter",
            layer: "http",
            help: "in-flight requests drained to completion during graceful shutdown",
        },
        ProbeDesc {
            name: "teemon_http_cardinality_rejected_total",
            kind: "counter",
            layer: "http",
            help: "remote-write requests rejected by the per-request series budget (429)",
        },
        ProbeDesc {
            name: "teemon_lock_acquires_total",
            kind: "counter{class}",
            layer: "locks",
            help: "lock acquisitions per lock class",
        },
        ProbeDesc {
            name: "teemon_lock_contended_total",
            kind: "counter{class}",
            layer: "locks",
            help: "acquisitions that found the lock held and waited",
        },
        ProbeDesc {
            name: "teemon_lock_wait_seconds",
            kind: "histogram{class}",
            layer: "locks",
            help: "wait time of contended acquisitions per lock class",
        },
    ];
    REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        static C: Counter = Counter::new();
        static G: Gauge = Gauge::new();
        C.add(3);
        C.inc();
        assert_eq!(C.get(), 4);
        G.set(2.5);
        assert_eq!(G.get(), 2.5);
    }

    #[test]
    fn shard_slots_ignore_out_of_range() {
        static SC: ShardCounters = ShardCounters::new();
        static SG: ShardGauges = ShardGauges::new();
        SC.add(3, 7);
        SC.add(SHARDS + 5, 1);
        assert_eq!(SC.get(3), 7);
        assert_eq!(SC.get(SHARDS + 5), 0);
        SG.set(0, 1.5);
        SG.set(usize::MAX, 9.0);
        assert_eq!(SG.get(0), 1.5);
    }

    #[test]
    fn span_records_on_drop() {
        static H: LogLinearHist = LogLinearHist::new();
        {
            let _span = Span::start(&H);
        }
        assert_eq!(H.count(), 1);
    }

    #[test]
    fn registry_lists_every_layer() {
        let layers: Vec<&str> = registry().iter().map(|p| p.layer).collect();
        for layer in ["ingest", "storage", "query", "http", "locks"] {
            assert!(layers.contains(&layer), "missing layer {layer}");
        }
    }
}
