//! The probe table: every engine self-metric, declared once.
//!
//! Every probe is a fixed slot — a relaxed-atomic [`Counter`], a bit-cast
//! [`Gauge`], a per-shard array of either, or a [`LogLinearHist`] — recorded
//! into directly by the engine crates.  There is no registration step, no
//! locking and no allocation anywhere on the record path.
//!
//! The `probes!` table at the bottom of this file is the **single
//! declaration** of each metric family: its layer, exported name, help text,
//! optional member label and the statics behind it.  It expands to the
//! `pub static` slots the engine records into and to [`PROBES`], the table
//! the one walk behind [`crate::SelfSnapshot`] and [`crate::snapshot::build`]
//! interprets when the engine scrapes itself.  Adding a probe is one row there — nothing else in
//! this crate names a metric, except the three [`LOCK_FAMILIES`] whose points
//! come from the `parking_lot` shim's runtime contention table.

use std::sync::atomic::{AtomicU64, Ordering};

use teemon_metrics::{Labels, MetricKind};

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
    pub(crate) const fn new() -> Self {
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
    pub(crate) const fn new() -> Self {
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
    pub(crate) const fn new() -> Self {
        #[allow(
            clippy::declare_interior_mutable_const,
            reason = "the const only repeats a non-Copy initialiser; each array element is its own atomic"
        )]
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
    pub(crate) fn get(&self, shard: usize) -> u64 {
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
    pub(crate) const fn new() -> Self {
        #[allow(
            clippy::declare_interior_mutable_const,
            reason = "the const only repeats a non-Copy initialiser; each array element is its own atomic"
        )]
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
    pub(crate) fn get(&self, shard: usize) -> f64 {
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
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.hist.record_ns(self.watch.elapsed_ns());
    }
}

/// Where a [`Probe`] member's value lives: a reference to its static slot.
pub enum Slot {
    /// A monotonically increasing counter.
    Counter(&'static Counter),
    /// A last-value gauge.
    Gauge(&'static Gauge),
    /// A counter per storage shard, exported under a `shard` label.
    ShardCounters(&'static ShardCounters),
    /// A gauge per storage shard, exported under a `shard` label.
    ShardGauges(&'static ShardGauges),
    /// A latency histogram, exported in seconds.
    LogLinearHist(&'static LogLinearHist),
}

impl Slot {
    /// The metric kind a family of such slots exports as.
    pub(crate) fn kind(&self) -> MetricKind {
        match self {
            Slot::Counter(_) | Slot::ShardCounters(_) => MetricKind::Counter,
            Slot::Gauge(_) | Slot::ShardGauges(_) => MetricKind::Gauge,
            Slot::LogLinearHist(_) => MetricKind::Histogram,
        }
    }

    /// Visits the slot's current scalar values as `(shard, value)`: one
    /// `(None, v)` for a counter or gauge, `(Some(i), v)` per shard for the
    /// per-shard slots, nothing for a histogram (see [`Probe::hists`]).
    pub(crate) fn for_each_value(&self, mut visit: impl FnMut(Option<usize>, f64)) {
        match self {
            Slot::Counter(c) => visit(None, c.get() as f64),
            Slot::Gauge(g) => visit(None, g.get()),
            Slot::ShardCounters(s) => (0..SHARDS).for_each(|i| visit(Some(i), s.get(i) as f64)),
            Slot::ShardGauges(s) => (0..SHARDS).for_each(|i| visit(Some(i), s.get(i))),
            Slot::LogLinearHist(_) => {}
        }
    }
}

/// One metric family of the self-telemetry surface: a row of [`PROBES`].
pub struct Probe {
    /// Exported family name (a histogram's bucket, sum and count samples
    /// take it as their prefix on the wire).
    pub name: &'static str,
    /// The engine layer that records it: `ingest`, `storage`, `query`, `http`.
    pub layer: &'static str,
    /// What the family measures — the exported `# HELP` text.
    pub help: &'static str,
    /// The label that tells the members of a grouped family apart (`stage`,
    /// `mode`, `class`); empty for a family with a single member.
    pub label: &'static str,
    /// The slots behind the family, each with its value of [`Probe::label`].
    pub members: &'static [(&'static str, Slot)],
}

impl Probe {
    /// The family's metric kind, derived from its slots (a family's members
    /// all share one slot type).
    pub(crate) fn kind(&self) -> MetricKind {
        self.members.first().map_or(MetricKind::Untyped, |(_, slot)| slot.kind())
    }

    /// The label set of one point: the member's value under
    /// [`Probe::label`] (grouped families only), then the shard index for
    /// per-shard slots.
    pub(crate) fn labels(&self, member: &'static str, shard: Option<usize>) -> Labels {
        let labels = if self.label.is_empty() {
            Labels::new()
        } else {
            Labels::new().with(self.label, member)
        };
        match shard {
            Some(shard) => labels.with("shard", shard.to_string()),
            None => labels,
        }
    }

    /// The family's histogram members as `(label value, histogram)`.
    pub(crate) fn hists(&self) -> impl Iterator<Item = (&'static str, &'static LogLinearHist)> {
        self.members.iter().filter_map(|(member, slot)| match slot {
            Slot::LogLinearHist(hist) => Some((*member, *hist)),
            _ => None,
        })
    }
}

/// The lock-contention families (layer `locks`) as `(name, help)`: acquires,
/// contended acquisitions, wait-time histogram.  Their points are not static
/// slots — there is one per lock class in the `parking_lot` shim's runtime
/// `contention` table — so the walk appends them by hand after [`PROBES`].
pub const LOCK_FAMILIES: [(&str, &str); 3] = [
    ("teemon_lock_acquires_total", "lock acquisitions per lock class"),
    ("teemon_lock_contended_total", "acquisitions that found the lock held and waited"),
    ("teemon_lock_wait_seconds", "wait time of contended acquisitions per lock class"),
];

/// Declares the probe table.  Each row reads
/// `layer "family_name" "help" [by "label"] { STATIC: SlotType [= "label value"], … }`
/// and expands to one `pub static STATIC: SlotType` per member plus the
/// family's [`Probe`] entry in [`PROBES`], in declaration order (which is the
/// export order).
macro_rules! probes {
    ($(
        $layer:ident $name:literal $help:literal $(by $label:literal)? {
            $($slot:ident: $ty:ident $(= $member:literal)?),+ $(,)?
        }
    )+) => {
        $($(
            #[doc = concat!("`", $name, "`", $(" (`", $member, "`)",)? ": ", $help, ".")]
            pub static $slot: $ty = $ty::new();
        )+)+

        /// Every engine self-metric family except [`LOCK_FAMILIES`], in
        /// export order: the table the walk behind [`crate::SelfSnapshot`]
        /// and [`crate::snapshot::build`] interprets.
        pub static PROBES: &[Probe] = &[$(
            Probe {
                name: $name,
                layer: stringify!($layer),
                help: $help,
                label: probes!(@or_empty $($label)?),
                members: &[$((probes!(@or_empty $($member)?), Slot::$ty(&$slot))),+],
            },
        )+];
    };
    (@or_empty) => { "" };
    (@or_empty $text:literal) => { $text };
}

probes! {
    ingest "teemon_scrape_rounds_total" "scrape rounds that touched at least one target"
        { SCRAPE_ROUNDS: Counter }
    ingest "teemon_scrape_round_seconds" "measured wall time of whole scrape rounds"
        { SCRAPE_ROUND_NS: LogLinearHist }
    ingest "teemon_scrape_stage_seconds"
        "per-target stage timings: collect, cache_walk, append (meta samples too)" by "stage" {
        SCRAPE_COLLECT_NS: LogLinearHist = "collect",
        SCRAPE_CACHE_WALK_NS: LogLinearHist = "cache_walk",
        SCRAPE_APPEND_NS: LogLinearHist = "append",
    }
    ingest "teemon_scrape_cache_hits_total"
        "fast-lane rounds verified positionally against the scrape cache"
        { CACHE_HITS: Counter }
    ingest "teemon_scrape_cache_rebuilds_total" "fast-lane cache repairs after series churn"
        { CACHE_REBUILDS: Counter }
    ingest "teemon_scrape_stale_handles_total" "stale series handles hit during batch appends"
        { STALE_HANDLES: Counter }
    ingest "teemon_tsdb_shard_appends_total" "samples appended per storage shard (heat map)"
        { SHARD_APPENDS: ShardCounters }
    storage "teemon_tsdb_resident_bytes" "estimated bytes resident in sample storage"
        { STORAGE_RESIDENT_BYTES: Gauge }
    storage "teemon_tsdb_head_bytes"
        "the open heads' share of the resident bytes: blocks being built and their raw tails"
        { STORAGE_HEAD_BYTES: Gauge }
    storage "teemon_tsdb_samples" "stored samples (retention shrinks it)"
        { STORAGE_SAMPLES: Gauge }
    storage "teemon_tsdb_bytes_per_sample" "average resident bytes per stored sample"
        { STORAGE_BYTES_PER_SAMPLE: Gauge }
    storage "teemon_tsdb_series" "distinct series resident"
        { STORAGE_SERIES: Gauge }
    storage "teemon_tsdb_rejected_samples" "samples rejected as out of order, cumulative"
        { STORAGE_REJECTED_SAMPLES: Gauge }
    storage "teemon_tsdb_shard_series" "series resident per storage shard (imbalance view)"
        { SHARD_SERIES: ShardGauges }
    storage "teemon_tsdb_shard_generation" "storage shard generation (bumps on eviction/drop)"
        { SHARD_GENERATIONS: ShardGauges }
    storage "teemon_tsdb_symbols" "live interned symbols (names, label keys and values)"
        { STORAGE_SYMBOLS: Gauge }
    storage "teemon_tsdb_symbol_bytes" "estimated bytes held by the symbol table"
        { STORAGE_SYMBOL_BYTES: Gauge }
    storage "teemon_tsdb_index_bytes" "estimated bytes held by the per-shard postings indexes"
        { STORAGE_INDEX_BYTES: Gauge }
    storage "teemon_tsdb_series_bytes"
        "bytes held by the series records: arrays and key indexes at capacity, heads, chunk lists"
        { STORAGE_SERIES_BYTES: Gauge }
    storage "teemon_tsdb_symbols_swept_total"
        "symbols garbage-collected at symbol-table checkpoints"
        { SYMBOLS_SWEPT: Counter }
    storage "teemon_tsdb_stale_heads_sealed_total"
        "idle series' head buffers sealed into chunks and released by retention passes"
        { STALE_HEADS_SEALED: Counter }
    storage "teemon_tsdb_block_reencodes_total"
        "open integer blocks re-encoded as XOR blocks by their first value that is not a whole number"
        { BLOCK_REENCODES: Counter }
    ingest "teemon_scrape_budget_rejected_total"
        "series rejected by per-target/per-job cardinality budgets at the scrape edge"
        { SCRAPE_BUDGET_REJECTED: Counter }
    storage "teemon_wal_bytes_written_total" "bytes appended to the write-ahead log"
        { WAL_BYTES_WRITTEN: Counter }
    storage "teemon_wal_writes_total"
        "appends issued to the write-ahead log, one per committed round"
        { WAL_WRITES: Counter }
    storage "teemon_wal_flush_seconds"
        "measured wall time of WAL flushes: drain, checksum, write, checkpoints"
        { WAL_FLUSH_NS: LogLinearHist }
    storage "teemon_wal_fsync_seconds" "measured wall time of WAL fsyncs"
        { WAL_FSYNC_NS: LogLinearHist }
    storage "teemon_wal_records_replayed_total" "WAL records applied during crash recovery"
        { WAL_RECORDS_REPLAYED: Counter }
    storage "teemon_wal_salvage_total"
        "corrupt-tail truncation events during recovery (per salvaged file)"
        { WAL_SALVAGE: Counter }
    storage "teemon_wal_salvaged_bytes_total"
        "bytes discarded by corrupt-tail truncation during recovery"
        { WAL_SALVAGED_BYTES: Counter }
    storage "teemon_wal_recovery_seconds" "duration of the last crash recovery"
        { WAL_RECOVERY_SECONDS: Gauge }
    storage "teemon_wal_failed_shards"
        "shards whose WAL or snapshot was unreadable and came up empty"
        { WAL_FAILED_SHARDS: Gauge }
    storage "teemon_wal_unclean_rounds_total"
        "scrape rounds whose WAL flush hit a write/fsync failure (durability lost)"
        { WAL_UNCLEAN_ROUNDS: Counter }
    query "teemon_query_range_total"
        "range queries by evaluation mode: streamed or fallback" by "mode" {
        QUERY_STREAMED: Counter = "streamed",
        QUERY_FALLBACK: Counter = "fallback",
    }
    query "teemon_query_samples_decoded_total"
        "chunk samples decoded by streaming window machines"
        { QUERY_SAMPLES_DECODED: Counter }
    query "teemon_query_window_rebuilds_total" "window aggregate rebuilds (numeric-drift resets)"
        { QUERY_WINDOW_REBUILDS: Counter }
    query "teemon_query_irregular_series_total"
        "series under rate/increase that held a reset or a non-finite value and kept a running pair sum"
        { QUERY_IRREGULAR_SERIES: Counter }
    query "teemon_query_seconds" "measured wall time of range queries"
        { QUERY_NS: LogLinearHist }
    query "teemon_query_slow_total" "range queries over the slow-query threshold"
        { QUERY_SLOW: Counter }
    query "teemon_rule_evaluation_failures_total"
        "rule evaluations the query engine refused, so the rule recorded or raised nothing"
        { RULE_EVALUATION_FAILURES: Counter }
    http "teemon_http_connections_total" "connections accepted by the HTTP listener"
        { HTTP_CONNECTIONS: Counter }
    http "teemon_http_requests_total" "requests that entered the middleware stack"
        { HTTP_REQUESTS: Counter }
    http "teemon_http_responses_total" "responses sent, by status class: 2xx, 4xx, 5xx" by "class" {
        HTTP_RESPONSES_2XX: Counter = "2xx",
        HTTP_RESPONSES_4XX: Counter = "4xx",
        HTTP_RESPONSES_5XX: Counter = "5xx",
    }
    http "teemon_http_shed_total" "connections shed before parsing under overload (503)"
        { HTTP_SHED: Counter }
    http "teemon_http_panics_total" "handler panics caught by the panic shield (500)"
        { HTTP_PANICS: Counter }
    http "teemon_http_rate_limited_total" "requests rejected by the per-client token bucket (429)"
        { HTTP_RATE_LIMITED: Counter }
    http "teemon_http_slow_clients_total"
        "slow-loris clients timed out sending headers or body (408)"
        { HTTP_SLOW_CLIENTS: Counter }
    http "teemon_http_malformed_total" "malformed requests rejected by the parser (400)"
        { HTTP_MALFORMED: Counter }
    http "teemon_http_oversized_total" "requests rejected for exceeding a size limit (413)"
        { HTTP_OVERSIZED: Counter }
    http "teemon_http_inflight" "requests currently being served"
        { HTTP_INFLIGHT: Gauge }
    http "teemon_http_request_seconds" "measured wall time of handled requests"
        { HTTP_REQUEST_NS: LogLinearHist }
    http "teemon_http_ingested_samples_total" "samples ingested through the remote-write endpoint"
        { HTTP_INGESTED_SAMPLES: Counter }
    http "teemon_http_drained_total"
        "in-flight requests drained to completion during graceful shutdown"
        { HTTP_DRAINED: Counter }
    http "teemon_http_cardinality_rejected_total"
        "remote-write requests rejected by the per-request series budget (429)"
        { HTTP_CARDINALITY_REJECTED: Counter }
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
    fn table_is_well_formed() {
        let mut names: Vec<&str> = PROBES.iter().map(|p| p.name).collect();
        names.extend(LOCK_FAMILIES.map(|(name, _)| name));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a family name is declared twice");
        for probe in PROBES {
            let name = probe.name;
            assert_eq!(!probe.label.is_empty(), probe.members.len() > 1, "{name}: member label");
            for (member, slot) in probe.members {
                assert_eq!(member.is_empty(), probe.label.is_empty(), "{name}: label value");
                assert_eq!(slot.kind(), probe.kind(), "{name}: mixed slot types");
            }
        }
        for layer in ["ingest", "storage", "query", "http"] {
            assert!(PROBES.iter().any(|p| p.layer == layer), "missing layer {layer}");
        }
    }

    #[test]
    fn readme_lists_every_family() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split_once("## Self-observability")
            .map(|(_, rest)| rest.split("\n## ").next().unwrap_or(rest))
            .expect("README has a Self-observability section");
        let lock_names = LOCK_FAMILIES.map(|(name, _)| name);
        for name in PROBES.iter().map(|p| p.name).chain(lock_names) {
            assert!(section.contains(&format!("`{name}")), "README does not list {name}");
        }
    }
}
