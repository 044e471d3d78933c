//! The allocation-free self-scrape view of the probe registry.
//!
//! [`SelfSnapshot`] holds every probe pre-expanded into scalar
//! [`FamilySnapshot`]s — histograms appear as explicit `_bucket` (with `le`
//! labels), `_sum` and `_count` families, per-shard and per-lock-class
//! probes as labelled points — so the sample stream is byte-identical to
//! what [`FamilySnapshot::for_each_sample`] would produce from the canonical
//! bucketed form, without the per-scrape `le` label allocation that
//! expansion performs.
//!
//! The structure (family names, label sets, point order) is built once;
//! [`SelfSnapshot::refresh`] re-walks the same emission sequence and only
//! overwrites the scalar values in place.  Label closures are never invoked
//! on the refresh path, so a warm refresh performs zero allocations — and
//! because point positions never move between rounds, the scraper's
//! positional target cache verifies on every self-scrape.  The layout is
//! rebuilt (allocating, rare) only when a new lock class registers in the
//! `parking_lot` contention table.

use parking_lot::contention;
use teemon_metrics::{format_bound, FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};

use crate::hist::LogLinearHist;
use crate::probes;

/// One emission step: build mode materialises families and points, refresh
/// mode advances cursors and overwrites values.  `labels` is a thunk so the
/// refresh path never pays for label construction.
trait Emit {
    fn family(&mut self, name: &'static str, help: &'static str, kind: MetricKind);
    fn point(&mut self, labels: &mut dyn FnMut() -> Labels, value: f64);
}

/// Build mode: allocates the family/point structure.
struct BuildEmit {
    families: Vec<FamilySnapshot>,
}

impl Emit for BuildEmit {
    fn family(&mut self, name: &'static str, help: &'static str, kind: MetricKind) {
        self.families.push(FamilySnapshot::new(name, help, kind));
    }

    fn point(&mut self, labels: &mut dyn FnMut() -> Labels, value: f64) {
        if let Some(family) = self.families.last_mut() {
            let value = match family.kind {
                MetricKind::Counter => PointValue::Counter(value),
                MetricKind::Gauge => PointValue::Gauge(value),
                _ => PointValue::Untyped(value),
            };
            family.points.push(MetricPoint::new(labels(), value));
        }
    }
}

/// Refresh mode: walks the already-built structure with a (family, point)
/// cursor and overwrites scalar values only.  Any cursor/shape mismatch
/// (a probe emitted more or fewer points than the built layout) flips
/// `mismatch`, telling the caller to rebuild.
struct RefreshEmit<'a> {
    families: &'a mut [FamilySnapshot],
    family: Option<usize>,
    point: usize,
    mismatch: bool,
}

impl Emit for RefreshEmit<'_> {
    fn family(&mut self, _name: &'static str, _help: &'static str, _kind: MetricKind) {
        let next = self.family.map_or(0, |f| f + 1);
        if let Some(family) = self.family {
            // The previous family must have been walked exactly.
            if self.families.get(family).map(|f| f.points.len()) != Some(self.point) {
                self.mismatch = true;
            }
        }
        self.family = Some(next);
        self.point = 0;
        if next >= self.families.len() {
            self.mismatch = true;
        }
    }

    fn point(&mut self, _labels: &mut dyn FnMut() -> Labels, value: f64) {
        let slot = self
            .family
            .and_then(|f| self.families.get_mut(f))
            .and_then(|family| family.points.get_mut(self.point));
        match slot {
            Some(point) => {
                match &mut point.value {
                    PointValue::Counter(v) | PointValue::Gauge(v) | PointValue::Untyped(v) => {
                        *v = value;
                    }
                    _ => self.mismatch = true,
                }
                self.point += 1;
            }
            None => self.mismatch = true,
        }
    }
}

/// Emits one histogram as pre-expanded `_bucket`/`_sum`/`_count` scalar
/// families (cumulative counts, `le` labels via [`format_bound`] — identical
/// on the wire to the canonical bucketed expansion).
fn emit_hist(
    e: &mut dyn Emit,
    bucket_name: &'static str,
    sum_name: &'static str,
    count_name: &'static str,
    help: &'static str,
    hist: &LogLinearHist,
) {
    e.family(bucket_name, help, MetricKind::Counter);
    hist.for_each_cumulative(&mut |bound, cumulative| {
        e.point(&mut || Labels::new().with("le", format_bound(bound)), cumulative as f64);
    });
    e.family(sum_name, help, MetricKind::Counter);
    e.point(&mut Labels::new, hist.sum_ns() as f64 / 1e9);
    e.family(count_name, help, MetricKind::Counter);
    e.point(&mut Labels::new, hist.count() as f64);
}

/// Number of lock classes currently registered in the contention table.
fn lock_class_count() -> usize {
    let mut n = 0usize;
    contention::for_each(&mut |_| n += 1);
    n
}

/// The full emission sequence: every probe in [`probes::registry`] order —
/// ingest, storage, query, then the lock-contention table.  Called with a
/// [`BuildEmit`] to create the layout and a [`RefreshEmit`] to update it.
fn emit_all(e: &mut dyn Emit) {
    // --- ingest ---
    e.family(
        "teemon_scrape_rounds_total",
        "scrape rounds that touched at least one target",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::SCRAPE_ROUNDS.get() as f64);
    emit_hist(
        e,
        "teemon_scrape_round_seconds_bucket",
        "teemon_scrape_round_seconds_sum",
        "teemon_scrape_round_seconds_count",
        "measured wall time of whole scrape rounds",
        &probes::SCRAPE_ROUND_NS,
    );
    let stages: [(&str, &'static LogLinearHist); 3] = [
        ("collect", &probes::SCRAPE_COLLECT_NS),
        ("cache_walk", &probes::SCRAPE_CACHE_WALK_NS),
        ("append", &probes::SCRAPE_APPEND_NS),
    ];
    e.family(
        "teemon_scrape_stage_seconds_bucket",
        "per-target scrape stage timings",
        MetricKind::Counter,
    );
    for (stage, hist) in stages {
        hist.for_each_cumulative(&mut |bound, cumulative| {
            e.point(
                &mut || Labels::new().with("stage", stage).with("le", format_bound(bound)),
                cumulative as f64,
            );
        });
    }
    e.family(
        "teemon_scrape_stage_seconds_sum",
        "per-target scrape stage timings",
        MetricKind::Counter,
    );
    for (stage, hist) in stages {
        e.point(&mut || Labels::new().with("stage", stage), hist.sum_ns() as f64 / 1e9);
    }
    e.family(
        "teemon_scrape_stage_seconds_count",
        "per-target scrape stage timings",
        MetricKind::Counter,
    );
    for (stage, hist) in stages {
        e.point(&mut || Labels::new().with("stage", stage), hist.count() as f64);
    }
    e.family(
        "teemon_scrape_cache_hits_total",
        "fast-lane rounds verified positionally against the scrape cache",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::CACHE_HITS.get() as f64);
    e.family(
        "teemon_scrape_cache_rebuilds_total",
        "fast-lane cache repairs after series churn",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::CACHE_REBUILDS.get() as f64);
    e.family(
        "teemon_scrape_stale_handles_total",
        "stale series handles hit during batch appends",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::STALE_HANDLES.get() as f64);
    e.family(
        "teemon_tsdb_shard_appends_total",
        "samples appended per storage shard (heat map)",
        MetricKind::Counter,
    );
    for shard in 0..probes::SHARDS {
        e.point(
            &mut || Labels::new().with("shard", shard.to_string()),
            probes::SHARD_APPENDS.get(shard) as f64,
        );
    }

    // --- storage ---
    e.family(
        "teemon_tsdb_resident_bytes",
        "estimated bytes resident in sample storage",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_RESIDENT_BYTES.get());
    e.family("teemon_tsdb_samples", "stored samples (retention shrinks it)", MetricKind::Gauge);
    e.point(&mut Labels::new, probes::STORAGE_SAMPLES.get());
    e.family(
        "teemon_tsdb_bytes_per_sample",
        "average resident bytes per stored sample",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_BYTES_PER_SAMPLE.get());
    e.family("teemon_tsdb_series", "distinct series resident", MetricKind::Gauge);
    e.point(&mut Labels::new, probes::STORAGE_SERIES.get());
    e.family(
        "teemon_tsdb_rejected_samples",
        "samples rejected as out of order, cumulative",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_REJECTED_SAMPLES.get());
    e.family(
        "teemon_tsdb_shard_series",
        "series resident per storage shard (imbalance view)",
        MetricKind::Gauge,
    );
    for shard in 0..probes::SHARDS {
        e.point(
            &mut || Labels::new().with("shard", shard.to_string()),
            probes::SHARD_SERIES.get(shard),
        );
    }
    e.family(
        "teemon_tsdb_shard_generation",
        "storage shard generation (bumps on eviction/drop)",
        MetricKind::Gauge,
    );
    for shard in 0..probes::SHARDS {
        e.point(
            &mut || Labels::new().with("shard", shard.to_string()),
            probes::SHARD_GENERATIONS.get(shard),
        );
    }
    e.family(
        "teemon_tsdb_symbols",
        "live interned symbols (names, label keys and values)",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_SYMBOLS.get());
    e.family(
        "teemon_tsdb_symbol_bytes",
        "estimated bytes held by the symbol table",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_SYMBOL_BYTES.get());
    e.family(
        "teemon_tsdb_index_bytes",
        "estimated bytes held by the per-shard postings indexes",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::STORAGE_INDEX_BYTES.get());
    e.family(
        "teemon_tsdb_symbols_swept_total",
        "symbols garbage-collected at symbol-table checkpoints",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::SYMBOLS_SWEPT.get() as f64);
    e.family(
        "teemon_scrape_budget_rejected_total",
        "series rejected by per-target/per-job cardinality budgets at the scrape edge",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::SCRAPE_BUDGET_REJECTED.get() as f64);

    // --- durability / WAL ---
    e.family(
        "teemon_wal_bytes_written_total",
        "bytes appended to write-ahead logs",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_BYTES_WRITTEN.get() as f64);
    e.family(
        "teemon_wal_writes_total",
        "appends issued to the write-ahead log, one per committed round",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_WRITES.get() as f64);
    emit_hist(
        e,
        "teemon_wal_flush_seconds_bucket",
        "teemon_wal_flush_seconds_sum",
        "teemon_wal_flush_seconds_count",
        "measured wall time of WAL flushes",
        &probes::WAL_FLUSH_NS,
    );
    emit_hist(
        e,
        "teemon_wal_fsync_seconds_bucket",
        "teemon_wal_fsync_seconds_sum",
        "teemon_wal_fsync_seconds_count",
        "measured wall time of WAL fsyncs",
        &probes::WAL_FSYNC_NS,
    );
    e.family(
        "teemon_wal_records_replayed_total",
        "WAL records applied during crash recovery",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_RECORDS_REPLAYED.get() as f64);
    e.family(
        "teemon_wal_salvage_total",
        "corrupt-tail truncation events during recovery",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_SALVAGE.get() as f64);
    e.family(
        "teemon_wal_salvaged_bytes_total",
        "bytes discarded by corrupt-tail truncation during recovery",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_SALVAGED_BYTES.get() as f64);
    e.family(
        "teemon_wal_recovery_seconds",
        "duration of the last crash recovery",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::WAL_RECOVERY_SECONDS.get());
    e.family(
        "teemon_wal_failed_shards",
        "shards whose WAL or snapshot was unreadable and came up empty",
        MetricKind::Gauge,
    );
    e.point(&mut Labels::new, probes::WAL_FAILED_SHARDS.get());
    e.family(
        "teemon_wal_unclean_rounds_total",
        "scrape rounds whose WAL flush hit a write/fsync failure (durability lost)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::WAL_UNCLEAN_ROUNDS.get() as f64);

    // --- query ---
    e.family("teemon_query_range_total", "range queries by evaluation mode", MetricKind::Counter);
    e.point(&mut || Labels::new().with("mode", "streamed"), probes::QUERY_STREAMED.get() as f64);
    e.point(&mut || Labels::new().with("mode", "fallback"), probes::QUERY_FALLBACK.get() as f64);
    e.family(
        "teemon_query_samples_decoded_total",
        "chunk samples decoded by streaming window machines",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::QUERY_SAMPLES_DECODED.get() as f64);
    e.family(
        "teemon_query_window_rebuilds_total",
        "window aggregate rebuilds (numeric-drift resets)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::QUERY_WINDOW_REBUILDS.get() as f64);
    emit_hist(
        e,
        "teemon_query_seconds_bucket",
        "teemon_query_seconds_sum",
        "teemon_query_seconds_count",
        "measured wall time of range queries",
        &probes::QUERY_NS,
    );
    e.family(
        "teemon_query_slow_total",
        "range queries over the slow-query threshold",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::QUERY_SLOW.get() as f64);

    // --- http ---
    e.family(
        "teemon_http_connections_total",
        "connections accepted by the HTTP listener",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_CONNECTIONS.get() as f64);
    e.family(
        "teemon_http_requests_total",
        "requests that entered the middleware stack",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_REQUESTS.get() as f64);
    e.family("teemon_http_responses_total", "responses sent, by status class", MetricKind::Counter);
    e.point(&mut || Labels::new().with("class", "2xx"), probes::HTTP_RESPONSES_2XX.get() as f64);
    e.point(&mut || Labels::new().with("class", "4xx"), probes::HTTP_RESPONSES_4XX.get() as f64);
    e.point(&mut || Labels::new().with("class", "5xx"), probes::HTTP_RESPONSES_5XX.get() as f64);
    e.family(
        "teemon_http_shed_total",
        "connections shed before parsing under overload (503)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_SHED.get() as f64);
    e.family(
        "teemon_http_panics_total",
        "handler panics caught by the panic shield (500)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_PANICS.get() as f64);
    e.family(
        "teemon_http_rate_limited_total",
        "requests rejected by the per-client token bucket (429)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_RATE_LIMITED.get() as f64);
    e.family(
        "teemon_http_slow_clients_total",
        "slow-loris clients timed out sending headers or body (408)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_SLOW_CLIENTS.get() as f64);
    e.family(
        "teemon_http_malformed_total",
        "malformed requests rejected by the parser (400)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_MALFORMED.get() as f64);
    e.family(
        "teemon_http_oversized_total",
        "requests rejected for exceeding a size limit (413)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_OVERSIZED.get() as f64);
    e.family("teemon_http_inflight", "requests currently being served", MetricKind::Gauge);
    e.point(&mut Labels::new, probes::HTTP_INFLIGHT.get());
    emit_hist(
        e,
        "teemon_http_request_seconds_bucket",
        "teemon_http_request_seconds_sum",
        "teemon_http_request_seconds_count",
        "measured wall time of handled requests",
        &probes::HTTP_REQUEST_NS,
    );
    e.family(
        "teemon_http_ingested_samples_total",
        "samples ingested through the remote-write endpoint",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_INGESTED_SAMPLES.get() as f64);
    e.family(
        "teemon_http_drained_total",
        "in-flight requests drained to completion during graceful shutdown",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_DRAINED.get() as f64);
    e.family(
        "teemon_http_cardinality_rejected_total",
        "remote-write requests rejected by the per-request series budget (429)",
        MetricKind::Counter,
    );
    e.point(&mut Labels::new, probes::HTTP_CARDINALITY_REJECTED.get() as f64);

    // --- locks (one point per registered contention class) ---
    e.family("teemon_lock_acquires_total", "lock acquisitions per lock class", MetricKind::Counter);
    contention::for_each(&mut |class| {
        e.point(&mut || Labels::new().with("class", class.name), class.acquires as f64);
    });
    e.family(
        "teemon_lock_contended_total",
        "acquisitions that found the lock held and waited",
        MetricKind::Counter,
    );
    contention::for_each(&mut |class| {
        e.point(&mut || Labels::new().with("class", class.name), class.contended as f64);
    });
    e.family(
        "teemon_lock_wait_seconds_bucket",
        "wait time of contended acquisitions per lock class",
        MetricKind::Counter,
    );
    contention::for_each(&mut |class| {
        let mut cumulative = 0u64;
        for (i, bucket) in class.wait_buckets.iter().enumerate() {
            cumulative += bucket;
            let bound = if i >= contention::WAIT_BUCKETS - 1 {
                f64::INFINITY
            } else {
                contention::bucket_upper_bound_ns(i) as f64 / 1e9
            };
            e.point(
                &mut || Labels::new().with("class", class.name).with("le", format_bound(bound)),
                cumulative as f64,
            );
        }
    });
    e.family(
        "teemon_lock_wait_seconds_sum",
        "wait time of contended acquisitions per lock class",
        MetricKind::Counter,
    );
    contention::for_each(&mut |class| {
        e.point(&mut || Labels::new().with("class", class.name), class.wait_ns_sum as f64 / 1e9);
    });
    e.family(
        "teemon_lock_wait_seconds_count",
        "wait time of contended acquisitions per lock class",
        MetricKind::Counter,
    );
    contention::for_each(&mut |class| {
        e.point(&mut || Labels::new().with("class", class.name), class.contended as f64);
    });
}

/// The engine's own telemetry, pre-expanded for allocation-free refresh.
///
/// Build one with [`SelfSnapshot::new`], then call
/// [`SelfSnapshot::refresh`] before each read of
/// [`SelfSnapshot::families`].  A warm refresh (no new lock classes since
/// the last build) allocates nothing and keeps every family and point at a
/// stable position.
pub struct SelfSnapshot {
    families: Vec<FamilySnapshot>,
    lock_classes: usize,
}

impl SelfSnapshot {
    /// Builds the expanded family layout from the current probe values.
    pub fn new() -> Self {
        let mut snap = Self { families: Vec::new(), lock_classes: 0 };
        snap.rebuild();
        snap
    }

    fn rebuild(&mut self) {
        self.lock_classes = lock_class_count();
        let mut build = BuildEmit { families: Vec::new() };
        emit_all(&mut build);
        self.families = build.families;
    }

    /// Re-reads every probe into the existing layout.  Allocation-free on
    /// the warm path; rebuilds (allocating) only when the set of registered
    /// lock classes changed or the layout no longer matches.
    pub fn refresh(&mut self) {
        if lock_class_count() != self.lock_classes {
            self.rebuild();
            return;
        }
        let mut refresh =
            RefreshEmit { families: &mut self.families, family: None, point: 0, mismatch: false };
        emit_all(&mut refresh);
        if refresh.mismatch {
            self.rebuild();
        }
    }

    /// The expanded families (call [`SelfSnapshot::refresh`] first for
    /// current values).
    pub fn families(&self) -> &[FamilySnapshot] {
        &self.families
    }
}

impl Default for SelfSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hist;

    #[test]
    fn layout_expands_histograms_like_the_canonical_form() {
        let snap = SelfSnapshot::new();
        let bucket = snap
            .families()
            .iter()
            .find(|f| f.name == "teemon_scrape_round_seconds_bucket")
            .expect("bucket family");
        assert_eq!(bucket.points.len(), hist::BUCKETS);
        for (i, point) in bucket.points.iter().enumerate() {
            assert_eq!(
                point.labels.get("le").map(str::to_owned),
                Some(format_bound(hist::bound_seconds(i))),
            );
        }
        let last = bucket.points.last().expect("at least one bucket");
        assert_eq!(last.labels.get("le"), Some("+Inf"));
    }

    #[test]
    fn refresh_updates_values_without_moving_points() {
        let mut snap = SelfSnapshot::new();
        // The `teemon_lock_*` families are documented to follow the lock
        // class table, which a concurrent test in this binary
        // (`lock_families_track_registered_classes`) grows: they are the one
        // part of the layout a refresh may legitimately extend.
        let layout = |snap: &SelfSnapshot| -> Vec<(String, usize)> {
            snap.families()
                .iter()
                .filter(|f| !f.name.starts_with("teemon_lock_"))
                .map(|f| (f.name.clone(), f.points.len()))
                .collect()
        };
        let before_layout = layout(&snap);
        let find = |snap: &SelfSnapshot, name: &str| -> f64 {
            snap.families()
                .iter()
                .find(|f| f.name == name)
                .and_then(|f| f.points.first())
                .map(|p| p.value.scalar())
                .expect("family with a point")
        };
        let before = find(&snap, "teemon_scrape_cache_hits_total");
        probes::CACHE_HITS.add(3);
        probes::STORAGE_SERIES.set(1234.0);
        snap.refresh();
        // Values moved, structure did not (other tests may also bump probes,
        // so assert monotonically).
        assert!(find(&snap, "teemon_scrape_cache_hits_total") >= before + 3.0);
        assert_eq!(find(&snap, "teemon_tsdb_series"), 1234.0);
        assert_eq!(before_layout, layout(&snap));
    }

    #[test]
    fn lock_families_track_registered_classes() {
        // Registering a class (by constructing a named lock) must surface a
        // labelled point after refresh even though the layout was built
        // earlier.
        let mut snap = SelfSnapshot::new();
        let lock = parking_lot::Mutex::named(0u32, parking_lot::LockClass::new("obs.test_class"));
        *lock.lock() += 1;
        snap.refresh();
        let acquires = snap
            .families()
            .iter()
            .find(|f| f.name == "teemon_lock_acquires_total")
            .expect("acquires family");
        let point = acquires
            .points
            .iter()
            .find(|p| p.labels.get("class") == Some("obs.test_class"))
            .expect("class point after refresh rebuild");
        assert!(point.value.scalar() >= 1.0);
    }

    #[test]
    fn every_registry_probe_is_exported() {
        // Each registry row's metric name must appear among the expanded
        // families (histograms via their `_bucket` expansion).
        let snap = SelfSnapshot::new();
        for probe in probes::registry() {
            let found = snap
                .families()
                .iter()
                .any(|f| f.name == probe.name || f.name == format!("{}_bucket", probe.name));
            assert!(found, "probe {} not exported", probe.name);
        }
    }
}
