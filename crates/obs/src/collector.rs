//! [`ObsCollector`]: the probe registry exposed through the standard
//! [`Collector`] trait.
//!
//! This is the canonical (bucketed) view of the same probes that
//! [`crate::SelfSnapshot`] pre-expands: histograms are emitted as
//! [`PointValue::Histogram`] points, so the collector plugs into everything
//! that consumes collectors — the text exposition renderer, registries, and
//! the scraper's collector endpoints.  The expanded sample stream is
//! identical to [`crate::SelfSnapshot`]'s by construction (a unit test
//! asserts it), the difference is purely cost: `collect` allocates a fresh
//! snapshot per call, which is fine for `/metrics`-style exposition but not
//! for the engine's own per-round self-scrape — the scraper uses the
//! in-place [`crate::SelfSnapshot`] path for that.

use parking_lot::contention;
use teemon_metrics::{
    CollectError, Collector, FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint,
    PointValue,
};

use crate::hist::LogLinearHist;
use crate::probes;

/// The default job label under which the engine scrapes itself.
pub const SELF_JOB: &str = "teemon_self";

/// A [`Collector`] over the engine's own probe registry.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsCollector;

impl ObsCollector {
    /// Creates the collector (stateless; the probes are static).
    pub fn new() -> Self {
        Self
    }
}

fn counter(name: &'static str, help: &'static str, value: u64) -> FamilySnapshot {
    FamilySnapshot::new(name, help, MetricKind::Counter)
        .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(value as f64)))
}

fn gauge(name: &'static str, help: &'static str, value: f64) -> FamilySnapshot {
    FamilySnapshot::new(name, help, MetricKind::Gauge)
        .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(value)))
}

fn histogram(name: &'static str, help: &'static str, hist: &LogLinearHist) -> FamilySnapshot {
    FamilySnapshot::new(name, help, MetricKind::Histogram)
        .with_point(MetricPoint::new(Labels::new(), PointValue::Histogram(hist.snapshot())))
}

fn per_shard_counter(
    name: &'static str,
    help: &'static str,
    get: impl Fn(usize) -> u64,
) -> FamilySnapshot {
    let mut family = FamilySnapshot::new(name, help, MetricKind::Counter);
    for shard in 0..probes::SHARDS {
        family.points.push(MetricPoint::new(
            Labels::new().with("shard", shard.to_string()),
            PointValue::Counter(get(shard) as f64),
        ));
    }
    family
}

fn per_shard_gauge(
    name: &'static str,
    help: &'static str,
    get: impl Fn(usize) -> f64,
) -> FamilySnapshot {
    let mut family = FamilySnapshot::new(name, help, MetricKind::Gauge);
    for shard in 0..probes::SHARDS {
        family.points.push(MetricPoint::new(
            Labels::new().with("shard", shard.to_string()),
            PointValue::Gauge(get(shard)),
        ));
    }
    family
}

/// The canonical bucketed form of one lock class's wait histogram.
fn wait_snapshot(class: &contention::ClassContention) -> HistogramSnapshot {
    let mut bounds = Vec::with_capacity(contention::WAIT_BUCKETS - 1);
    let mut cumulative_counts = Vec::with_capacity(contention::WAIT_BUCKETS);
    let mut cumulative = 0u64;
    for (i, bucket) in class.wait_buckets.iter().enumerate() {
        cumulative += bucket;
        if i < contention::WAIT_BUCKETS - 1 {
            bounds.push(contention::bucket_upper_bound_ns(i) as f64 / 1e9);
        }
        cumulative_counts.push(cumulative);
    }
    HistogramSnapshot {
        bounds,
        cumulative_counts,
        sum: class.wait_ns_sum as f64 / 1e9,
        count: class.contended,
    }
}

impl Collector for ObsCollector {
    fn job_name(&self) -> &str {
        SELF_JOB
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
        let mut families = vec![
            // --- ingest ---
            counter(
                "teemon_scrape_rounds_total",
                "scrape rounds that touched at least one target",
                probes::SCRAPE_ROUNDS.get(),
            ),
            histogram(
                "teemon_scrape_round_seconds",
                "measured wall time of whole scrape rounds",
                &probes::SCRAPE_ROUND_NS,
            ),
        ];
        let mut stage = FamilySnapshot::new(
            "teemon_scrape_stage_seconds",
            "per-target scrape stage timings",
            MetricKind::Histogram,
        );
        for (name, hist) in [
            ("collect", &probes::SCRAPE_COLLECT_NS),
            ("cache_walk", &probes::SCRAPE_CACHE_WALK_NS),
            ("append", &probes::SCRAPE_APPEND_NS),
        ] {
            stage.points.push(MetricPoint::new(
                Labels::new().with("stage", name),
                PointValue::Histogram(hist.snapshot()),
            ));
        }
        families.push(stage);
        families.extend([
            counter(
                "teemon_scrape_cache_hits_total",
                "fast-lane rounds verified positionally against the scrape cache",
                probes::CACHE_HITS.get(),
            ),
            counter(
                "teemon_scrape_cache_rebuilds_total",
                "fast-lane cache repairs after series churn",
                probes::CACHE_REBUILDS.get(),
            ),
            counter(
                "teemon_scrape_stale_handles_total",
                "stale series handles hit during batch appends",
                probes::STALE_HANDLES.get(),
            ),
            per_shard_counter(
                "teemon_tsdb_shard_appends_total",
                "samples appended per storage shard (heat map)",
                |s| probes::SHARD_APPENDS.get(s),
            ),
            // --- storage ---
            gauge(
                "teemon_tsdb_resident_bytes",
                "estimated bytes resident in sample storage",
                probes::STORAGE_RESIDENT_BYTES.get(),
            ),
            gauge(
                "teemon_tsdb_samples",
                "stored samples (retention shrinks it)",
                probes::STORAGE_SAMPLES.get(),
            ),
            gauge(
                "teemon_tsdb_bytes_per_sample",
                "average resident bytes per stored sample",
                probes::STORAGE_BYTES_PER_SAMPLE.get(),
            ),
            gauge("teemon_tsdb_series", "distinct series resident", probes::STORAGE_SERIES.get()),
            gauge(
                "teemon_tsdb_rejected_samples",
                "samples rejected as out of order, cumulative",
                probes::STORAGE_REJECTED_SAMPLES.get(),
            ),
            per_shard_gauge(
                "teemon_tsdb_shard_series",
                "series resident per storage shard (imbalance view)",
                |s| probes::SHARD_SERIES.get(s),
            ),
            per_shard_gauge(
                "teemon_tsdb_shard_generation",
                "storage shard generation (bumps on eviction/drop)",
                |s| probes::SHARD_GENERATIONS.get(s),
            ),
            gauge(
                "teemon_tsdb_symbols",
                "live interned symbols (names, label keys and values)",
                probes::STORAGE_SYMBOLS.get(),
            ),
            gauge(
                "teemon_tsdb_symbol_bytes",
                "estimated bytes held by the symbol table",
                probes::STORAGE_SYMBOL_BYTES.get(),
            ),
            gauge(
                "teemon_tsdb_index_bytes",
                "estimated bytes held by the per-shard postings indexes",
                probes::STORAGE_INDEX_BYTES.get(),
            ),
            counter(
                "teemon_tsdb_symbols_swept_total",
                "symbols garbage-collected at symbol-table checkpoints",
                probes::SYMBOLS_SWEPT.get(),
            ),
            counter(
                "teemon_scrape_budget_rejected_total",
                "series rejected by per-target/per-job cardinality budgets at the scrape edge",
                probes::SCRAPE_BUDGET_REJECTED.get(),
            ),
            // --- durability / WAL ---
            counter(
                "teemon_wal_bytes_written_total",
                "bytes appended to write-ahead logs",
                probes::WAL_BYTES_WRITTEN.get(),
            ),
            counter(
                "teemon_wal_writes_total",
                "appends issued to the write-ahead log, one per committed round",
                probes::WAL_WRITES.get(),
            ),
            histogram(
                "teemon_wal_flush_seconds",
                "measured wall time of WAL flushes",
                &probes::WAL_FLUSH_NS,
            ),
            histogram(
                "teemon_wal_fsync_seconds",
                "measured wall time of WAL fsyncs",
                &probes::WAL_FSYNC_NS,
            ),
            counter(
                "teemon_wal_records_replayed_total",
                "WAL records applied during crash recovery",
                probes::WAL_RECORDS_REPLAYED.get(),
            ),
            counter(
                "teemon_wal_salvage_total",
                "corrupt-tail truncation events during recovery",
                probes::WAL_SALVAGE.get(),
            ),
            counter(
                "teemon_wal_salvaged_bytes_total",
                "bytes discarded by corrupt-tail truncation during recovery",
                probes::WAL_SALVAGED_BYTES.get(),
            ),
            gauge(
                "teemon_wal_recovery_seconds",
                "duration of the last crash recovery",
                probes::WAL_RECOVERY_SECONDS.get(),
            ),
            gauge(
                "teemon_wal_failed_shards",
                "shards whose WAL or snapshot was unreadable and came up empty",
                probes::WAL_FAILED_SHARDS.get(),
            ),
            counter(
                "teemon_wal_unclean_rounds_total",
                "scrape rounds whose WAL flush hit a write/fsync failure (durability lost)",
                probes::WAL_UNCLEAN_ROUNDS.get(),
            ),
        ]);
        // --- query ---
        let mut modes = FamilySnapshot::new(
            "teemon_query_range_total",
            "range queries by evaluation mode",
            MetricKind::Counter,
        );
        modes.points.push(MetricPoint::new(
            Labels::new().with("mode", "streamed"),
            PointValue::Counter(probes::QUERY_STREAMED.get() as f64),
        ));
        modes.points.push(MetricPoint::new(
            Labels::new().with("mode", "fallback"),
            PointValue::Counter(probes::QUERY_FALLBACK.get() as f64),
        ));
        families.push(modes);
        families.extend([
            counter(
                "teemon_query_samples_decoded_total",
                "chunk samples decoded by streaming window machines",
                probes::QUERY_SAMPLES_DECODED.get(),
            ),
            counter(
                "teemon_query_window_rebuilds_total",
                "window aggregate rebuilds (numeric-drift resets)",
                probes::QUERY_WINDOW_REBUILDS.get(),
            ),
            histogram(
                "teemon_query_seconds",
                "measured wall time of range queries",
                &probes::QUERY_NS,
            ),
            counter(
                "teemon_query_slow_total",
                "range queries over the slow-query threshold",
                probes::QUERY_SLOW.get(),
            ),
        ]);
        // --- http ---
        families.extend([
            counter(
                "teemon_http_connections_total",
                "connections accepted by the HTTP listener",
                probes::HTTP_CONNECTIONS.get(),
            ),
            counter(
                "teemon_http_requests_total",
                "requests that entered the middleware stack",
                probes::HTTP_REQUESTS.get(),
            ),
        ]);
        let mut classes = FamilySnapshot::new(
            "teemon_http_responses_total",
            "responses sent, by status class",
            MetricKind::Counter,
        );
        for (class, count) in [
            ("2xx", probes::HTTP_RESPONSES_2XX.get()),
            ("4xx", probes::HTTP_RESPONSES_4XX.get()),
            ("5xx", probes::HTTP_RESPONSES_5XX.get()),
        ] {
            classes.points.push(MetricPoint::new(
                Labels::new().with("class", class),
                PointValue::Counter(count as f64),
            ));
        }
        families.push(classes);
        families.extend([
            counter(
                "teemon_http_shed_total",
                "connections shed before parsing under overload (503)",
                probes::HTTP_SHED.get(),
            ),
            counter(
                "teemon_http_panics_total",
                "handler panics caught by the panic shield (500)",
                probes::HTTP_PANICS.get(),
            ),
            counter(
                "teemon_http_rate_limited_total",
                "requests rejected by the per-client token bucket (429)",
                probes::HTTP_RATE_LIMITED.get(),
            ),
            counter(
                "teemon_http_slow_clients_total",
                "slow-loris clients timed out sending headers or body (408)",
                probes::HTTP_SLOW_CLIENTS.get(),
            ),
            counter(
                "teemon_http_malformed_total",
                "malformed requests rejected by the parser (400)",
                probes::HTTP_MALFORMED.get(),
            ),
            counter(
                "teemon_http_oversized_total",
                "requests rejected for exceeding a size limit (413)",
                probes::HTTP_OVERSIZED.get(),
            ),
            gauge(
                "teemon_http_inflight",
                "requests currently being served",
                probes::HTTP_INFLIGHT.get(),
            ),
            histogram(
                "teemon_http_request_seconds",
                "measured wall time of handled requests",
                &probes::HTTP_REQUEST_NS,
            ),
            counter(
                "teemon_http_ingested_samples_total",
                "samples ingested through the remote-write endpoint",
                probes::HTTP_INGESTED_SAMPLES.get(),
            ),
            counter(
                "teemon_http_drained_total",
                "in-flight requests drained to completion during graceful shutdown",
                probes::HTTP_DRAINED.get(),
            ),
            counter(
                "teemon_http_cardinality_rejected_total",
                "remote-write requests rejected by the per-request series budget (429)",
                probes::HTTP_CARDINALITY_REJECTED.get(),
            ),
        ]);
        // --- locks ---
        let mut acquires = FamilySnapshot::new(
            "teemon_lock_acquires_total",
            "lock acquisitions per lock class",
            MetricKind::Counter,
        );
        let mut contended = FamilySnapshot::new(
            "teemon_lock_contended_total",
            "acquisitions that found the lock held and waited",
            MetricKind::Counter,
        );
        let mut waits = FamilySnapshot::new(
            "teemon_lock_wait_seconds",
            "wait time of contended acquisitions per lock class",
            MetricKind::Histogram,
        );
        contention::for_each(&mut |class| {
            let labels = Labels::new().with("class", class.name);
            acquires
                .points
                .push(MetricPoint::new(labels.clone(), PointValue::Counter(class.acquires as f64)));
            contended.points.push(MetricPoint::new(
                labels.clone(),
                PointValue::Counter(class.contended as f64),
            ));
            waits
                .points
                .push(MetricPoint::new(labels, PointValue::Histogram(wait_snapshot(class))));
        });
        families.extend([acquires, contended, waits]);
        Ok(families)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SelfSnapshot;

    /// Flattens families into `(sample_name, labels, value)` rows via the
    /// canonical expansion.
    fn samples_of(families: &[FamilySnapshot]) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for family in families {
            family.for_each_sample(|name, labels: &Labels, value, _ts| {
                let mut rendered: Vec<String> =
                    labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                rendered.sort();
                out.push((name.to_string(), rendered.join(","), value));
            });
        }
        out
    }

    #[test]
    fn job_name_is_the_self_job() {
        assert_eq!(ObsCollector::new().job_name(), SELF_JOB);
    }

    #[test]
    fn canonical_and_preexpanded_forms_agree_on_the_wire() {
        // The collector's bucketed families and the in-place SelfSnapshot
        // must expand to the same (name, labels) sample stream — this is
        // what makes the two self-scrape paths interchangeable.  Values can
        // race (other tests record into the shared probes), so compare the
        // series identities only.
        // The canonical form interleaves `_bucket`/`_sum`/`_count` per point
        // while the pre-expanded form groups whole families, so compare the
        // sample *set*, not the order.
        let collected = ObsCollector::new().collect().expect("collect is infallible");
        let snap = SelfSnapshot::new();
        let mut canonical: Vec<(String, String)> =
            samples_of(&collected).into_iter().map(|(n, l, _)| (n, l)).collect();
        let mut expanded: Vec<(String, String)> =
            samples_of(snap.families()).into_iter().map(|(n, l, _)| (n, l)).collect();
        canonical.sort();
        expanded.sort();
        assert_eq!(canonical, expanded);
    }

    #[test]
    fn collect_covers_every_registry_probe() {
        let families = ObsCollector::new().collect().expect("collect is infallible");
        for probe in probes::registry() {
            assert!(
                families.iter().any(|f| f.name == probe.name),
                "probe {} missing from collect()",
                probe.name
            );
        }
    }
}
