//! The inverted index — two postings maps and a per-candidate check of the
//! `exists` / `!=` matchers no list serves — must be indistinguishable from
//! the naive all-series scan with the model's matcher
//! (`support/selection.rs`), on a store however it came by its
//! index (registered series by series, rebuilt after a drop or an eviction,
//! recovered from a snapshot), and the sharded engine must not lose samples
//! under concurrent appenders.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use proptest::proptest;
use teemon_metrics::Labels;
use teemon_tsdb::{
    DurabilityOptions, FaultFs, LabelMatch, Selector, TimeSeriesDb, TsdbConfig, SHARD_COUNT,
};

#[path = "support/selection.rs"]
mod selection;

use selection::matches;

const METRICS: &[&str] = &["up", "teemon_syscalls_total", "sgx_nr_free_pages"];
const KEYS: &[&str] = &["node", "syscall", "job", "pod"];
const VALUES: &[&str] = &["n1", "n2", "read", "write", "sgx_exporter", ""];

/// One generated series: metric index plus up to three label pairs (key and
/// value indices; a key index past the pool end means "no label").
type SeriesSpec = (u8, Vec<(u8, u8)>);

/// One generated selector: metric index (past the pool end means name-less)
/// plus up to two `(kind, key, value)` matchers.
type SelectorSpec = (u8, Vec<(u8, u8, u8)>);

fn build_series(spec: &SeriesSpec) -> (String, Labels) {
    let (metric, pairs) = spec;
    let name = METRICS[*metric as usize % METRICS.len()].to_string();
    let labels = Labels::from_pairs(pairs.iter().filter_map(|(k, v)| {
        let k = *k as usize;
        // Skip some keys so label sets vary in size.
        (k < KEYS.len()).then(|| (KEYS[k], VALUES[*v as usize % VALUES.len()]))
    }));
    (name, labels)
}

fn build_selector(spec: &SelectorSpec) -> Selector {
    let (metric, matchers) = spec;
    // Metric index past the pool means a name-less selector.
    let mut selector = match METRICS.get(*metric as usize) {
        Some(name) => Selector::metric(*name),
        None => Selector::all(),
    };
    for (kind, k, v) in matchers {
        let key = KEYS[*k as usize % KEYS.len()];
        let value = VALUES[*v as usize % VALUES.len()];
        selector = match kind % 3 {
            0 => selector.with_label(key, value),
            1 => selector.without_label_value(key, value),
            _ => selector.with_label_present(key),
        };
    }
    selector
}

/// The same spec read as a selector no postings list constrains: no name,
/// and every matcher an `Exists` or a `NotEquals`, each on a key of its own
/// (one matcher, or two on different keys).  `None` without matchers — that
/// is `{}`, which [`build_selector`] already draws.
fn build_unindexed_selector(spec: &SelectorSpec) -> Option<Selector> {
    let mut selector = Selector::all();
    let mut keys = BTreeSet::new();
    for (kind, k, v) in &spec.1 {
        let key = KEYS[*k as usize % KEYS.len()];
        if !keys.insert(key) {
            continue;
        }
        selector = match kind % 2 {
            0 => selector.with_label_present(key),
            _ => selector.without_label_value(key, VALUES[*v as usize % VALUES.len()]),
        };
    }
    (!keys.is_empty()).then_some(selector)
}

/// Index-driven selection must agree exactly (members AND order) with a
/// naive scan over every live series in creation order.
fn assert_agrees(db: &TimeSeriesDb, live: &[(String, Labels)], selectors: &[Selector], at: &str) {
    for selector in selectors {
        let expected: Vec<(String, Labels)> =
            live.iter().filter(|(name, labels)| matches(selector, name, labels)).cloned().collect();
        let got: Vec<(String, Labels)> = db
            .select(selector)
            .iter()
            .map(|snap| (snap.name().to_string(), snap.to_labels()))
            .collect();
        assert_eq!(got, expected, "selector {selector} diverged from the naive scan {at}");
    }
}

/// A durable store on the in-memory filesystem `fs`, checkpointing every
/// shard that logged anything at every flush, so a reopen reads shard
/// snapshots and not only the log.
fn open_durable(fs: &FaultFs, config: &TsdbConfig) -> TimeSeriesDb {
    let options = DurabilityOptions {
        segment_bytes: 1,
        fs: Arc::new(fs.clone()),
        ..DurabilityOptions::default()
    };
    TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options).expect("FaultFs opens")
}

proptest! {
    #[test]
    fn selection_agrees_with_naive_scan(
        series in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0u8..8, 0u8..8), 0..4)),
            1..24,
        ),
        specs in proptest::collection::vec(
            (0u8..6, proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 0..3)),
            1..8,
        ),
    ) {
        let selectors: Vec<Selector> = specs
            .iter()
            .map(build_selector)
            .chain(specs.iter().filter_map(build_unindexed_selector))
            .collect();
        // A volatile store and a durable one take every step together.
        let config = TsdbConfig { retention_ms: 500_000, ..TsdbConfig::default() };
        let fs = FaultFs::new();
        let stores = [TimeSeriesDb::with_config(config.clone()), open_durable(&fs, &config)];
        let check = |live: &[(String, Labels)], at: &str| {
            for db in &stores {
                assert!(db.wal_flush());
                assert_agrees(db, live, &selectors, at);
            }
        };

        // Fresh: creation order with duplicates collapsed is the reference.
        let mut live: Vec<(String, Labels)> = Vec::new();
        let mut seen = BTreeSet::new();
        for (i, spec) in series.iter().enumerate() {
            let (name, labels) = build_series(spec);
            for db in &stores {
                assert!(db.append(&name, &labels, 1_000 + i as u64, i as f64));
            }
            if seen.insert((name.clone(), labels.clone())) {
                live.push((name, labels));
            }
        }
        check(&live, "on a fresh store");

        // A drop rebuilds the postings of every shard it touched.
        let dropped = &selectors[0];
        let before = live.len();
        live.retain(|(name, labels)| !matches(dropped, name, labels));
        for db in &stores {
            assert_eq!(db.drop_series(dropped), before - live.len(), "dropping {dropped}");
        }
        check(&live, "after a drop");

        // So does a retention pass that evicts series: every other survivor
        // reports again far past the window, the rest age out whole.
        let mut kept = Vec::new();
        for (i, (name, labels)) in live.drain(..).enumerate() {
            if i % 2 == 0 {
                for db in &stores {
                    assert!(db.append(&name, &labels, 1_000_000 + i as u64, 0.0));
                }
                kept.push((name, labels));
            }
        }
        for db in &stores {
            db.apply_retention();
            assert_eq!(db.series_count(), kept.len());
        }
        check(&kept, "after an eviction");

        // And a store recovered from its snapshots and log tail.
        let [_, durable] = stores;
        drop(durable);
        assert!(fs.file_paths().iter().any(|p| p.to_string_lossy().contains("shard-")));
        assert_agrees(&open_durable(&fs, &config), &kept, &selectors, "after a reopen");
    }
}

#[test]
fn selector_matching_rules() {
    let series_labels = Labels::from_pairs([("node", "n1"), ("job", "sgx_exporter")]);
    let holds = |selector: Selector, name: &str| matches(&selector, name, &series_labels);
    assert!(holds(Selector::all(), "anything"));
    assert!(holds(Selector::metric("up"), "up"));
    assert!(!holds(Selector::metric("up"), "down"));
    assert!(holds(Selector::metric("up").with_label("node", "n1"), "up"));
    assert!(!holds(Selector::metric("up").with_label("node", "n2"), "up"));
    assert!(holds(Selector::all().without_label_value("node", "n2"), "up"));
    assert!(!holds(Selector::all().without_label_value("node", "n1"), "up"));
    assert!(!holds(Selector::all().without_label_value("pod", "p1"), "up"), "`!=` needs the key");
    assert!(holds(Selector::all().with_label_present("job"), "up"));
    assert!(!holds(Selector::all().with_label_present("pod"), "up"));
}

#[test]
fn concurrent_appends_lose_nothing() {
    let db = TimeSeriesDb::new();
    const THREADS: u64 = 8;
    const SERIES_PER_THREAD: u64 = 16;
    const SAMPLES_PER_SERIES: u64 = 500;
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                for t in 0..SAMPLES_PER_SERIES {
                    for series in 0..SERIES_PER_THREAD {
                        let labels = Labels::from_pairs([
                            ("node", format!("node-{thread}")),
                            ("idx", format!("s{series}")),
                        ]);
                        assert!(db.append("concurrent_total", &labels, t * 1_000, t as f64));
                    }
                }
            });
        }
        // A concurrent reader exercising select/stats against live shards.
        let reader = db.clone();
        scope.spawn(move || {
            for _ in 0..200 {
                let stats = reader.stats();
                assert!(stats.rejected_samples == 0);
                let _ = reader.select(&Selector::metric("concurrent_total"));
                let _ = reader.newest_timestamp();
            }
        });
    });

    let stats = db.stats();
    assert_eq!(stats.series, THREADS * SERIES_PER_THREAD);
    assert_eq!(stats.samples, THREADS * SERIES_PER_THREAD * SAMPLES_PER_SERIES);
    assert_eq!(stats.rejected_samples, 0);
    assert_eq!(db.series_count() as u64, stats.series);
    assert_eq!(db.newest_timestamp(), Some((SAMPLES_PER_SERIES - 1) * 1_000));
    assert_eq!(db.oldest_timestamp(), Some(0));
    // Chunk accounting must be consistent with what selection sees.
    let snaps = db.select(&Selector::all());
    assert_eq!(snaps.len() as u64, stats.series);
    assert_eq!(snaps.iter().map(|s| s.len() as u64).sum::<u64>(), stats.samples);
    assert_eq!(snaps.iter().map(|s| s.chunk_count() as u64).sum::<u64>(), stats.chunks);
    // Every series kept every sample in order.
    for snap in &snaps {
        assert_eq!(snap.len() as u64, SAMPLES_PER_SERIES);
        let timestamps: Vec<u64> =
            snap.points_in(0, u64::MAX).iter().map(|s| s.timestamp_ms).collect();
        assert!(timestamps.windows(2).all(|w| w[0] < w[1]));
    }
    // The key-hash distribution actually spreads series over the lock
    // shards.  The hash is deterministic, so this cannot flake run to run;
    // for a uniform hash an empty shard among 16 with 128 series would be a
    // (15/16)^128 ≈ 0.03 % per-shard event.
    let shard_counts = db.census().shard_series;
    let populated = shard_counts.iter().filter(|&&c| c > 0).count();
    assert!(
        populated >= SHARD_COUNT / 2,
        "series concentrated in too few shards: {shard_counts:?}"
    );
    assert_eq!(shard_counts.iter().sum::<usize>() as u64, stats.series);
}
