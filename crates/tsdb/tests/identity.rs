//! A stored series keeps its key as symbols only; the strings are read out
//! of the symbol table when a series is selected.  What a reader gets must be
//! exactly what was resolved, whatever the strings hold and however the store
//! came by the series (created, recovered from snapshots), and a snapshot
//! must keep its strings once it has them: through the eviction of its
//! series, the sweep of its symbols and the reuse of their slots by other
//! strings.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use proptest::proptest;
use teemon_metrics::Labels;
use teemon_testkit::FaultFs;
use teemon_tsdb::{
    DurabilityOptions, FsyncMode, Selector, SeriesSnapshot, TimeSeriesDb, TsdbConfig,
};

const NAMES: &[&str] = &["up", "teemon_syscalls_total", "sgx:epc_free_pages", "m"];
const LABEL_NAMES: &[&str] =
    &["job", "instance", "node", "pod", "idx", "le", "a", "b", "c", "d", "e", "f"];
/// What a label value may hold: nothing, what the exposition format escapes,
/// and UTF-8 of every width.
const VALUES: &[&str] = &[
    "",
    "n1",
    "say \"hi\"",
    "two\nlines",
    "back\\slash",
    "tab\tbed",
    "héllo",
    "日本語",
    "🦀 crab",
    "p-0000beef",
];

type Key = (String, Labels);

/// One generated key: a name index and up to twelve `(label, value)` index
/// pairs (a repeated label keeps its last value).
type KeySpec = (u8, Vec<(u8, u8)>);

fn build_key((name, pairs): &KeySpec) -> Key {
    let labels = Labels::from_pairs(pairs.iter().map(|&(k, v)| {
        (LABEL_NAMES[k as usize % LABEL_NAMES.len()], VALUES[v as usize % VALUES.len()])
    }));
    (NAMES[*name as usize % NAMES.len()].to_string(), labels)
}

/// `key` with one string changed: its name if `which` says so or it has no
/// label, else the value of one of its labels.
fn sibling((name, labels): &Key, which: usize) -> Key {
    if labels.is_empty() || which % (labels.len() + 1) == labels.len() {
        return (format!("{name}_sibling"), labels.clone());
    }
    let (label, value) = labels.iter().nth(which % labels.len()).expect("index below len");
    (name.clone(), labels.with(label, format!("{value}'")))
}

/// Every accessor of `snapshot` answers with `(name, labels)`, string for
/// string.
fn assert_reads(snapshot: &SeriesSnapshot, (name, labels): &Key, at: &str) {
    assert_eq!(snapshot.name(), name, "{at}");
    assert_eq!(snapshot.labels().collect::<Vec<_>>(), labels.iter().collect::<Vec<_>>(), "{at}");
    assert_eq!(&snapshot.to_labels(), labels, "{at}");
    for (label, value) in labels.iter() {
        assert_eq!(snapshot.label_value(label), Some(value), "{at}: {label}");
    }
    for absent in LABEL_NAMES.iter().filter(|l| labels.get(l).is_none()) {
        assert_eq!(snapshot.label_value(absent), None, "{at}: {absent}");
    }
    let display = if labels.is_empty() { name.clone() } else { format!("{name}{labels}") };
    assert_eq!(snapshot.display_name(), display, "{at}");
}

/// `db` holds exactly `keys`, in that order, each reading as itself — off a
/// whole-store selection, off a selection by its own name and labels, and
/// through the string-keyed instant query.
fn assert_holds(db: &TimeSeriesDb, keys: &[Key], at: &str) {
    let all = db.select(&Selector::all());
    assert_eq!(all.len(), keys.len(), "{at}");
    for (snapshot, key) in all.iter().zip(keys) {
        assert_reads(snapshot, key, at);
        let mut own = Selector::metric(&key.0);
        for (label, value) in key.1.iter() {
            own = own.with_label(label, value);
        }
        // Its siblings carry the same labels under another name, or one
        // more label, or another value: only exact-set equality picks it.
        let picked: Vec<_> =
            db.select(&own).into_iter().filter(|s| s.labels().count() == key.1.len()).collect();
        assert_eq!(picked.len(), 1, "{at}: {own}");
        assert_reads(&picked[0], key, at);
    }
    let selected = db.select(&Selector::all()).into_iter().filter(|s| !s.is_empty());
    let got: Vec<Key> = selected.map(|s| (s.name().to_string(), s.to_labels())).collect();
    assert_eq!(got, keys, "{at}");
}

fn open_durable(fs: &FaultFs, config: &TsdbConfig) -> TimeSeriesDb {
    // One-byte segments: every flush checkpoints what it logged — shards and
    // the symbol table, whose checkpoint is where symbols are swept.
    let options = DurabilityOptions {
        segment_bytes: 1,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(fs.clone()),
    };
    TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options).expect("FaultFs opens")
}

proptest! {
    #[test]
    fn a_selected_series_reads_exactly_what_was_resolved(
        specs in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0u8..12, 0u8..10), 0..13)),
            1..12,
        ),
        which in 0usize..64,
    ) {
        // Every generated key and, next to it, one that shares every string
        // of it but one.
        let mut keys: Vec<Key> = Vec::new();
        let mut seen = BTreeSet::new();
        for (i, spec) in specs.iter().enumerate() {
            let key = build_key(spec);
            for key in [sibling(&key, which + i), key] {
                if seen.insert(key.clone()) {
                    keys.push(key);
                }
            }
        }
        let config = TsdbConfig::default();
        let fs = FaultFs::new();
        let stores = [TimeSeriesDb::with_config(config.clone()), open_durable(&fs, &config)];
        for db in &stores {
            for (i, (name, labels)) in keys.iter().enumerate() {
                // By handle and by key: both find the series the first made.
                let handle = db.resolve(name, labels);
                assert_eq!(db.resolve(name, labels), handle);
                assert!(db.append(name, labels, 1_000 + i as u64, i as f64));
            }
            assert!(db.wal_flush());
            assert_eq!(db.series_count(), keys.len());
        }
        assert_holds(&stores[0], &keys, "volatile");
        assert_holds(&stores[1], &keys, "durable");
        drop(stores);
        assert!(fs.file_paths().iter().any(|p| p.to_string_lossy().contains("shard-")));
        assert_holds(&open_durable(&fs, &config), &keys, "reopened from snapshots");
    }
}

#[test]
fn a_snapshot_keeps_its_strings_when_its_symbols_are_swept_and_their_slots_reused() {
    const MINUTE: u64 = 60_000;
    let config = TsdbConfig { chunk_size: 4, retention_ms: 10 * MINUTE };
    let fs = FaultFs::new();
    let db = open_durable(&fs, &config);
    let survivor = build_key(&(1, vec![(0, 1), (3, 9), (4, 6)]));
    let victims: Vec<Key> = (0..40)
        .map(|i| {
            let labels = survivor.1.with("pod", format!("victim-pod-{i}")).with("le", "日本語");
            (format!("victim_metric_{}", i % 5), labels)
        })
        .collect();
    assert!(db.append(&survivor.0, &survivor.1, 1_000, 1.0));
    for (name, labels) in &victims {
        assert!(db.append(name, labels, 1_000, 2.0));
    }
    assert!(db.wal_flush());
    let before_eviction = db.select(&Selector::all());
    assert_eq!(before_eviction.len(), 1 + victims.len());
    let symbols_with_victims = db.stats().symbols;

    // The survivor reports on; the victims age out whole, their symbols cool
    // for two commits and the next symbol checkpoints sweep them.
    for round in 1..=8u64 {
        assert!(db.append(&survivor.0, &survivor.1, 1_000 + round * 2 * MINUTE, 1.0));
        db.apply_retention();
        assert!(db.wal_flush());
    }
    assert_eq!(db.series_count(), 1);
    let swept = db.stats().symbols;
    assert!(
        swept + victims.len() as u64 <= symbols_with_victims,
        "{swept} symbols left of {symbols_with_victims}: the victims' were not swept"
    );

    // Other strings move into the freed slots: the table hands those out
    // before it grows, and here come more strings than it freed.
    let newcomers: Vec<Key> = (0..60)
        .map(|i| (format!("newcomer_{i}"), Labels::from_pairs([("tenant", format!("t-{i}"))])))
        .collect();
    for (name, labels) in &newcomers {
        assert!(db.append(name, labels, 20 * MINUTE, 3.0));
    }
    assert!(db.wal_flush());
    assert!(db.stats().symbols - swept > symbols_with_victims - swept, "every freed slot is taken");

    // The snapshots taken before all that still read their own strings…
    let expected: Vec<&Key> = std::iter::once(&survivor).chain(&victims).collect();
    for (snapshot, key) in before_eviction.iter().zip(expected) {
        assert_reads(snapshot, key, "a snapshot older than the eviction");
    }
    // …and the store reads as what it holds now, the survivor untouched by
    // the reuse, here and after a reopen.
    let holds: Vec<Key> = std::iter::once(survivor).chain(newcomers).collect();
    assert_holds(&db, &holds, "after the sweep and the reuse");
    for (name, labels) in &victims {
        let mut gone = Selector::metric(name);
        for (label, value) in labels.iter() {
            gone = gone.with_label(label, value);
        }
        assert!(db.select(&gone).is_empty(), "{gone} still selects");
    }
    drop(db);
    assert_holds(&open_durable(&fs, &config), &holds, "reopened after the sweep and the reuse");
}
