//! On-disk compatibility, pinned: `tests/golden/wal-v1/` is a durability
//! directory written by the last commit whose sample batches were tag 18
//! (`local: u32, value: f64` per entry) — sealed and active segments, four
//! shard snapshots, the symbols snapshot, and a log tail that still replays
//! `SERIES`, `SAMPLES` (two timestamps inside one round), `DROP` and
//! `RETENTION` records.  It must keep opening sample for sample — an
//! unreadable record in a checksum-valid frame would be *salvaged*, cutting
//! the log there and deleting every later segment — and keep working: one
//! more round is appended in today's format, and a log holding both replays
//! exactly.  `golden/wal-v1.generate.rs` is how it was made.
//!
//! `tests/golden/wal-v2/` is what commit f6b5cd5 — the last one whose open
//! heads were plain sample buffers, encoded whole at a seal or a checkpoint —
//! wrote for [`workload`] below, run as an example against that commit, and
//! what every commit up to fd16bc7, the last one whose blocks were all XOR
//! blocks, wrote too.  Its snapshots hold chunk tags 0 and 1 only; it must
//! keep opening, answering sample for sample what fd16bc7 answered from it
//! (`golden/wal-v2.expected.txt`, written by that commit), and keep working.
//!
//! `tests/golden/wal-v3/` is what commit 954e5f4, the last one to log
//! `SERIES` records at fixed width (tag 17), wrote for the same workload: the
//! first directory whose whole-number series are integer blocks (chunk tag 2
//! in `shard-*.snap`).  It opens the same way, against
//! `golden/wal-v3.expected.txt`, written by that commit.
//!
//! `tests/golden/wal-v4/` is what commit 561aaca, the last one to log every
//! sample value in the float form (an `f64`'s high bytes), wrote for the same
//! workload: the first directory whose `SERIES` records are varints (tag 22).
//! It opens the same way, against `golden/wal-v4.expected.txt`, written by
//! that commit.
//!
//! `tests/golden/wal-v5/` is what commit cf6cdaf, the last one whose blocks
//! opened with their first sample raw (snapshot chunk tags 1 and 2), wrote
//! for the same workload: the first directory whose whole numbers are logged
//! in the integer form where that is shorter.  It opens the same way, against
//! `golden/wal-v5.expected.txt`, written by that commit.
//!
//! `tests/golden/wal-v6/` pins today's bytes for the same workload: blocks
//! leave their first timestamp to the chunk's footer (or, for a head, to the
//! snapshot record beside it) and take their first delta and an integer
//! block's first value through a ladder — chunk tags 3 and 4.  The log is
//! what it was: every segment and `symbols.snap` are `wal-v5/`'s byte for
//! byte, and every shard snapshot is smaller; the test says so.  Today's
//! store must write that directory, file for file (shard snapshots taken
//! with heads mid-burst included), and carry it forward exactly as it
//! carries its own.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::{DurabilityOptions, Selector, TimeSeriesDb, TsdbConfig};

/// What `wal-v2/` … `wal-v6/` hold: sixty rounds of twelve series at four paces, so
/// that whenever a shard is checkpointed (every 512 logged bytes) its heads
/// stand at different places — empty, inside a first burst, a block and a
/// tail — in chunks of eleven; NaN payloads, a signed zero and full-entropy
/// values among them, a selector drop and retention passes on the way.
fn workload(db: &TimeSeriesDb, rounds: std::ops::Range<u64>) {
    for round in rounds {
        let now = 10_000 + round * 5_000;
        for k in 0..12u64 {
            if round % (k % 4 + 1) != 0 {
                continue;
            }
            let labels = Labels::from_pairs([("node", format!("n{k}").as_str())]);
            let value = match k % 6 {
                0 => round as f64,
                1 => 24_000.0 - round as f64 * 0.5,
                2 => f64::from_bits(0x7ff8_0000_0000_0000 | round),
                3 => (round as f64 * 0.37).sin(),
                4 => -0.0,
                _ => f64::from_bits(round.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            };
            assert!(db.append("golden_metric", &labels, now + k, value));
        }
        if round == 17 {
            db.drop_series(&Selector::metric("golden_metric").with_label("node", "n4"));
        }
        if round % 13 == 12 {
            db.apply_retention();
        }
        assert!(db.wal_flush());
    }
}

/// Opens `dir` the way `wal-v2/` was written.
fn open_v2(dir: &Path) -> TimeSeriesDb {
    let config = TsdbConfig { chunk_size: 11, retention_ms: 120_000 };
    let options = DurabilityOptions { segment_bytes: 512, ..DurabilityOptions::default() };
    TimeSeriesDb::open_with(dir, config, options).expect("open a v2 directory")
}

/// Every file of `dir`, by name.
fn files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list the directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read"))
        })
        .collect()
}

/// The configuration the directory was written under.
fn open(dir: &Path) -> TimeSeriesDb {
    let config = TsdbConfig { chunk_size: 4, retention_ms: 60_000 };
    let options = DurabilityOptions { segment_bytes: 256, ..DurabilityOptions::default() };
    TimeSeriesDb::open_with(dir, config, options).expect("open the golden directory")
}

/// A [`fingerprint`] less its `resident_bytes` and `index_bytes`: what a
/// directory *answers*.  The bytes its samples take in memory are the
/// codec's business — a whole-number series replayed from an old log is
/// sealed into integer blocks today — and pinned elsewhere (`wal-v6/`, the
/// head model); the index is not persisted at all, so what it weighs is
/// today's postings' business ([`index_bytes_built_afresh`] holds a
/// recovered store to it).
fn answers(fingerprint: &str) -> String {
    let (before, rest) = fingerprint.split_once("resident_bytes: ").expect("a stats line");
    let (_, after) = rest.split_once(", ").expect("more stats behind it");
    let (kept, rest) = after.split_once(", index_bytes: ").expect("the last of the stats");
    let (_, after) = rest.split_once(" }").expect("the end of the stats");
    format!("{before}{kept} }}{after}")
}

/// What the index of a store holding exactly `db`'s series weighs when it is
/// registered series by series — which is what a recovered store's must
/// weigh too, however many drops and evictions its log replayed.
fn index_bytes_built_afresh(db: &TimeSeriesDb) -> u64 {
    let fresh = TimeSeriesDb::new();
    for series in db.select(&Selector::all()).iter() {
        fresh.resolve(series.name(), &series.to_labels());
    }
    fresh.stats().index_bytes
}

/// Everything observable about a database, as text (values as their bits:
/// the directory holds NaN payloads, a signed zero and subnormals).
fn fingerprint(db: &TimeSeriesDb) -> String {
    // `series_bytes` counts capacities — history, not state: a recovered
    // store's is its own.
    let stats = teemon_tsdb::StorageStats { series_bytes: 0, ..db.stats() };
    let mut out = format!("stats {stats:?}\n");
    for s in db.select(&Selector::all()).iter() {
        writeln!(out, "series {} {} {}", s.series_id().as_u64(), s.name(), s.to_labels())
            .expect("write to a String");
        for sample in s.points_in(0, u64::MAX) {
            let (t, v) = (sample.timestamp_ms, sample.value);
            writeln!(out, "  {t} {:016x}", v.to_bits()).expect("write to a String");
        }
    }
    out
}

/// `probes::WAL_RECORDS_REPLAYED` and `probes::WAL_SALVAGE` are
/// process-wide and both tests open directories while they count them: they
/// take turns.
static PROBES: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();

fn turn() -> parking_lot::MutexGuard<'static, ()> {
    PROBES.get_or_init(Default::default).lock()
}

/// A scratch copy of the golden directory, removed on drop.
struct ScratchCopy(PathBuf);

impl ScratchCopy {
    fn of(golden: &Path) -> Self {
        let tag = golden.file_name().expect("a named directory").to_string_lossy();
        let scratch = Self::empty(&format!("copy-of-{tag}"));
        for entry in std::fs::read_dir(golden).expect("list the golden directory") {
            let path = entry.expect("directory entry").path();
            std::fs::copy(&path, scratch.0.join(path.file_name().expect("file name")))
                .expect("copy");
        }
        scratch
    }

    fn empty(tag: &str) -> Self {
        let name = format!("teemon-wal-golden-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_directory_written_with_fixed_sample_entries_opens_and_keeps_working() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let _turn = turn();
    let expected = std::fs::read_to_string(golden.join("wal-v1.expected.txt")).expect("expected");
    let scratch = ScratchCopy::of(&golden.join("wal-v1"));
    let (salvages, replayed) = (probes::WAL_SALVAGE.get(), probes::WAL_RECORDS_REPLAYED.get());

    // Sample for sample what the commit that wrote it recovered, from as
    // many replayed records.
    let db = open(&scratch.0);
    let legacy_replayed = probes::WAL_RECORDS_REPLAYED.get() - replayed;
    assert_eq!(
        answers(&format!("replayed {legacy_replayed}\n{}", fingerprint(&db))),
        answers(&expected)
    );
    assert_eq!(db.stats().wal_failed_shards, 0);
    assert_eq!(db.stats().index_bytes, index_bytes_built_afresh(&db));

    // One more round, logged in today's format behind the old records.
    for k in 0..8u64 {
        let labels = Labels::from_pairs([("node", format!("n{k}").as_str())]);
        assert!(db.append("golden_metric", &labels, 75_000, k as f64 * 1.5));
    }
    let late = Labels::from_pairs([("round", "after-upgrade")]);
    assert!(db.append("golden_churn", &late, 75_000, 15.0));
    let staged = 8 + 2; // nine samples, and the new series' SERIES record
    assert!(db.wal_flush());
    let after = fingerprint(&db);
    drop(db);

    let replayed = probes::WAL_RECORDS_REPLAYED.get();
    let reopened = open(&scratch.0);
    assert_eq!(fingerprint(&reopened), after);
    assert!(
        probes::WAL_RECORDS_REPLAYED.get() - replayed > staged,
        "the second recovery must replay fixed-entry and packed records from one log"
    );
    assert_eq!(reopened.stats().wal_failed_shards, 0);
    assert_eq!(probes::WAL_SALVAGE.get(), salvages, "nothing may be cut from a healthy directory");
}

#[test]
fn todays_store_writes_the_pinned_directory_and_older_ones_carry_on() {
    let _turn = turn();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let (v5, pinned) = (files(&golden.join("wal-v5")), files(&golden.join("wal-v6")));
    // What changed on disk since `wal-v5/` is how a block opens, and blocks
    // live in shard snapshots only: the same files, every segment and
    // `symbols.snap` byte for byte — the log did not move — and every shard
    // snapshot smaller.
    assert_eq!(pinned.keys().collect::<Vec<_>>(), v5.keys().collect::<Vec<_>>());
    for (name, bytes) in &pinned {
        if name.starts_with("shard-") {
            assert!(bytes.len() < v5[name].len(), "{name} did not shrink");
        } else {
            assert!(v5.get(name) == Some(bytes), "{name} moved");
        }
    }

    // The same appends, from nothing: no log, snapshot or symbol byte moved.
    let written = ScratchCopy::empty("written");
    drop({
        let db = open_v2(&written.0);
        workload(&db, 0..60);
        db
    });
    let ours = files(&written.0);
    assert_eq!(ours.keys().collect::<Vec<_>>(), pinned.keys().collect::<Vec<_>>());
    for (name, bytes) in &pinned {
        assert!(ours.get(name) == Some(bytes), "{name} differs from the pinned directory");
    }

    // And the pinned directory carries on as ours does: recovered — heads
    // restored from snapshots mid-burst, the log tail replayed onto them —
    // and run thirty rounds further, it re-snapshots and logs exactly what a
    // store that wrote all ninety rounds itself does.
    let resumed = ScratchCopy::of(&golden.join("wal-v6"));
    let straight = ScratchCopy::empty("straight");
    let (resumed_db, straight_db) = (open_v2(&resumed.0), open_v2(&straight.0));
    workload(&straight_db, 0..60);
    assert_eq!(fingerprint(&resumed_db), fingerprint(&straight_db));
    assert_eq!(resumed_db.census().head_bytes, straight_db.census().head_bytes);

    // The directories older stores wrote open too, unmodified: sample for
    // sample what the last commit that wrote each read from it, from as many
    // replayed records, nothing salvaged.  `wal-v2/` holds XOR blocks only,
    // `wal-v3/` integer blocks too; both log fixed-width `SERIES` records.
    // `wal-v4/` logs varint ones, and every sample value in the float form;
    // `wal-v5/` whole numbers in the integer form.  All four hold blocks
    // that open with their first sample raw, sealed again on the way in.
    let legacy: Vec<_> = ["wal-v2", "wal-v3", "wal-v4", "wal-v5"]
        .into_iter()
        .map(|name| {
            let expected = std::fs::read_to_string(golden.join(format!("{name}.expected.txt")))
                .expect("expected");
            let scratch = ScratchCopy::of(&golden.join(name));
            let (salvages, replayed) =
                (probes::WAL_SALVAGE.get(), probes::WAL_RECORDS_REPLAYED.get());
            let db = open_v2(&scratch.0);
            let replayed = probes::WAL_RECORDS_REPLAYED.get() - replayed;
            assert_eq!(
                answers(&format!("replayed {replayed}\n{}", fingerprint(&db))),
                answers(&expected),
                "{name}"
            );
            assert_eq!(answers(&fingerprint(&db)), answers(&fingerprint(&straight_db)), "{name}");
            assert_eq!(db.census().head_bytes, straight_db.census().head_bytes, "{name}");
            assert_eq!(db.stats().index_bytes, index_bytes_built_afresh(&db), "{name}");
            assert_eq!(probes::WAL_SALVAGE.get(), salvages, "nothing may be cut from {name}");
            (name, scratch, db)
        })
        .collect();

    workload(&resumed_db, 60..90);
    workload(&straight_db, 60..90);
    assert_eq!(fingerprint(&resumed_db), fingerprint(&straight_db));
    for (name, _, db) in &legacy {
        workload(db, 60..90);
        assert_eq!(answers(&fingerprint(db)), answers(&fingerprint(&straight_db)), "{name}");
    }
    let after = answers(&fingerprint(&straight_db));
    drop((resumed_db, straight_db));
    let (resumed, straight) = (files(&resumed.0), files(&straight.0));
    assert_eq!(resumed.keys().collect::<Vec<_>>(), straight.keys().collect::<Vec<_>>());
    for (name, bytes) in &straight {
        assert!(resumed.get(name) == Some(bytes), "{name}: the resumed directory diverged");
    }
    // The older directories' logs went the same way: the same files, and
    // every segment written since the reopen byte for byte ours — records
    // are logged in today's form whatever form the ones before them took.
    // Only their shard snapshots may differ (the old `SERIES` records and
    // float-form whole numbers count more logged bytes against a shard's
    // checkpoint budget), and a segment still holding such a record.
    for (name, scratch, db) in legacy {
        drop(db);
        let (before, theirs) = (files(&golden.join(name)), files(&scratch.0));
        assert_eq!(theirs.keys().collect::<Vec<_>>(), straight.keys().collect::<Vec<_>>());
        let written = |file: &&String| file.starts_with("segment-") && !before.contains_key(*file);
        for (file, bytes) in straight.iter().filter(|(file, _)| written(file)) {
            assert!(theirs.get(file) == Some(bytes), "{name}: {file} diverged");
        }
        assert_eq!(theirs.get("symbols.snap"), straight.get("symbols.snap"), "{name}");
        assert_eq!(answers(&fingerprint(&open_v2(&scratch.0))), after, "{name} reopened");
    }
}
