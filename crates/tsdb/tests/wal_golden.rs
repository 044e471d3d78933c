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

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::{DurabilityOptions, Selector, TimeSeriesDb, TsdbConfig};

/// The configuration the directory was written under.
fn open(dir: &Path) -> TimeSeriesDb {
    let config = TsdbConfig { chunk_size: 4, retention_ms: 60_000, raw_chunks: false };
    let options = DurabilityOptions { segment_bytes: 256, ..DurabilityOptions::default() };
    TimeSeriesDb::open_with(dir, config, options).expect("open the golden directory")
}

/// Everything observable about a database, as text (values as their bits:
/// the directory holds NaN payloads, a signed zero and subnormals).
fn fingerprint(db: &TimeSeriesDb) -> String {
    let mut out = format!("stats {:?}\n", db.stats());
    for s in db.select(&Selector::all()).iter() {
        writeln!(out, "series {} {} {}", s.series_id().as_u64(), s.name(), s.to_labels())
            .expect("write to a String");
        for (t, v) in s.points_in(0, u64::MAX) {
            writeln!(out, "  {t} {:016x}", v.to_bits()).expect("write to a String");
        }
    }
    out
}

/// A scratch copy of the golden directory, removed on drop.
struct ScratchCopy(PathBuf);

impl ScratchCopy {
    fn of(golden: &Path) -> Self {
        let dir = std::env::temp_dir().join(format!("teemon-wal-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        for entry in std::fs::read_dir(golden).expect("list the golden directory") {
            let path = entry.expect("directory entry").path();
            std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
        }
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
    let expected = std::fs::read_to_string(golden.join("wal-v1.expected.txt")).expect("expected");
    let scratch = ScratchCopy::of(&golden.join("wal-v1"));
    let (salvages, replayed) = (probes::WAL_SALVAGE.get(), probes::WAL_RECORDS_REPLAYED.get());

    // Sample for sample what the commit that wrote it recovered, from as
    // many replayed records.
    let db = open(&scratch.0);
    let legacy_replayed = probes::WAL_RECORDS_REPLAYED.get() - replayed;
    assert_eq!(format!("replayed {legacy_replayed}\n{}", fingerprint(&db)), expected);
    assert_eq!(db.stats().wal_failed_shards, 0);

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
