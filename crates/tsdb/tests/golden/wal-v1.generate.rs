//! How `wal-v1/` and `wal-v1.expected.txt` were made (kept for the record;
//! nothing compiles this file).  `wal-v1/` is a durability directory exactly
//! as commit 74923cf — the last one to write sample batches as tag 18,
//! `local: u32, value: f64` per entry — left it, and the expected file is the
//! fingerprint that same commit produced on reopening it.  Dropped into that
//! commit's `examples/` and run as
//!
//! ```text
//! cargo run --release --example gen_golden_wal -- <out-dir>
//! ```
//!
//! it writes the directory plus `<out-dir>/expected.txt`.  It cannot be
//! re-run at a later commit: nothing writes tag 18 any more, which is the
//! point of pinning what it wrote.
use std::fmt::Write as _;
use std::path::Path;

use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::{DurabilityOptions, Selector, TimeSeriesDb, TsdbConfig};

fn config() -> TsdbConfig {
    TsdbConfig { chunk_size: 4, retention_ms: 60_000, raw_chunks: false }
}

fn options() -> DurabilityOptions {
    DurabilityOptions { segment_bytes: 256, ..DurabilityOptions::default() }
}

/// Everything observable about a database, as text.
fn fingerprint(db: &TimeSeriesDb) -> String {
    let mut out = format!("stats {:?}\n", db.stats());
    for s in db.select(&Selector::all()).iter() {
        writeln!(out, "series {} {} {}", s.series_id().as_u64(), s.name(), s.to_labels()).unwrap();
        for (t, v) in s.points_in(0, u64::MAX) {
            writeln!(out, "  {t} {:016x}", v.to_bits()).unwrap();
        }
    }
    out
}

/// The value series `k` reports in `round`: whole numbers of every byte
/// length, zeroes of both signs, fractions, and the floats a careless codec
/// loses.
fn value(round: u64, k: u64) -> f64 {
    match k % 12 {
        0 => 0.0,
        1 => (round * 100 + k) as f64,
        2 => -((round * 7) as f64),
        3 => round as f64 / 3.0,
        4 => (1u64 << 40) as f64 + round as f64,
        5 => -0.0,
        6 => f64::from_bits(0x7FF8_0000_0000_0000 | round),
        7 => f64::INFINITY,
        8 => f64::from_bits(round),
        9 => 1e18 + round as f64 * 4096.0,
        10 => round as f64 * 0.125,
        _ => 4096.0,
    }
}

fn main() {
    let out = std::env::args().nth(1).expect("usage: gen_golden_wal <out-dir>");
    let dir = Path::new(&out);
    let _ = std::fs::remove_dir_all(dir);
    let db = TimeSeriesDb::open_with(dir, config(), options()).expect("open");
    for round in 1..=14u64 {
        let now = round * 5_000;
        for k in 0..8u64 {
            let labels = Labels::from_pairs([("node", format!("n{k}").as_str())]);
            db.append("golden_metric", &labels, now, value(round, k));
            if k % 4 == 0 {
                // A second timestamp inside the same round: a second batch.
                db.append("golden_metric", &labels, now + 500, value(round, k + 1));
            }
        }
        // Churn: a series per round, dropped two rounds later.
        let churn = Labels::from_pairs([("round", format!("r{round}").as_str())]);
        db.append("golden_churn", &churn, now, round as f64);
        if round > 2 {
            let gone = format!("r{}", round - 2);
            assert_eq!(db.drop_series(&Selector::metric("golden_churn").with_label("round", &gone)), 1);
        }
        if round % 8 == 1 {
            // Out of order: replay must reproduce the rejection.
            let labels = Labels::from_pairs([("node", "n1")]);
            assert!(!db.append("golden_metric", &labels, now - 2_500, 1.0));
        }
        if round % 5 == 0 {
            db.apply_retention();
        }
        assert!(db.wal_flush());
    }
    drop(db);

    let before = probes::WAL_RECORDS_REPLAYED.get();
    let salvage = probes::WAL_SALVAGE.get();
    let db = TimeSeriesDb::open_with(dir, config(), options()).expect("reopen");
    assert_eq!(probes::WAL_SALVAGE.get(), salvage);
    assert_eq!(db.stats().wal_failed_shards, 0);
    let mut expected = format!("replayed {}\n", probes::WAL_RECORDS_REPLAYED.get() - before);
    expected.push_str(&fingerprint(&db));
    drop(db);
    // Reopening may have purged nothing and written nothing: the directory is
    // as the writer left it.
    std::fs::write(dir.join("expected.txt"), expected).expect("write expected");
}
