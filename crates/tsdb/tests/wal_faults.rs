//! The durability tier's fault-injection suite, on the deterministic
//! in-memory [`FaultFs`]: torn-tail crashes at **every** byte offset under
//! both crash models, crashes at **every** journalled-operation boundary
//! (byte budgets cannot land between non-append operations — see
//! `op_boundary_crashes_cover_rotation_windows`), bit flips at every byte
//! of every file, and injected fsync/short-write errors.  The contract
//! under test:
//!
//! * every acked round (a [`TimeSeriesDb::wal_flush`] that returned with a
//!   commit) is recovered exactly — ids, creation order, samples, stats,
//! * corrupt tails are salvaged by truncating to the last valid group and
//!   an unreadable shard comes up empty and flagged, never panicking and
//!   never poisoning the other shards,
//! * write/fsync errors fail the log sticky, are reported through
//!   [`StorageStats::wal_failed_shards`] and the return value of
//!   `wal_flush`, and leave the database serving reads and writes.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_obs::probes;
use teemon_testkit::scrape::fingerprint;
use teemon_testkit::workload::{file_names, went_full_cycle};
use teemon_testkit::{CrashModel, FaultFs};
use teemon_tsdb::{
    DurabilityOptions, FsyncMode, Sample, ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb,
    TsdbConfig, WalFile, WalFs, SHARD_COUNT,
};

fn config() -> TsdbConfig {
    // Low chunk size so the workload seals Gorilla chunks mid-stream and
    // snapshots carry both sealed blocks and raw heads.
    TsdbConfig { chunk_size: 4, retention_ms: 600_000 }
}

fn dir() -> &'static Path {
    Path::new("/wal")
}

fn open(fs: &FaultFs, segment_bytes: u64) -> TimeSeriesDb {
    // Crash exactness ("recover precisely the acked rounds") is the
    // every-commit contract; the suites below assert it at every offset.
    let options = DurabilityOptions {
        segment_bytes,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(fs.clone()),
    };
    TimeSeriesDb::open_with(dir(), config(), options).expect("FaultFs open cannot fail")
}

/// One scrape round's worth of appends, flushed durable.
fn run_round(db: &TimeSeriesDb, round: u64, series: usize) -> bool {
    let now = round * 1_000;
    for s in 0..series {
        let labels = Labels::from_pairs([("node", format!("n{s}").as_str())]);
        db.append("teemon_wal_metric", &labels, now, (round * 100 + s as u64) as f64);
    }
    db.wal_flush()
}

/// Points keyed by (name, labels) — the oracle for the corruption tests,
/// where a salvaged shard must hold a *prefix* of the acked data.
fn series_points(db: &TimeSeriesDb) -> BTreeMap<(String, String), Vec<Sample>> {
    db.select(&Selector::all())
        .iter()
        .map(|s| ((s.name().to_string(), s.to_labels().to_string()), s.points_in(0, u64::MAX)))
        .collect()
}

/// A sweep that claims to cross seal, checkpoint and deletion asserts it
/// before it starts: records shrink as the format improves, and a workload
/// sized in bytes would quietly stop reaching them.
fn assert_full_cycle(fs: &FaultFs) {
    assert!(
        went_full_cycle(fs),
        "the workload must seal, checkpoint and delete: {:?}",
        file_names(fs)
    );
}

/// Crashing after `k` appended bytes — for **every** `k`, under both crash
/// models — must recover exactly the last round whose commit fit in `k`
/// bytes.  Run once with checkpoints disabled and once with a segment budget
/// small enough that shards are snapshotted and segments deleted
/// mid-workload, so recovery from snapshot + log tail is covered by the same
/// sweep.
#[test]
fn torn_tail_recovers_every_acked_round_at_every_offset() {
    for &(segment_bytes, rounds) in &[(u64::MAX, 4u64), (128, 7u64)] {
        let fs = FaultFs::new();
        let db = open(&fs, segment_bytes);
        // (bytes on disk when this state was acked, its fingerprint).
        let mut acked = vec![(0u64, fingerprint(&db))];
        for round in 1..=rounds {
            assert!(run_round(&db, round, 3), "fault-free flush must stay clean");
            acked.push((fs.total_write_bytes(), fingerprint(&db)));
        }
        if segment_bytes != u64::MAX {
            assert_full_cycle(&fs);
        }
        let total = fs.total_write_bytes();
        for k in 0..=total {
            for model in [CrashModel::Torn, CrashModel::SyncedOnly] {
                let image = fs.crashed(k, model);
                let recovered = open(&image, segment_bytes);
                let expected = acked
                    .iter()
                    .rev()
                    .find(|(bytes, _)| *bytes <= k)
                    .expect("acked[0] covers budget 0");
                assert_eq!(
                    fingerprint(&recovered),
                    expected.1,
                    "crash at byte {k}/{total} ({model:?}, segment_bytes={segment_bytes}) \
                     must recover the last acked round"
                );
            }
        }
    }
}

/// Flipping any single bit of any durable file must never panic, never
/// fabricate data (every recovered series holds a prefix of its acked
/// points, or the series is gone with its shard flagged), and the loss must
/// be visible through the salvage probe or the failed-shard stat.
#[test]
fn bit_flips_salvage_or_isolate_without_panicking() {
    let fs = FaultFs::new();
    let db = open(&fs, u64::MAX);
    for round in 1..=3 {
        assert!(run_round(&db, round, 4));
    }
    let acked = series_points(&db);
    let full = fingerprint(&db);
    let mut damaged_cases = 0u64;
    for path in fs.file_paths() {
        let len = fs.file_len(&path).expect("listed file exists");
        for offset in 0..len {
            // `crashed` with an unlimited budget is a deep copy of the image.
            let image = fs.crashed(u64::MAX, CrashModel::Torn);
            image.corrupt(&path, offset as usize, 0x40);
            let recovered = open(&image, u64::MAX);
            let recovered_points = series_points(&recovered);
            for (key, points) in &recovered_points {
                let oracle = acked.get(key).unwrap_or_else(|| {
                    panic!("fabricated series {key:?} after corrupting {path:?}@{offset}")
                });
                assert!(
                    points.len() <= oracle.len() && oracle.starts_with(points),
                    "corrupting {path:?}@{offset}: recovered points must be a prefix of acked"
                );
            }
            if fingerprint(&recovered) != full {
                damaged_cases += 1;
                // The loss is reported: either the checksum caught it (salvage
                // counters tick during recovery) or the shard was isolated.
                assert!(
                    probes::WAL_SALVAGE.get() > 0 || recovered.stats().wal_failed_shards > 0,
                    "corrupting {path:?}@{offset} lost data silently"
                );
            }
        }
    }
    assert!(damaged_cases > 0, "the sweep must actually damage some records");
}

/// Injected fsync failures: the flush reports unclean, the log fails as a
/// whole — sticky, every shard surfaced in stats — the database keeps
/// serving, and a reopen of
/// the surviving image recovers every round acked *before* the fault.
#[test]
fn fsync_errors_flag_sticky_and_preserve_acked_rounds() {
    let fs = FaultFs::new();
    let db = open(&fs, u64::MAX);
    assert!(run_round(&db, 1, 4));
    let acked = fingerprint(&db);
    fs.fail_fsyncs_from(0); // every fsync from here on fails
    assert!(!run_round(&db, 2, 4), "flush must report the injected fsync failure");
    assert_eq!(
        db.stats().wal_failed_shards,
        SHARD_COUNT as u64,
        "there is one log: its failure surfaces on every shard"
    );
    assert!(!run_round(&db, 3, 4), "failure is sticky");
    // The in-memory database keeps working.
    assert_eq!(db.select(&Selector::all()).len(), 4);
    // Only synced data survives the crash; recovery lands on round 1.
    let recovered = open(&fs.crashed(u64::MAX, CrashModel::SyncedOnly), u64::MAX);
    assert_eq!(
        fingerprint(&recovered).1,
        acked.1,
        "reopen must recover exactly the rounds acked before the fault"
    );
}

/// The scrape driver surfaces a lost-durability round: when `wal_flush`
/// reports unclean under [`FsyncMode::EveryCommit`], the round still
/// completes from memory but `teemon_wal_unclean_rounds_total` ticks — the
/// signal the `teemon_wal_unclean` self-alert fires on.
#[test]
fn scrape_driver_counts_unclean_rounds() {
    let fs = FaultFs::new();
    let db = open(&fs, u64::MAX);
    let scraper = Scraper::new(db.clone());
    let gauge = FamilySnapshot::new("teemon_fault_gauge", "per-target gauge", MetricKind::Gauge)
        .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(1.0)));
    scraper.add_target(
        ScrapeTargetConfig::new("fault_job", "node-1:9090"),
        Arc::new(move || Ok(vec![gauge.clone()])),
    );
    // A clean round first: symbols and series go durable while fsync works.
    scraper.scrape_once(1_000);
    let before = probes::WAL_UNCLEAN_ROUNDS.get();
    fs.fail_fsyncs_from(0);
    scraper.scrape_once(2_000);
    assert!(
        probes::WAL_UNCLEAN_ROUNDS.get() > before,
        "a round whose WAL flush failed must tick teemon_wal_unclean_rounds_total"
    );
}

/// Injected short writes behave the same: unclean flush, sticky failed log,
/// acked rounds preserved, and the torn half-write is salvaged on reopen
/// instead of poisoning recovery.
#[test]
fn short_writes_flag_sticky_and_salvage_on_reopen() {
    let fs = FaultFs::new();
    let db = open(&fs, u64::MAX);
    assert!(run_round(&db, 1, 4));
    let acked = fingerprint(&db);
    fs.fail_writes_from(0); // every append from here on is a failing half-write
    assert!(!run_round(&db, 2, 4), "flush must report the injected short write");
    assert_eq!(db.stats().wal_failed_shards, SHARD_COUNT as u64);
    let salvages_before = probes::WAL_SALVAGE.get();
    let recovered = open(&fs.crashed(u64::MAX, CrashModel::Torn), u64::MAX);
    assert_eq!(fingerprint(&recovered).1, acked.1);
    assert!(
        probes::WAL_SALVAGE.get() > salvages_before,
        "the torn half-write must be counted as salvaged"
    );
}

/// The default [`FsyncMode::OnRotation`] trades power-loss safety for
/// throughput: a *process* crash (page cache intact, `CrashModel::Torn`
/// with the full image) must still recover every acked round, while a
/// *power* crash (`CrashModel::SyncedOnly`) may lose the un-fsynced tail —
/// shard by shard up to a different round, since shards are checkpointed at
/// different times — but every recovered series must hold a prefix of its
/// acked points, nothing may be fabricated, and the checkpoints' own fsyncs
/// must have preserved the checkpointed rounds.
#[test]
fn on_rotation_mode_survives_process_crash_and_degrades_cleanly_on_power_loss() {
    let fs = FaultFs::new();
    let options = DurabilityOptions {
        segment_bytes: 256, // small enough that some rounds checkpoint (and fsync)
        fsync: FsyncMode::OnRotation,
        fs: Arc::new(fs.clone()),
    };
    let db = TimeSeriesDb::open_with(dir(), config(), options.clone())
        .expect("FaultFs open cannot fail");
    // Sized by what must happen, not by bytes: rounds until segments were
    // sealed and deleted and both kinds of snapshot installed, each behind
    // the fsync this mode owes it.
    let mut round = 0;
    while !went_full_cycle(&fs) {
        round += 1;
        assert!(round <= 64, "no full checkpoint cycle in 64 rounds: {:?}", file_names(&fs));
        assert!(run_round(&db, round, 3));
    }
    let acked = series_points(&db);
    let full = fingerprint(&db);
    let reopen = |image: FaultFs| {
        TimeSeriesDb::open_with(
            dir(),
            config(),
            DurabilityOptions { fs: Arc::new(image), ..options.clone() },
        )
        .expect("FaultFs open cannot fail")
    };
    // Process crash: everything written (synced or not) is still on disk.
    let process_crash = reopen(fs.crashed(u64::MAX, CrashModel::Torn));
    assert_eq!(fingerprint(&process_crash), full, "process crash must lose nothing");
    // Power crash: only fsynced bytes survive.
    let power_image = fs.crashed(u64::MAX, CrashModel::SyncedOnly);
    let power_crash = reopen(power_image.clone());
    let mut recovered_samples = 0usize;
    for (key, points) in &series_points(&power_crash) {
        let oracle =
            acked.get(key).unwrap_or_else(|| panic!("power crash fabricated series {key:?}"));
        assert!(
            points.len() <= oracle.len() && oracle.starts_with(points),
            "power crash: recovered points for {key:?} must be a prefix of acked"
        );
        recovered_samples += points.len();
    }
    assert!(recovered_samples > 0, "checkpoint fsyncs preserved the checkpointed rounds");
    // What survived a power crash keeps its durability promise: a new round
    // must not reuse a sequence number a surviving snapshot already covers.
    assert!(run_round(&power_crash, 100, 3));
    let after = fingerprint(&power_crash);
    let reopened = reopen(power_image.crashed(u64::MAX, CrashModel::Torn));
    assert_eq!(fingerprint(&reopened), after, "a round acked after the power crash was lost");
}

/// Crash-safety of checkpointing itself: sweep every crash offset across a
/// workload sized to trigger shard snapshots and verify the invariant the
/// snapshot/delete ordering is designed for — recovery always lands on an
/// acked state, whether the crash hit before the atomic snapshot replace,
/// between it and the deletion of the segments it covers, or after.
#[test]
fn rotation_crash_points_land_on_acked_states() {
    let fs = FaultFs::new();
    let db = open(&fs, 96); // tiny segments: nearly every round checkpoints
    let mut acked = vec![fingerprint(&db)];
    for round in 1..=6 {
        assert!(run_round(&db, round, 2));
        acked.push(fingerprint(&db));
    }
    assert_full_cycle(&fs);
    let total = fs.total_write_bytes();
    for k in 0..=total {
        let image = fs.crashed(k, CrashModel::Torn);
        let recovered = open(&image, 96);
        let got = fingerprint(&recovered);
        assert!(
            acked.contains(&got),
            "crash at byte {k}/{total} across checkpoints recovered a state never acked"
        );
    }
}

/// Crash sweep over the **symbol-GC-at-checkpoint** window: a churn workload
/// (every round interns fresh label strings and drops the previous round's,
/// so symbols release, cool for two commits, get swept when the symbol
/// table is checkpointed, and freed slots are rebound to new strings under a
/// bumped generation).  A crash at any journalled-op boundary — including
/// inside the checkpoint that sweeps the cooling queue, snapshots the symbol
/// table and deletes the segments it covers — must recover a state that was
/// acked, with
/// every surviving series resolving to exactly its original name and label
/// strings (the fingerprint compares them byte-for-byte).  The recovered
/// database must then rebind freed slots to *new* strings durably: one more
/// churn round plus a second reopen proves a swept/rebound slot never
/// resurrects its old string.
///
/// Each round contributes *two* acked fingerprints: one before the flush
/// (the round's mutations with the sweep not yet run) and one after (the
/// sweep's reclaim visible).  GC progress rides disk operations of its own
/// — the checkpoint's snapshot install lands after the round's commit — so a
/// crash between the two legitimately recovers the committed round with the
/// swept-in-memory bindings parked back in the cooling queue; the series
/// data must still match an acked round byte-for-byte either way.
#[test]
fn symbol_gc_rotation_crash_windows_preserve_exact_resolution() {
    let fs = FaultFs::new();
    let db = open(&fs, 64); // tiny segments: the symbol table is checkpointed (and GC runs) often
    let mut acked = vec![fingerprint(&db)];
    // Sized by events: at least six rounds, and on until the log has been
    // through seal, both kinds of checkpoint and segment deletion.
    let mut round = 0u64;
    while round < 6 || !went_full_cycle(&fs) {
        round += 1;
        assert!(round <= 48, "no full checkpoint cycle in 48 rounds: {:?}", file_names(&fs));
        let labels = Labels::from_pairs([("round", format!("r{round}").as_str())]);
        db.append("churn_metric", &labels, round * 1_000, round as f64);
        let stable = Labels::from_pairs([("node", "n0")]);
        db.append("teemon_wal_metric", &stable, round * 1_000, round as f64);
        if round > 1 {
            let gone = format!("r{}", round - 1);
            assert_eq!(
                db.drop_series(&Selector::metric("churn_metric").with_label("round", &gone)),
                1,
                "the previous round's churn series must exist to be dropped"
            );
        }
        acked.push(fingerprint(&db)); // round committed, sweep not yet durable
        assert!(db.wal_flush(), "fault-free churn flush must stay clean");
        acked.push(fingerprint(&db)); // sweep ran at the flush's checkpoint
    }
    let total = fs.op_count();
    for k in 0..=total {
        let image = fs.crashed_at_op(k, CrashModel::Torn);
        let recovered = open(&image, 64);
        assert!(
            acked.contains(&fingerprint(&recovered)),
            "crash at op {k}/{total} across the GC window recovered a state never acked \
             (or a symbol resolved to the wrong string)"
        );
        // Freed slots must rebind cleanly after recovery: intern brand-new
        // strings (likely reusing swept slot indices) and flush...
        let fresh = Labels::from_pairs([("round", "post-crash")]);
        recovered.append("churn_metric", &fresh, 100_000, 1.0);
        assert!(recovered.wal_flush(), "post-crash churn flush at op {k} must be clean");
        let after = fingerprint(&recovered);
        // ...and the rebind must survive the next restart byte-exactly.
        let reopened = open(&image.crashed(u64::MAX, CrashModel::Torn), 64);
        assert_eq!(
            fingerprint(&reopened),
            after,
            "op {k}/{total}: a slot swept and rebound around the crash resolved wrong \
             after the second reopen"
        );
    }
}

/// Crash sweep over **operation boundaries**: the byte-budget sweeps above
/// tear inside appends, but atomic replaces and removals ride along with the
/// preceding append, so the windows *between* non-append operations are
/// unreachable by them.  This sweep places a crash — under both crash models
/// — at every journalled-op boundary of a workload sized to run the whole
/// cycle several times over: a segment is sealed, shards are checkpointed,
/// the symbol table is checkpointed, covered segments are deleted.  That
/// includes the boundary inside every atomic replace, where the snapshot's
/// tmp file exists and its rename has not happened: no `.tmp` may survive a
/// reopen.  Each recovered database must then be not just an acked state but
/// *stay durable*: it ingests one more round (with a series, and therefore
/// symbols, never seen before) and survives a second reopen byte-exactly.
#[test]
fn op_boundary_crashes_cover_rotation_windows() {
    let fs = FaultFs::new();
    let db = open(&fs, 64); // tiny segments: every round seals, most checkpoint
    let mut acked = vec![fingerprint(&db)];
    for round in 1..=8 {
        assert!(run_round(&db, round, 2));
        acked.push(fingerprint(&db));
    }
    assert_full_cycle(&fs);

    let total = fs.op_count();
    for k in 0..=total {
        for model in [CrashModel::Torn, CrashModel::SyncedOnly] {
            let image = fs.crashed_at_op(k, model);
            let recovered = open(&image, 64);
            assert!(
                acked.contains(&fingerprint(&recovered)),
                "crash at op {k}/{total} ({model:?}) recovered a state never acked"
            );
            assert!(
                image.file_paths().iter().all(|path| path.extension() != Some("tmp".as_ref())),
                "crash at op {k}/{total} ({model:?}): a tmp file survived the reopen"
            );
            // The recovered database must keep its durability promise: a
            // round with a brand-new series (new symbols) flushed clean...
            assert!(run_round(&recovered, 100, 3), "post-crash flush at op {k} must be clean");
            let after = fingerprint(&recovered);
            // ...must survive the *next* restart too.
            let reopened = open(&image.crashed(u64::MAX, CrashModel::Torn), 64);
            assert_eq!(
                fingerprint(&reopened),
                after,
                "op {k}/{total} ({model:?}): second reopen lost data acked after the first recovery"
            );
        }
    }
}

/// The whole point of the single log: a warm round that dirties all sixteen
/// shards is **one** `append` — plus one `sync` under
/// [`FsyncMode::EveryCommit`] — however many shards it touched.
#[test]
fn a_warm_round_is_one_append() {
    for (fsync, ops_per_round) in [(FsyncMode::OnRotation, 1), (FsyncMode::EveryCommit, 2)] {
        let fs = FaultFs::new();
        let options =
            DurabilityOptions { segment_bytes: u64::MAX, fsync, fs: Arc::new(fs.clone()) };
        let db = TimeSeriesDb::open_with(dir(), config(), options).expect("FaultFs open");
        assert!(run_round(&db, 1, 256));
        assert!(
            db.census().shard_series.iter().all(|&series| series > 0),
            "the workload must dirty every shard"
        );
        for round in 2..=5 {
            let before = fs.op_count();
            assert!(run_round(&db, round, 256));
            assert_eq!(fs.op_count() - before, ops_per_round, "{fsync:?}, round {round}");
        }
    }
}

/// Ingest nobody flushes for — remote-write pushes into a server with no
/// scrape targets — must not stage without bound: the appender that takes a
/// shard's staging past its budget (256 KiB, `wal::STAGE_FLUSH_BYTES`)
/// commits the round itself.  Well over ten budgets' worth is pushed through
/// both append paths with no explicit flush: no stage grows past the budget
/// by more than the batch that crossed it, and a crash image holds
/// everything up to the last such commit.
#[test]
fn unflushed_ingest_commits_itself_in_bounded_groups() {
    const STAGE_FLUSH_BYTES: u64 = 256 << 10;
    const LANES: usize = 64;
    let fs = FaultFs::new();
    let db = open(&fs, u64::MAX);
    let lanes: Vec<Labels> =
        (0..LANES).map(|lane| Labels::from_pairs([("lane", format!("{lane}").as_str())])).collect();
    let handles: Vec<_> = lanes.iter().map(|labels| db.resolve("push_metric", labels)).collect();
    assert!(db.wal_flush(), "series creation goes durable up front");

    let mut written = fs.total_write_bytes();
    // The size of the group the latest append committed, if it did.
    let mut committed = || {
        let now = fs.total_write_bytes();
        let group = now - std::mem::replace(&mut written, now);
        (group > 0).then_some(group)
    };
    // A full-mantissa value at a fresh timestamp is the widest a sample
    // stages: a 13-byte batch header and up to 11 bytes of entry.
    let value = |t: u64| std::f64::consts::PI * t as f64;
    let mut t = 0u64;

    // One shard, one sample per call, through `append`: each group is one
    // stage, committed by the very sample that took it past the budget.
    let (mut single, mut groups) = (0u64, 0);
    while groups < 3 {
        t += 1_000;
        assert!(db.append("push_metric", &lanes[0], t, value(t)));
        single += 1;
        assert!(single < 100_000, "staging never committed itself");
        if let Some(group) = committed() {
            assert!(group > STAGE_FLUSH_BYTES && group <= STAGE_FLUSH_BYTES + 64, "{group} B");
            groups += 1;
        }
    }
    // Every shard, one batch per call, through `append_batch`: a group now
    // drains sixteen stages, none further past the budget than one batch.
    let ceiling = SHARD_COUNT as u64 * (STAGE_FLUSH_BYTES + (LANES * (13 + 11)) as u64);
    let (mut batches, mut acked_batches) = (0u64, 0u64);
    while groups < 5 || batches < acked_batches + 3 {
        t += 1_000;
        let batch: Vec<_> = handles.iter().map(|&handle| (handle, t, value(t))).collect();
        assert_eq!(db.append_batch(&batch).appended, LANES as u64);
        batches += 1;
        assert!(batches < 20_000, "staging never committed itself");
        if let Some(group) = committed() {
            assert!(group > STAGE_FLUSH_BYTES && group <= ceiling, "{group} B");
            groups += 1;
            acked_batches = batches;
        }
    }

    // A crash now loses the three batches staged since the last self-commit
    // and nothing else.
    let recovered = open(&fs.crashed(u64::MAX, CrashModel::Torn), u64::MAX);
    assert_eq!(recovered.stats().wal_failed_shards, 0);
    let points = series_points(&recovered);
    for (lane, labels) in lanes.iter().enumerate() {
        let got = &points[&("push_metric".to_string(), labels.to_string())];
        let singles = if lane == 0 { single } else { 0 };
        assert_eq!(got.len() as u64, singles + acked_batches, "lane {lane}");
        let logged = |s: &Sample| s.value.to_bits() == value(s.timestamp_ms).to_bits();
        assert!(got.iter().all(logged), "lane {lane}");
    }
}

/// A stream that logs too little to ever reach its checkpoint budget must
/// not pin the log: sixteen series are written once and never again while
/// one busy series keeps sealing segments.  The idle shards' only sections
/// sit in the first segments; once those fall too far behind, the shards are
/// checkpointed anyway, the segments deleted, and the directory stays
/// bounded — and a reopen still recovers every idle series from its
/// snapshot.
#[test]
fn an_idle_stream_cannot_pin_the_log() {
    let fs = FaultFs::new();
    let db = open(&fs, 256);
    assert!(run_round(&db, 1, 16));
    let busy = Labels::from_pairs([("node", "busy")]);
    let segments = |fs: &FaultFs| {
        fs.file_paths().iter().filter(|path| path.extension() == Some("log".as_ref())).count()
    };
    let mut most = 0;
    for round in 2..=1_000u64 {
        db.append("teemon_wal_metric", &busy, round * 1_000, round as f64);
        assert!(db.wal_flush());
        most = most.max(segments(&fs));
    }
    assert!(!fs.file_paths().contains(&dir().join("segment-00000001.log")));
    assert!(most <= 2 * SHARD_COUNT + 2, "{most} segments were on disk at once");
    let recovered = open(&fs.crashed(u64::MAX, CrashModel::Torn), 256);
    assert_eq!(fingerprint(&recovered), fingerprint(&db));
}

/// A directory written by the per-shard layout of earlier versions is
/// refused with a typed error: opening empty on top of it would abandon its
/// data without a word.
#[test]
fn a_directory_in_the_per_shard_layout_is_refused() {
    for name in ["meta.wal", "shard-07.wal"] {
        let fs = FaultFs::new();
        let (mut file, _) = fs.open_append(&dir().join(name)).expect("FaultFs open");
        file.append(b"left behind by an earlier version").expect("append");
        let options = DurabilityOptions { fs: Arc::new(fs), ..DurabilityOptions::default() };
        let err = TimeSeriesDb::open_with(dir(), config(), options)
            .expect_err("the old layout must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
    }
}

/// A [`WalFs`] whose log appends first run a hook — on the flusher's thread,
/// after it drained the staging buffers and before the group reaches the
/// file.
struct HookFs {
    inner: FaultFs,
    before_append: Arc<dyn Fn() + Send + Sync>,
}

struct HookFile {
    inner: Box<dyn WalFile>,
    before_append: Arc<dyn Fn() + Send + Sync>,
}

impl WalFile for HookFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        (self.before_append)();
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl WalFs for HookFs {
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)> {
        let (inner, len) = self.inner.open_append(path)?;
        Ok((Box::new(HookFile { inner, before_append: Arc::clone(&self.before_append) }), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

/// The points of each appender's series, in lane order.
type LanePoints = Vec<Vec<Sample>>;

/// Appends racing the flush: two appender threads each stage a sample into
/// a shard **after** the flusher drained that shard's buffer and **before**
/// the round's group is written and acked (the hook holds the flusher inside
/// its `append` until both have staged — a forced interleaving, not a
/// sleep).  Such a sample belongs to the *next* round: a crash at the ack
/// boundary of round `r`, or anywhere before the next one, must recover the
/// early samples of rounds `..= r` and the late samples of rounds `.. r`,
/// never a late sample of round `r` — nothing staged after its shard was
/// drained is ever replayed un-acked.
#[test]
fn samples_staged_after_the_drain_wait_for_the_next_round() {
    const ROUNDS: u64 = 6;
    let fs = FaultFs::new();
    let barrier = Arc::new(Barrier::new(3));
    let armed = Arc::new(AtomicBool::new(false));
    let hook = {
        let (barrier, armed) = (Arc::clone(&barrier), Arc::clone(&armed));
        move || {
            if armed.load(Ordering::SeqCst) {
                barrier.wait(); // the drain is done: appenders, stage now
                barrier.wait(); // both have staged: write the group
            }
        }
    };
    let options = DurabilityOptions {
        segment_bytes: u64::MAX,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(HookFs { inner: fs.clone(), before_append: Arc::new(hook) }),
    };
    let db = TimeSeriesDb::open_with(dir(), config(), options).expect("FaultFs open");
    let lanes: Vec<Labels> =
        (0..2).map(|lane| Labels::from_pairs([("lane", format!("{lane}").as_str())])).collect();

    // (ops journalled at the ack, the points acked by then) per boundary.
    let mut acked: Vec<(u64, LanePoints)> = vec![(0, vec![Vec::new(); lanes.len()])];
    let mut staged: LanePoints = vec![Vec::new(); lanes.len()];
    std::thread::scope(|scope| {
        for labels in &lanes {
            let (db, barrier) = (db.clone(), Arc::clone(&barrier));
            scope.spawn(move || {
                for round in 1..=ROUNDS {
                    barrier.wait();
                    assert!(db.append("race_metric", labels, round * 1_000 + 500, -1.0));
                    barrier.wait();
                }
            });
        }
        armed.store(true, Ordering::SeqCst);
        for round in 1..=ROUNDS {
            for (labels, points) in lanes.iter().zip(&mut staged) {
                assert!(db.append("race_metric", labels, round * 1_000, round as f64));
                points.push(Sample { timestamp_ms: round * 1_000, value: round as f64 });
            }
            assert!(db.wal_flush());
            // Acked: everything staged before the flush began.  The late
            // samples were staged during it, behind the drain.
            acked.push((fs.op_count(), staged.clone()));
            for points in &mut staged {
                points.push(Sample { timestamp_ms: round * 1_000 + 500, value: -1.0 });
            }
        }
        armed.store(false, Ordering::SeqCst);
    });
    assert!(db.wal_flush(), "the last late samples commit with the next round");
    acked.push((fs.op_count(), staged));

    let reopen = |image: FaultFs| -> LanePoints {
        let points = series_points(&open(&image, u64::MAX));
        lanes
            .iter()
            .map(|labels| {
                let key = ("race_metric".to_string(), labels.to_string());
                points.get(&key).cloned().unwrap_or_default()
            })
            .collect()
    };
    for k in 0..=fs.op_count() {
        // Under `Torn` a group is recoverable once its append is journalled,
        // under `SyncedOnly` once its fsync is — one op later; either way a
        // crash at op `k` recovers a boundary no later than the last ack at
        // or before `k`, and no earlier than the one before that.
        let at = acked.iter().rposition(|(ops, _)| *ops <= k).expect("boundary 0 is at op 0");
        for model in [CrashModel::Torn, CrashModel::SyncedOnly] {
            let recovered = reopen(fs.crashed_at_op(k, model));
            let boundary = &acked[at];
            let exact = boundary.0 == k || model == CrashModel::SyncedOnly;
            assert!(
                recovered == boundary.1
                    || !exact && acked.get(at + 1).is_some_and(|next| recovered == next.1),
                "crash at op {k} ({model:?}) recovered {recovered:?}, which is not the acked \
                 state {:?} — a sample staged behind the drain was replayed un-acked",
                boundary.1
            );
        }
    }
}
