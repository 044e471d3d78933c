//! Sealed chunks are packed sixteen to a block, and the blocks are
//! copy-on-write: a seal builds the last block again, retention drops whole
//! blocks and builds again only a first block it ages in part, and a
//! snapshot shares the series' list of blocks whole.  So a reader must never
//! see a block change under it.
//!
//! Here a plain `Vec<Sample>` chunk list plays each of two series in one
//! lock shard (`m`, and `clock`, whose jumps make `m`'s head stale) through
//! generated streams of appends — equal timestamps, rejected out-of-order
//! ones, fractions — that seal across block boundaries at chunk sizes of 1,
//! 2 and 5, retention passes whose cutoffs land inside blocks, stale-head
//! seals and `drop_series`.  After every operation the engine's `m` must
//! read what the model holds, and every snapshot taken along the way — and
//! a [`SampleRange`] taken from it over a generated window — must still read
//! exactly what it read when it was taken, whatever happened to the series
//! since.
//!
//! The last test checkpoints a durable store whose first blocks retention
//! has aged in part, crashes it after every flush and reopens it: the
//! recovered store must be the live one.

use std::path::Path;
use std::sync::Arc;

use proptest::proptest;
use teemon_metrics::Labels;
use teemon_testkit::codec_inputs::bits;
use teemon_testkit::{CrashModel, FaultFs};
use teemon_tsdb::{
    DurabilityOptions, FsyncMode, Sample, SampleRange, Selector, SeriesSnapshot, StorageStats,
    TimeSeriesDb, TsdbConfig, STALE_HEAD_MS,
};

const CHUNK_SIZES: [usize; 3] = [1, 2, 5];

/// One series as a list of plain chunks.
#[derive(Default)]
struct ModelSeries {
    sealed: Vec<Vec<Sample>>,
    head: Vec<Sample>,
}

impl ModelSeries {
    fn newest(&self) -> Option<u64> {
        self.head.last().or_else(|| self.sealed.last()?.last()).map(|s| s.timestamp_ms)
    }

    fn samples(&self) -> Vec<Sample> {
        self.sealed.iter().flatten().chain(&self.head).copied().collect()
    }

    fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.head.is_empty())
    }

    fn seal(&mut self) {
        if !self.head.is_empty() {
            self.sealed.push(std::mem::take(&mut self.head));
        }
    }

    /// `true` when the sample was accepted.
    fn append(&mut self, sample: Sample, chunk_size: usize) -> bool {
        if self.newest().is_some_and(|newest| sample.timestamp_ms < newest) {
            return false;
        }
        self.head.push(sample);
        if self.head.len() >= chunk_size {
            self.seal();
        }
        true
    }

    /// One retention pass: whole chunks older than `cutoff` go (the head
    /// only behind every sealed one), then a series left idle since before
    /// `stale_before` has its head sealed.  A series left empty is evicted,
    /// which is what an empty model stands for.
    fn retention_pass(&mut self, cutoff: u64, stale_before: u64) {
        let older = |chunk: &Vec<Sample>| chunk.last().is_some_and(|s| s.timestamp_ms < cutoff);
        let keep_from = self.sealed.iter().position(|chunk| !older(chunk));
        self.sealed.drain(..keep_from.unwrap_or(self.sealed.len()));
        if self.sealed.is_empty() && older(&self.head) {
            self.head.clear();
        }
        if self.newest().is_some_and(|newest| newest < stale_before) {
            self.seal();
        }
    }
}

/// A snapshot of `m`, what it read when taken, and a range taken from it
/// over a window, with what the window held.
struct Held {
    snapshot: SeriesSnapshot,
    samples: Vec<(u64, u64)>,
    range: SampleRange,
    window: Vec<(u64, u64)>,
}

impl Held {
    fn take(snapshot: SeriesSnapshot, raw: u16) -> Self {
        let samples = bits(snapshot.points_in(0, u64::MAX));
        // A window from a generated sample to the end or a later one.
        let len = samples.len() as u64;
        let from = samples.get((u64::from(raw) % len) as usize).map_or(0, |s| s.0);
        let to = match raw % 3 {
            0 => u64::MAX,
            _ => samples.get((u64::from(raw / 3) % len) as usize).map_or(0, |s| s.0).max(from),
        };
        let range = snapshot.range(from, to);
        let window = samples.iter().copied().filter(|s| (from..=to).contains(&s.0)).collect();
        Self { snapshot, samples, range, window }
    }

    /// Still reads what it read when taken.
    fn check(&self, op: usize) {
        assert_eq!(bits(self.snapshot.points_in(0, u64::MAX)), self.samples, "points_in, op {op}");
        // `at` on eight probes spread over the samples, a millisecond
        // either side of each, and past the end.
        let stride = self.samples.len() / 8 + 1;
        let probes =
            self.samples.iter().step_by(stride).flat_map(|s| [s.0.saturating_sub(1), s.0 + 1]);
        for probe in probes.chain([u64::MAX]) {
            let expected = self.samples.iter().rev().find(|s| s.0 <= probe).copied();
            let at = self.snapshot.at(probe).map(|s| (s.timestamp_ms, s.value.to_bits()));
            assert_eq!(at, expected, "at {probe}, op {op}");
        }
        let mut read = Vec::new();
        self.range.read_into(&mut read);
        assert_eq!(bits(read), self.window, "range, op {op}");
    }
}

/// Series `m` and `clock` in one lock shard, the engine beside the model.
struct Pair {
    db: TimeSeriesDb,
    chunk_size: usize,
    retention_ms: u64,
    series: [(&'static str, Labels, ModelSeries); 2],
    held: Vec<Held>,
}

const M: usize = 0;
const CLOCK: usize = 1;
/// Snapshots held at once; the oldest goes when another is taken.
const HELD: usize = 6;

impl Pair {
    fn new(chunk_size: usize, retention_ms: u64) -> Self {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size, retention_ms });
        // Find labels that put `clock` into `m`'s shard, then leave the
        // store empty: the streams create both series by appending.
        db.resolve("m", &Labels::new());
        let shard = db.census().shard_series.iter().position(|&n| n == 1).expect("m exists");
        let clock = (0..)
            .map(|i| Labels::from_pairs([("probe", format!("{i}"))]))
            .find(|labels| {
                db.resolve("clock", labels);
                let landed = db.census().shard_series[shard] == 2;
                db.drop_series(&Selector::metric("clock"));
                landed
            })
            .expect("some label value hashes into every shard");
        db.drop_series(&Selector::metric("m"));
        Self {
            db,
            chunk_size,
            retention_ms,
            series: [
                ("m", Labels::new(), ModelSeries::default()),
                ("clock", clock, ModelSeries::default()),
            ],
            held: Vec::new(),
        }
    }

    fn newest(&self) -> Option<u64> {
        self.series.iter().filter_map(|(_, _, model)| model.newest()).max()
    }

    fn append(&mut self, which: usize, sample: Sample) {
        let (name, labels, model) = &mut self.series[which];
        let accepted = model.append(sample, self.chunk_size);
        let stored = self.db.append(name, labels, sample.timestamp_ms, sample.value);
        assert_eq!(stored, accepted, "{name} @ {}", sample.timestamp_ms);
    }

    fn retention(&mut self) {
        let Some(newest) = self.newest() else { return };
        let cutoff = newest.saturating_sub(self.retention_ms);
        let stale_before = newest.saturating_sub(STALE_HEAD_MS);
        let mut dropped = 0;
        for (_, _, model) in &mut self.series {
            let before = model.samples().len();
            model.retention_pass(cutoff, stale_before);
            dropped += before - model.samples().len();
        }
        assert_eq!(self.db.apply_retention(), dropped);
    }

    fn apply(&mut self, (kind, raw): (u8, u16)) {
        let m_newest = self.series[M].2.newest().unwrap_or(0);
        let value = if raw % 5 == 0 { f64::from(raw) + 0.25 } else { f64::from(raw) };
        match kind {
            // Steps of up to three seconds, equal timestamps included.
            0..=7 => {
                let timestamp_ms = m_newest + u64::from(raw) % 3_000;
                self.append(M, Sample { timestamp_ms, value });
            }
            8 => {
                let timestamp_ms = m_newest.saturating_sub(1 + u64::from(raw) % 1_000);
                self.append(M, Sample { timestamp_ms, value });
            }
            // The clock jumps up to seven minutes past everything.
            9 | 10 => {
                let timestamp_ms = self.newest().unwrap_or(0) + u64::from(raw % 8) * 60_000;
                self.append(CLOCK, Sample { timestamp_ms, value });
            }
            11 | 12 => self.retention(),
            13 => {
                let dropped = usize::from(self.series[M].2.newest().is_some());
                assert_eq!(self.db.drop_series(&Selector::metric("m")), dropped);
                self.series[M].2 = ModelSeries::default();
            }
            _ => {
                if let Some(snapshot) = self.db.select(&Selector::metric("m")).pop() {
                    if self.held.len() == HELD {
                        self.held.remove(0);
                    }
                    self.held.push(Held::take(snapshot, raw));
                }
            }
        }
    }

    fn check(&self, op: usize) {
        let model = &self.series[M].2;
        let selected = self.db.select(&Selector::metric("m"));
        match selected.as_slice() {
            [] => assert!(model.samples().is_empty(), "m is gone, op {op}"),
            [m] => {
                assert_eq!(bits(m.points_in(0, u64::MAX)), bits(model.samples()), "m, op {op}");
                assert_eq!(m.chunk_count(), model.chunk_count(), "m's chunks, op {op}");
            }
            more => panic!("{} series named m", more.len()),
        }
        for held in &self.held {
            held.check(op);
        }
    }
}

proptest! {
    #[test]
    fn snapshots_and_ranges_read_what_they_saw_whatever_the_series_does_after(
        ops in proptest::collection::vec((0u8..16, 0u16..u16::MAX), 1..300),
        retention_kind in 0u8..3,
    ) {
        let retention_ms = [20_000, 4 * STALE_HEAD_MS, u64::MAX][usize::from(retention_kind)];
        for chunk_size in CHUNK_SIZES {
            let mut pair = Pair::new(chunk_size, retention_ms);
            for (i, &op) in ops.iter().enumerate() {
                pair.apply(op);
                pair.check(i);
            }
        }
    }
}

#[test]
fn the_generator_crosses_blocks_and_cuts_inside_them() {
    // One stream the property could draw: forty one-sample chunks (blocks of
    // 16, 16 and 8), a snapshot, a retention cut inside the second block, a
    // stale seal, a drop and a revival.
    let mut pair = Pair::new(1, 20_000);
    for i in 0..40u16 {
        pair.apply((0, 1_000 + i));
    }
    pair.apply((14, 77));
    assert_eq!(pair.db.select(&Selector::metric("m"))[0].chunk_count(), 40);
    pair.apply((9, 0));
    pair.apply((11, 0));
    let dropped = 40 - pair.series[M].2.chunk_count();
    assert!((17..32).contains(&dropped), "{dropped} chunks dropped: not inside the second block");
    pair.check(0);
    pair.apply((10, 7));
    pair.apply((0, 5));
    pair.apply((9, 7));
    pair.apply((12, 0));
    pair.check(1);
    pair.apply((13, 0));
    pair.apply((0, 3));
    pair.apply((15, 11));
    pair.check(2);
    assert_eq!(pair.held.len(), 2);
}

#[test]
fn a_checkpoint_of_partly_aged_blocks_reopens_to_the_same_store() {
    const SERIES: usize = 4;
    let labels: Vec<Labels> =
        (0..SERIES).map(|i| Labels::from_pairs([("idx", format!("{i}"))])).collect();
    let fingerprint = |db: &TimeSeriesDb| {
        let series: Vec<_> = db
            .select(&Selector::all())
            .iter()
            .map(|s| (s.to_labels().to_string(), s.chunk_count(), bits(s.points_in(0, u64::MAX))))
            .collect();
        // `series_bytes` counts capacities — history, not state.
        (StorageStats { series_bytes: 0, ..db.stats() }, db.census().head_bytes, series)
    };
    for chunk_size in CHUNK_SIZES {
        // A second a sample and 25 s kept: each pass cuts into a block of
        // one-sample chunks, and the tiny segments checkpoint every shard
        // that logged anything, the retention record included.
        let config = TsdbConfig { chunk_size, retention_ms: 25_000 };
        let options = |fs: FaultFs| DurabilityOptions {
            segment_bytes: 64,
            fsync: FsyncMode::EveryCommit,
            fs: Arc::new(fs),
        };
        let fs = FaultFs::new();
        let db = TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options(fs.clone()))
            .expect("FaultFs open cannot fail");
        for round in 0..80u64 {
            for (i, labels) in labels.iter().enumerate() {
                let value = (round * 7 + i as u64) as f64 + if round % 3 == 0 { 0.5 } else { 0.0 };
                assert!(db.append("m", labels, round * 1_000, value));
            }
            if round % 9 == 8 {
                db.apply_retention();
            }
            assert!(db.wal_flush());
            if round % 9 != 8 {
                continue;
            }
            let live = fingerprint(&db);
            let image = fs.crashed(fs.total_write_bytes(), CrashModel::Torn);
            let recovered =
                TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options(image))
                    .expect("FaultFs open cannot fail");
            assert_eq!(fingerprint(&recovered), live, "chunk size {chunk_size}, round {round}");
        }
        let snapshotted = fs.file_paths().iter().any(|path| {
            path.file_name().and_then(|name| name.to_str()).is_some_and(|n| n.starts_with("shard-"))
        });
        assert!(snapshotted, "chunk size {chunk_size}: no shard was checkpointed");
        let kept = db.select(&Selector::all())[0].chunk_count();
        assert!(kept * chunk_size < 40, "chunk size {chunk_size}: retention kept {kept} chunks");
    }
}
