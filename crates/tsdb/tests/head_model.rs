//! The open head against a model, on every read path.
//!
//! A series' open chunk is a Gorilla block built in bursts behind an inline
//! tail of raw samples; everything that reads a series has to see through
//! that.  Here a plain `Vec<Sample>` chunk list plays the series — append,
//! seal at `chunk_size`, the retention pass with its stale-head rule and
//! eviction, all a few lines each — and after **every** operation of a
//! generated stream the engine must agree with it: `at`, `points_in`, a
//! [`SeriesSnapshot::range`] read into a buffer that already holds samples,
//! the chunk count, and the ledger ([`StorageStats::resident_bytes`],
//! [`TimeSeriesDb::head_bytes`]) recounted from the model with
//! [`chunk_codec::encode`].  Chunk sizes sit on both sides of the eight-sample
//! tail (1, 4, 7, 8, 9) and at the default 120.
//!
//! The streams mix equal timestamps, rejected out-of-order samples, NaN
//! payloads / ±∞ / −0.0, every Δ² bucket and the raw-delta escape — now and
//! then a run of those with full-entropy values, long enough to seal raw — clock
//! jumps past [`STALE_HEAD_MS`] with a retention pass, and retention cutting
//! mid-series — and runs of whole numbers of every length between the rest,
//! so that blocks are sealed in both kinds and open integer blocks are turned
//! into XOR ones by a value arriving first of a chunk, mid-tail, on a burst
//! boundary and at the seal.  The model counts those re-encodes, burst by
//! burst, and `teemon_tsdb_block_reencodes_total` must count the same.  A
//! second series (`clock`) shares the first one's lock shard, because
//! staleness is judged against the shard's newest sample.
//!
//! The last test crashes a durable store mid-chunk — checkpointed, a partial
//! block in flight, before and after its first fraction turned it — reopens
//! it and keeps appending: it must end where a store that never stopped does.

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::proptest;
use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::chunk_codec::{self, BlockKind};
use teemon_tsdb::{
    CrashModel, DurabilityOptions, FaultFs, FsyncMode, Sample, Selector, SeriesSnapshot,
    StorageStats, TimeSeriesDb, TsdbConfig, STALE_HEAD_MS,
};

const CHUNK_SIZES: [usize; 6] = [1, 4, 7, 8, 9, 120];
const SAMPLE_BYTES: usize = 16;
/// Samples an open head keeps raw before encoding them as one burst.
const TAIL_SAMPLES: usize = 8;

/// `probes::BLOCK_REENCODES` is process-wide and every test here turns
/// blocks: they take turns, so the one that counts can count exactly.
static REENCODES: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();

fn turn() -> parking_lot::MutexGuard<'static, ()> {
    REENCODES.get_or_init(Default::default).lock()
}

/// The integer kind's qualification rule: a whole number, not the negative
/// zero, of magnitude at most 2⁵³.
fn is_whole(value: f64) -> bool {
    value.is_finite()
        && value.trunc() == value
        && value.abs() <= (1u64 << 53) as f64
        && value.to_bits() != (-0.0f64).to_bits()
}

/// The kind of the block holding `samples`.
fn kind_of(samples: &[Sample]) -> BlockKind {
    if samples.iter().all(|s| is_whole(s.value)) {
        BlockKind::Integer
    } else {
        BlockKind::Xor
    }
}

/// One series as a list of plain chunks.
#[derive(Default)]
struct ModelSeries {
    sealed: Vec<Vec<Sample>>,
    head: Vec<Sample>,
    /// How many of the head's samples its bursts have encoded.
    encoded: usize,
    /// Bursts that found an integer block and left an XOR one.
    reencodes: u64,
    /// Chunks sealed so far as an integer block, an XOR block, raw.
    sealed_as: [u64; 3],
}

impl ModelSeries {
    fn newest(&self) -> Option<u64> {
        self.head.last().or_else(|| self.sealed.last()?.last()).map(|s| s.timestamp_ms)
    }

    fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.head.is_empty()
    }

    fn samples(&self) -> Vec<Sample> {
        self.sealed.iter().flatten().chain(&self.head).copied().collect()
    }

    fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.head.is_empty())
    }

    /// A burst: everything not yet encoded goes into the block.  A block
    /// that held whole numbers only — or nothing, the burst opening with one
    /// — and now holds a value that is not, was re-encoded.
    fn burst(&mut self) {
        let Some(first) = self.head.first() else { return };
        let was_integer =
            is_whole(first.value) && kind_of(&self.head[..self.encoded]) == BlockKind::Integer;
        self.reencodes += u64::from(was_integer && kind_of(&self.head) == BlockKind::Xor);
        self.encoded = self.head.len();
    }

    fn seal(&mut self) {
        if !self.head.is_empty() {
            self.burst();
            let (kind, block) = chunk_codec::encode(&self.head).expect("ordered, non-empty");
            let raw = block.len() > self.head.len() * SAMPLE_BYTES;
            self.sealed_as[if raw { 2 } else { usize::from(kind == BlockKind::Xor) }] += 1;
            self.sealed.push(std::mem::take(&mut self.head));
            self.encoded = 0;
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
        } else if self.head.len().is_multiple_of(TAIL_SAMPLES) {
            self.burst();
        }
        true
    }

    /// One retention pass: whole chunks older than `cutoff` go (the head
    /// only behind every sealed one), then a series left idle since before
    /// `stale_before` has its head sealed.
    fn retention_pass(&mut self, cutoff: u64, stale_before: u64) {
        let older = |chunk: &Vec<Sample>| chunk.last().is_some_and(|s| s.timestamp_ms < cutoff);
        let keep_from = self.sealed.iter().position(|chunk| !older(chunk));
        self.sealed.drain(..keep_from.unwrap_or(self.sealed.len()));
        if self.sealed.is_empty() && older(&self.head) {
            self.head.clear();
            self.encoded = 0;
        }
        if self.newest().is_some_and(|newest| newest < stale_before) {
            self.seal();
        }
    }

    /// What a sealed chunk's payload weighs: its block, or its raw samples
    /// where the block would be larger.
    fn sealed_bytes(chunk: &[Sample]) -> usize {
        let (kind, block) = chunk_codec::encode(chunk).expect("ordered, non-empty");
        assert_eq!(kind, kind_of(chunk));
        block.len().min(chunk.len() * SAMPLE_BYTES)
    }

    /// The ledger's share of the open head: the block its whole bursts
    /// built and sixteen bytes for each sample still in the tail.
    fn head_ledger_bytes(&self) -> usize {
        let tail = self.head.len() - self.encoded;
        assert_eq!(tail, self.head.len() % TAIL_SAMPLES);
        let block = chunk_codec::encode(&self.head[..self.encoded]);
        tail * SAMPLE_BYTES + block.map_or(0, |(_, block)| block.len())
    }

    fn ledger_bytes(&self) -> usize {
        self.sealed.iter().map(|chunk| Self::sealed_bytes(chunk)).sum::<usize>()
            + self.head_ledger_bytes()
    }
}

/// NaN-proof comparison key.
fn bits(samples: impl IntoIterator<Item = Sample>) -> Vec<(u64, u64)> {
    samples.into_iter().map(|s| (s.timestamp_ms, s.value.to_bits())).collect()
}

/// The engine and the model side by side: series `m` and, in the same lock
/// shard, series `clock`.
struct Pair {
    db: TimeSeriesDb,
    chunk_size: usize,
    retention_ms: u64,
    series: [(&'static str, Labels, ModelSeries); 2],
    rejected: u64,
}

const M: usize = 0;
const CLOCK: usize = 1;

impl Pair {
    fn new(chunk_size: usize, retention_ms: u64) -> Self {
        let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size, retention_ms });
        // Find labels that put `clock` into `m`'s shard: create `m`, then try
        // candidates, dropping the ones that land elsewhere.
        db.resolve("m", &Labels::new());
        let shard = db.census().shard_series.iter().position(|&n| n == 1).expect("m exists");
        let clock = (0..)
            .map(|i| Labels::from_pairs([("probe", format!("{i}"))]))
            .find(|labels| {
                db.resolve("clock", labels);
                let landed = db.census().shard_series[shard] == 2;
                if !landed {
                    db.drop_series(&Selector::metric("clock"));
                }
                landed
            })
            .expect("some label value hashes into every shard");
        Self {
            db,
            chunk_size,
            retention_ms,
            series: [
                ("m", Labels::new(), ModelSeries::default()),
                ("clock", clock, ModelSeries::default()),
            ],
            rejected: 0,
        }
    }

    fn newest(&self) -> Option<u64> {
        self.series.iter().filter_map(|(_, _, model)| model.newest()).max()
    }

    fn append(&mut self, which: usize, sample: Sample) {
        let (name, labels, model) = &mut self.series[which];
        let accepted = model.append(sample, self.chunk_size);
        assert_eq!(
            self.db.append(name, labels, sample.timestamp_ms, sample.value),
            accepted,
            "{name} @ {}",
            sample.timestamp_ms
        );
        self.rejected += u64::from(!accepted);
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

    /// Every read path of one series against its model.
    fn check_series(&self, which: usize, probe: u64) {
        let (name, _, model) = &self.series[which];
        let selector = Selector::metric(*name);
        let expected = model.samples();
        let snapshots = self.db.select(&selector);
        if expected.is_empty() {
            // Never appended to, or drained and evicted by a retention pass.
            assert!(snapshots.iter().all(SeriesSnapshot::is_empty), "{name} should hold nothing");
            return;
        }
        let [snapshot] = snapshots.as_slice() else { panic!("{name}: one series expected") };
        assert_eq!(snapshot.len(), expected.len());
        assert_eq!(snapshot.chunk_count(), model.chunk_count());
        assert_eq!(bits(snapshot.points_in(0, u64::MAX)), bits(expected.iter().copied()));
        assert_eq!(snapshot.first_timestamp(), expected.first().map(|s| s.timestamp_ms));
        assert_eq!(snapshot.last_timestamp(), model.newest());
        assert_eq!(bits(snapshot.at(u64::MAX)), bits(expected.last().copied()));
        // In a snapshot the open head is one chunk: its samples as they are
        // before the first burst, after it one block of bursts and tail.
        let head_block = match chunk_codec::encode(&model.head) {
            Some((_, block)) if model.head.len() >= TAIL_SAMPLES => block.len(),
            _ => model.head.len() * SAMPLE_BYTES,
        };
        let sealed: usize = model.sealed.iter().map(|c| ModelSeries::sealed_bytes(c)).sum();
        assert_eq!(snapshot.resident_bytes(), sealed + head_block);

        // Instants: the ends, a generated probe and every chunk boundary.
        let (first, last) = (expected[0].timestamp_ms, expected[expected.len() - 1].timestamp_ms);
        let mut instants = vec![0, first, first.saturating_sub(1), last, last - (last - first) / 2];
        instants.extend([last.saturating_add(1), u64::MAX, first + probe % (last - first + 1)]);
        instants.extend(model.sealed.iter().filter_map(|c| Some(c.last()?.timestamp_ms)));
        instants.extend(model.head.first().map(|s| s.timestamp_ms));
        for &at in &instants {
            let want = expected.iter().rev().find(|s| s.timestamp_ms <= at).copied();
            assert_eq!(bits(snapshot.at(at)), bits(want), "{name}: at({at})");
        }

        // Ranges: everything, nothing, and windows between the instants.
        let mut ranges = vec![(0, u64::MAX), (last.saturating_add(1), u64::MAX)];
        ranges.extend(instants.windows(2).map(|w| (w[0].min(w[1]), w[0].max(w[1]))));
        for (lo, hi) in ranges {
            let want =
                bits(expected.iter().filter(|s| (lo..=hi).contains(&s.timestamp_ms)).copied());
            assert_eq!(bits(snapshot.points_in(lo, hi)), want, "{name}: [{lo}, {hi}]");
            // The range handle appends behind what its buffer already holds.
            for kept in [0, 1, probe as usize % (expected.len() + 1), expected.len()] {
                let mut read = expected[..kept].to_vec();
                snapshot.range(lo, hi).read_into(&mut read);
                assert_eq!(bits(read.drain(kept..)), want, "{name}: range [{lo}, {hi}]");
                assert_eq!(bits(read), bits(expected[..kept].iter().copied()));
            }
        }
    }

    /// The two series and the store's aggregates.
    fn check(&self, probe: u64) {
        self.check_series(M, probe);
        self.check_series(CLOCK, probe);
        let models = || self.series.iter().map(|(_, _, model)| model);
        let stats = self.db.stats();
        let expected = StorageStats {
            // A drained series is evicted; one never appended to stays.
            series: stats.series,
            samples: models().map(|m| m.samples().len() as u64).sum(),
            chunks: models().map(|m| m.chunk_count() as u64).sum(),
            rejected_samples: self.rejected,
            resident_bytes: models().map(|m| m.ledger_bytes() as u64).sum(),
            ..stats
        };
        assert_eq!(stats, expected);
        assert_eq!(
            self.db.census().head_bytes,
            models().map(|m| m.head_ledger_bytes() as u64).sum()
        );
        assert_eq!(self.db.newest_timestamp(), self.newest());
    }
}

/// What the value generator carries from operation to operation.
#[derive(Default)]
struct Values {
    /// Bits of the newest value `m` holds.
    prev_bits: u64,
    /// The newest whole number drawn.
    prev_int: i64,
    /// Values still to come of a run of whole numbers.
    whole_run: u32,
    /// Operations still to come of a hostile run: huge jumps, full-entropy
    /// values.
    hostile_run: u32,
}

/// Value kinds [`Values::next`] tells apart.
const VALUE_KINDS: u8 = 13;

impl Values {
    /// The next value: inside a run of whole numbers one of those — a gauge
    /// at rest, a counter, steps on and off the integer ladder's rungs, ±2⁵³
    /// — otherwise anything, and now and then the start of such a run.
    fn next(&mut self, value_kind: u8, raw: u16) -> f64 {
        const MAX_WHOLE: i64 = 1 << 53;
        if value_kind % VALUE_KINDS == 12 && self.whole_run == 0 {
            self.whole_run = 2 + u32::from(raw % 150);
        }
        if self.whole_run > 0 {
            self.whole_run -= 1;
            let step = i64::from(raw);
            let int = match value_kind % VALUE_KINDS {
                0 => 0,
                1 | 2 => self.prev_int,
                3..=6 => self.prev_int + 1 + step % 2,
                7 => self.prev_int - step,
                8 => step << (raw % 38),
                9 => [MAX_WHOLE, -MAX_WHOLE][usize::from(raw % 2)],
                // A Δ² about the edge of a ladder rung.
                10 => self.prev_int + (1i64 << (raw % 48)) + step % 3 - 1,
                _ => step,
            };
            self.prev_int = int.clamp(-MAX_WHOLE, MAX_WHOLE);
            return self.prev_int as f64;
        }
        match value_kind % VALUE_KINDS {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from(raw),
            6 => f64::from(raw) + f64::from(raw % 7) * 0.1,
            7 => f64::from(raw) * 1e300,
            // NaN payloads of either sign.
            8 => f64::from_bits((0x7ff8 << 48) | (u64::from(raw) << 63) | u64::from(raw)),
            // Full entropy: a new, wide window almost every time — and in a
            // hostile run, a block larger than its samples, which seals raw.
            9 => f64::from_bits(u64::from(raw).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            // A few bits mid-word: fits (and reuses) the previous window.
            10 => f64::from_bits(self.prev_bits ^ (u64::from(raw % 64) << 24)),
            _ => f64::from_bits(!self.prev_bits),
        }
    }
}

/// Expands one generated `(kind, value_kind, raw)` triple into an operation
/// on `pair`: mostly appends to `m` whose deltas and values stress every
/// encoder bucket, now and then a rejected sample, a retention pass, or the
/// clock running ahead.
fn apply(pair: &mut Pair, (kind, value_kind, raw): (u8, u8, u16), values: &mut Values) {
    // A huge jump with a full-entropy value starts a run of them: a block
    // leaves its first timestamp to its chunk's footer, so it outweighs its
    // raw samples only where nearly every sample after the first costs both
    // escapes.
    if (kind % 16, value_kind % VALUE_KINDS) == (9, 9)
        && values.whole_run == 0
        && values.hostile_run == 0
    {
        values.hostile_run = u32::from(raw % 24);
    }
    let (kind, value_kind) = if values.hostile_run > 0 {
        values.hostile_run -= 1;
        (9, 9)
    } else {
        (kind, value_kind)
    };
    let value = values.next(value_kind, raw);
    let base = pair.series[M].2.newest().or(pair.newest()).unwrap_or(0);
    let append_m = |pair: &mut Pair, delta: u64| {
        pair.append(M, Sample { timestamp_ms: base.saturating_add(delta), value });
    };
    match kind % 16 {
        0 => append_m(pair, 0),                            // duplicate timestamp
        1 => append_m(pair, 1),                            // minimal step
        2..=5 => append_m(pair, 5_000),                    // steady scrape cadence
        6 => append_m(pair, 5_000 + u64::from(raw % 100)), // jittered cadence
        7 => append_m(pair, u64::from(raw)),               // small arbitrary
        8 => append_m(pair, u64::from(raw) * 1_000),       // Δ² beyond the 12-bit bucket
        9 => append_m(pair, u64::from(raw) << 32),         // huge: the raw-delta escape
        // Out of order: rejected unless `m` holds nothing.
        10 => {
            let timestamp_ms = base.saturating_sub(1 + u64::from(raw % 10_000));
            pair.append(M, Sample { timestamp_ms, value });
        }
        11 => pair.retention(),
        // `m` catches up with the clock.
        12 => {
            let timestamp_ms = pair.newest().unwrap_or(0);
            pair.append(M, Sample { timestamp_ms, value });
        }
        // The clock ticks: a scrape interval, or past the stale-head window
        // with a retention pass behind it.
        13 => {
            let timestamp_ms = pair.newest().unwrap_or(0) + 5_000;
            pair.append(CLOCK, Sample { timestamp_ms, value: f64::from(raw) });
        }
        _ => {
            let timestamp_ms = pair.newest().unwrap_or(0) + STALE_HEAD_MS + 1 + u64::from(raw);
            pair.append(CLOCK, Sample { timestamp_ms, value: f64::from(raw) });
            pair.retention();
        }
    }
    if let Some(last) = pair.series[M].2.samples().last() {
        values.prev_bits = last.value.to_bits();
    }
}

proptest! {
    #[test]
    fn every_read_path_agrees_with_the_model_after_every_operation(
        ops in proptest::collection::vec((0u8..16, 0u8..VALUE_KINDS, 0u16..u16::MAX), 1..150),
        retention_kind in 0u8..3,
    ) {
        let _turn = turn();
        let retention_ms = [60_000, 3 * STALE_HEAD_MS, u64::MAX][usize::from(retention_kind)];
        for chunk_size in CHUNK_SIZES {
            let mut pair = Pair::new(chunk_size, retention_ms);
            let mut values = Values::default();
            pair.check(0);
            for &op in &ops {
                apply(&mut pair, op, &mut values);
                pair.check(u64::from(op.2));
            }
        }
    }
}

#[test]
fn the_generator_reaches_what_it_is_for() {
    // The property above only covers stale seals, evictions, raw-sealed
    // blocks, heads with both a block and a tail, seals of both kinds of
    // block and blocks turned from one into the other — first thing, inside
    // a tail, by the sample that fills it — if its streams get there: a
    // fixed stream per chunk size must.  And every one of those turns is
    // counted by the store's own probe, once.
    let _turn = turn();
    let reencodes_before = probes::BLOCK_REENCODES.get();
    let mut rng = proptest::TestRng::deterministic("head-model-coverage");
    let (mut stale_seals, mut evictions, mut split_heads, mut reencodes) = (0, 0, 0, 0);
    let mut sealed_as = [0; 3];
    // Where in its chunk the value that turned a block stood: first of a
    // burst, inside one, or filling it.
    let mut turned_at = [0; 3];
    for chunk_size in CHUNK_SIZES {
        let mut pair = Pair::new(chunk_size, 3 * STALE_HEAD_MS);
        let mut values = Values::default();
        // Only chunks longer than a tail see a second burst: they run longer.
        for _ in 0..if chunk_size > TAIL_SAMPLES { 3_000 } else { 600 } {
            // Three operations in four are plain appends, so that heads grow
            // past a burst or two between the clock's jumps.
            let kind = rng.below(64) as u8;
            let kind = if kind < 16 { kind } else { kind % 10 };
            let value_kind = rng.below(u64::from(VALUE_KINDS)) as u8;
            let op = (kind, value_kind, rng.below(65_535) as u16);
            let before = (pair.series[M].2.sealed.len(), pair.series[M].2.head.len());
            let head_was = kind_of(&pair.series[M].2.head);
            apply(&mut pair, op, &mut values);
            let model = &pair.series[M].2;
            if model.head.len() == before.1 + 1 && head_was != kind_of(&model.head) && before.1 > 0
            {
                turned_at[[0, 1, 1, 1, 1, 1, 1, 2][before.1 % TAIL_SAMPLES]] += 1;
            }
            let retained = matches!(op.0 % 16, 11 | 14 | 15);
            stale_seals += usize::from(retained && before.1 > 0 && model.sealed.len() > before.0);
            evictions += usize::from(retained && before != (0, 0) && model.is_empty());
            split_heads += usize::from(
                model.head.len() > TAIL_SAMPLES && !model.head.len().is_multiple_of(TAIL_SAMPLES),
            );
        }
        for (_, _, model) in &pair.series {
            reencodes += model.reencodes;
            for (total, sealed) in sealed_as.iter_mut().zip(model.sealed_as) {
                *total += sealed;
            }
        }
        pair.check(7);
    }
    let [integer_seals, xor_seals, raw_chunks] = sealed_as;
    assert!(stale_seals >= 6, "{stale_seals} stale seals");
    assert!(evictions >= 2, "{evictions} evictions");
    assert!(raw_chunks >= 1, "{raw_chunks} chunks sealed raw");
    assert!(split_heads >= 100, "{split_heads} heads with a block and a tail");
    assert!(integer_seals >= 100 && xor_seals >= 100, "{integer_seals} integer, {xor_seals} XOR");
    let [first_of_burst, inside, filling] = turned_at;
    assert!(first_of_burst >= 1 && inside >= 20 && filling >= 3, "blocks turned at {turned_at:?}");
    assert!(reencodes >= 50, "{reencodes} blocks re-encoded");
    assert_eq!(probes::BLOCK_REENCODES.get() - reencodes_before, reencodes);
}

/// A counter a scrape apart — the benchmark's value shape — that reads half
/// a unit off every twenty-third round: most chunks are integer blocks, and
/// the ones that are not were turned somewhere in their middle.
fn steady(i: u64) -> Sample {
    Sample {
        timestamp_ms: 1_000 + i * 5_000,
        value: if i % 23 == 22 { i as f64 + 0.5 } else { i as f64 },
    }
}

#[test]
fn a_store_crashed_mid_chunk_resumes_its_blocks_where_they_stood() {
    let _turn = turn();
    const SERIES: usize = 5;
    let labels: Vec<Labels> =
        (0..SERIES).map(|i| Labels::from_pairs([("idx", format!("{i}"))])).collect();
    let round = |db: &TimeSeriesDb, i: u64| {
        for (lane, labels) in labels.iter().enumerate() {
            // Lanes advance at different paces, so at any crash point their
            // heads stand at different places in a burst.
            if i.is_multiple_of(lane as u64 + 1) {
                let sample = steady(i);
                assert!(db.append("m", labels, sample.timestamp_ms, sample.value));
            }
        }
        assert!(db.wal_flush());
    };
    let fingerprint = |db: &TimeSeriesDb| {
        let series: Vec<_> = db
            .select(&Selector::all())
            .iter()
            .map(|s| (s.to_labels().to_string(), s.chunk_count(), s.resident_bytes()))
            .map(|(labels, chunks, bytes)| format!("{labels} {chunks} {bytes}"))
            .collect();
        let points: Vec<_> =
            db.select(&Selector::all()).iter().map(|s| s.points_in(0, u64::MAX)).collect();
        // `series_bytes` counts capacities — history, not state: a recovered
        // store's is its own.
        let stats = StorageStats { series_bytes: 0, ..db.stats() };
        (stats, db.census().head_bytes, series, points)
    };
    for chunk_size in CHUNK_SIZES {
        let config = TsdbConfig { chunk_size, retention_ms: u64::MAX };
        let options = |fs: FaultFs| DurabilityOptions {
            // Tiny segments: shards are checkpointed every few rounds, so
            // recovery restores heads from snapshots and replays onto them.
            segment_bytes: 192,
            fsync: FsyncMode::EveryCommit,
            fs: Arc::new(fs),
        };
        let rounds = 3 * chunk_size.max(TAIL_SAMPLES) as u64 + 5;
        let fs = FaultFs::new();
        let steady_db =
            TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options(fs.clone()))
                .expect("FaultFs open cannot fail");
        let mut acked = Vec::new();
        let reencodes_before = probes::BLOCK_REENCODES.get();
        for i in 0..rounds {
            round(&steady_db, i);
            acked.push((fs.total_write_bytes(), fingerprint(&steady_db)));
        }
        // (A chunk of one sample has nothing to turn.)
        let turned = probes::BLOCK_REENCODES.get() - reencodes_before;
        assert!(turned > 0 || chunk_size == 1, "chunk size {chunk_size}: no block was turned");
        let snapshotted = fs.file_paths().iter().any(|path| {
            path.file_name().and_then(|name| name.to_str()).is_some_and(|n| n.starts_with("shard-"))
        });
        assert!(snapshotted, "chunk size {chunk_size}: no shard was checkpointed");
        let finished = fingerprint(&steady_db);

        // Crash after every acked round: the recovered store equals the
        // live one then — `stats()` and the census' head bytes included,
        // partial blocks and all — and, fed the rest, ends where it ended.
        for (crashed_after, (bytes, live)) in acked.iter().enumerate() {
            let image = fs.crashed(*bytes, CrashModel::Torn);
            let recovered =
                TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options(image))
                    .expect("FaultFs open cannot fail");
            assert_eq!(
                &fingerprint(&recovered),
                live,
                "chunk size {chunk_size}, round {crashed_after}"
            );
            for i in crashed_after as u64 + 1..rounds {
                round(&recovered, i);
            }
            assert_eq!(
                fingerprint(&recovered),
                finished,
                "chunk size {chunk_size}: resumed after round {crashed_after}"
            );
        }
    }
}
