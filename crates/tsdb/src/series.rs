//! What a time series is made of: samples, the chunks that hold them and the
//! searches over a run of chunks.
//!
//! Samples live in chunks.  A sealed `Chunk` is a Gorilla block (see
//! [`crate::chunk_codec`]) behind a `(start, end, count)` footer and the
//! block's kind — whether its values are XOR-coded floats or delta-of-delta
//! integers, which the codec decided from the values and every decoder of
//! the block is told; the open one is the same block still being built, with
//! its newest samples raw in an inline tail in front of it (`crate::head`).
//!
//! The series itself — name, labels, its sealed chunks and its head — is the
//! storage engine's (`MemSeries` in [`crate::storage`]); this module holds
//! what a series is made of and the footer-seeking searches over it.

use serde::{Deserialize, Serialize};

use crate::chunk_codec::{decode_points, BlockKind, BlockSamples, GorillaState};

/// Identifier of a series inside one [`crate::TimeSeriesDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesId(pub(crate) u64);

impl SeriesId {
    /// The raw id value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// One timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Timestamp in milliseconds since the simulation epoch.
    pub timestamp_ms: u64,
    /// Sample value.
    pub value: f64,
}

/// What a range read fills its buffer with: [`Sample`]s for the cursors,
/// `(timestamp_ms, value)` pairs for `points_in`.
pub(crate) trait Point {
    fn of(sample: Sample) -> Self;
    fn timestamp_ms(&self) -> u64;
}

impl Point for Sample {
    #[inline]
    fn of(sample: Sample) -> Self {
        sample
    }

    #[inline]
    fn timestamp_ms(&self) -> u64 {
        self.timestamp_ms
    }
}

impl Point for (u64, f64) {
    #[inline]
    fn of(sample: Sample) -> Self {
        (sample.timestamp_ms, sample.value)
    }

    #[inline]
    fn timestamp_ms(&self) -> u64 {
        self.0
    }
}

/// In-memory size of one raw sample, used for the resident-bytes estimate in
/// [`crate::StorageStats`].
pub(crate) const SAMPLE_BYTES: usize = std::mem::size_of::<Sample>();

/// How a chunk stores its samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum ChunkData {
    /// Plain samples: chunks restored from snapshots that hold them, and a
    /// sealed chunk whose block would have been larger than its samples.
    Raw(Vec<Sample>),
    /// A Gorilla-compressed block of the given kind (see
    /// [`crate::chunk_codec`]): one allocation of exactly the block's length,
    /// so [`Chunk::data_bytes`] is what the allocator holds.
    Compressed(BlockKind, Box<[u8]>),
}

/// Samples are grouped into chunks for retrieval and retention, the way
/// Prometheus groups samples into head/immutable chunks.  Every chunk carries
/// a `(start, end, count)` footer so time-based seeks (`at`, `points_in`,
/// cursors, retention) never touch — let alone decompress — the payload of a
/// chunk outside the queried range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Chunk {
    pub(crate) start_ms: u64,
    pub(crate) end_ms: u64,
    pub(crate) count: u32,
    pub(crate) data: ChunkData,
}

impl Chunk {
    /// A raw chunk over `samples` (assumed time-ordered).
    pub(crate) fn from_samples(samples: Vec<Sample>) -> Self {
        Self {
            start_ms: samples.first().map(|s| s.timestamp_ms).unwrap_or(0),
            end_ms: samples.last().map(|s| s.timestamp_ms).unwrap_or(0),
            count: samples.len() as u32,
            data: ChunkData::Raw(samples),
        }
    }

    /// Timestamp of the first sample, `None` when empty.
    pub(crate) fn start(&self) -> Option<u64> {
        (self.count > 0).then_some(self.start_ms)
    }

    /// Timestamp of the last sample, `None` when empty.
    pub(crate) fn end(&self) -> Option<u64> {
        (self.count > 0).then_some(self.end_ms)
    }

    /// Number of stored samples (from the footer; never decodes).
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes held by the payload (raw samples or the compressed block); the
    /// basis of the engine's resident-bytes estimate.
    pub(crate) fn data_bytes(&self) -> usize {
        match &self.data {
            ChunkData::Raw(samples) => samples.len() * SAMPLE_BYTES,
            ChunkData::Compressed(_, bytes) => bytes.len(),
        }
    }

    /// The last sample (decodes the tail of a compressed chunk).
    pub(crate) fn last_sample(&self) -> Option<Sample> {
        if self.is_empty() {
            return None;
        }
        match &self.data {
            ChunkData::Raw(samples) => samples.last().copied(),
            ChunkData::Compressed(..) => self.iter_samples().last(),
        }
    }

    /// The newest sample at or before `at_ms`: binary search in a raw chunk,
    /// a bounded streaming scan (at most `count` decodes) in a compressed one.
    pub(crate) fn sample_at(&self, at_ms: u64) -> Option<Sample> {
        match &self.data {
            ChunkData::Raw(samples) => sample_at(samples, at_ms),
            ChunkData::Compressed(..) => {
                if self.is_empty() || self.start_ms > at_ms {
                    return None;
                }
                let mut best = None;
                for sample in self.iter_samples() {
                    if sample.timestamp_ms > at_ms {
                        break;
                    }
                    best = Some(sample);
                }
                best
            }
        }
    }

    /// Appends every sample in `[start_ms, end_ms]` to `out`.  Raw chunks
    /// slice by binary search; a block is decoded whole through the bulk
    /// decoder — a Gorilla stream cannot be entered mid-way, and a filter in
    /// the loop would cost every sample of every chunk two compares — and a
    /// chunk the range only partly covers (the first of a windowed read, as a
    /// rule) is trimmed where it landed.
    pub(crate) fn extend_into<T: Point>(&self, start_ms: u64, end_ms: u64, out: &mut Vec<T>) {
        match &self.data {
            ChunkData::Raw(samples) => {
                let a = samples.partition_point(|s| s.timestamp_ms < start_ms);
                let b = samples.partition_point(|s| s.timestamp_ms <= end_ms);
                out.extend(samples[a..b].iter().map(|s| T::of(*s)));
            }
            ChunkData::Compressed(kind, bytes) => {
                if self.is_empty() || self.start_ms > end_ms || self.end_ms < start_ms {
                    return;
                }
                let from = out.len();
                decode_points(bytes, *kind, self.len(), out);
                if start_ms <= self.start_ms && self.end_ms <= end_ms {
                    return;
                }
                let decoded = out.get(from..).unwrap_or(&[]);
                let keep = decoded.partition_point(|p| p.timestamp_ms() <= end_ms);
                let skip = decoded.partition_point(|p| p.timestamp_ms() < start_ms);
                out.truncate(from + keep);
                out.drain(from..from + skip.min(keep));
            }
        }
    }

    /// Iterates the chunk's samples in order (one bit reader stays alive for
    /// the whole of a block).
    pub(crate) fn iter_samples(&self) -> ChunkSamples<'_> {
        match &self.data {
            ChunkData::Raw(samples) => ChunkSamples::Raw(samples.iter()),
            ChunkData::Compressed(kind, bytes) => {
                ChunkSamples::Compressed(BlockSamples::new(bytes, *kind, self.len()))
            }
        }
    }
}

/// Per-chunk cursor position: a slice index for raw chunks, the streaming
/// decoder registers for compressed ones.  Kept separate from the chunk so
/// owning cursors (which hold the chunk behind an `Arc`) need no
/// self-reference.
#[derive(Debug, Clone)]
pub(crate) enum ChunkIterState {
    Raw(usize),
    Compressed(GorillaState),
}

impl ChunkIterState {
    /// A cursor positioned at the first sample with `timestamp_ms >=
    /// start_ms` — O(log n) for raw chunks.  Compressed chunks start at the
    /// beginning (the caller's `< start_ms` skip loop pays the bounded
    /// decode), since the bit stream cannot be entered mid-way.
    pub(crate) fn positioned(chunk: &Chunk, start_ms: u64) -> Self {
        match &chunk.data {
            ChunkData::Raw(samples) => {
                ChunkIterState::Raw(samples.partition_point(|s| s.timestamp_ms < start_ms))
            }
            ChunkData::Compressed(kind, _) => ChunkIterState::Compressed(GorillaState::new(*kind)),
        }
    }

    /// The next sample of `chunk`, or `None` when exhausted.
    pub(crate) fn next(&mut self, chunk: &Chunk) -> Option<Sample> {
        match (self, &chunk.data) {
            (ChunkIterState::Raw(idx), ChunkData::Raw(samples)) => {
                let sample = samples.get(*idx).copied()?;
                *idx += 1;
                Some(sample)
            }
            (ChunkIterState::Compressed(state), ChunkData::Compressed(_, bytes)) => {
                (state.emitted() < chunk.count).then(|| state.next(bytes))
            }
            _ => unreachable!("cursor state built from this chunk"),
        }
    }
}

/// Borrowed iterator over one chunk's samples.
pub(crate) enum ChunkSamples<'a> {
    Raw(std::slice::Iter<'a, Sample>),
    Compressed(BlockSamples<'a>),
}

impl Iterator for ChunkSamples<'_> {
    type Item = Sample;

    #[inline]
    fn next(&mut self) -> Option<Sample> {
        match self {
            ChunkSamples::Raw(samples) => samples.next().copied(),
            ChunkSamples::Compressed(samples) => samples.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ChunkSamples::Raw(samples) => samples.size_hint(),
            ChunkSamples::Compressed(samples) => samples.size_hint(),
        }
    }
}

/// The newest sample at or before `at_ms` in a timestamp-ordered slice
/// (binary search; ties resolve to the last stored sample).
pub(crate) fn sample_at(samples: &[Sample], at_ms: u64) -> Option<Sample> {
    let idx = samples.partition_point(|s| s.timestamp_ms <= at_ms);
    if idx == 0 {
        None
    } else {
        Some(samples[idx - 1])
    }
}

/// The newest sample at or before `at_ms` across time-ordered chunks: binary
/// search over the chunk footers to the covering chunk, then a search inside
/// it.  Empty chunks may only appear at the tail (the open head), which both
/// partition predicates treat as "after everything".
pub(crate) fn at_in_chunks<C: std::borrow::Borrow<Chunk>>(
    chunks: &[C],
    at_ms: u64,
) -> Option<Sample> {
    let idx = chunks.partition_point(|c| match c.borrow().start() {
        Some(start) => start <= at_ms,
        None => false,
    });
    if idx == 0 {
        None
    } else {
        chunks[idx - 1].borrow().sample_at(at_ms)
    }
}

/// Appends every sample in `[start_ms, end_ms]` to `out`, binary-searching
/// the chunk footers to the overlapping span and pre-reserving its exact
/// sample count instead of testing every chunk.
pub(crate) fn extend_range<C: std::borrow::Borrow<Chunk>, T: Point>(
    chunks: &[C],
    start_ms: u64,
    end_ms: u64,
    out: &mut Vec<T>,
) {
    let lo = chunks.partition_point(|c| match c.borrow().end() {
        Some(end) => end < start_ms,
        None => false,
    });
    let hi = chunks.partition_point(|c| match c.borrow().start() {
        Some(start) => start <= end_ms,
        None => false,
    });
    if lo >= hi {
        return;
    }
    let overlapping = &chunks[lo..hi];
    out.reserve(overlapping.iter().map(|c| c.borrow().len()).sum());
    for chunk in overlapping {
        chunk.borrow().extend_into(start_ms, end_ms, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::Head;
    use crate::{Selector, SeriesSnapshot, TimeSeriesDb, TsdbConfig};
    use teemon_metrics::Labels;

    /// One series of an engine that seals every four samples.
    fn db(retention_ms: u64) -> TimeSeriesDb {
        TimeSeriesDb::with_config(TsdbConfig { chunk_size: 4, retention_ms })
    }

    fn append(db: &TimeSeriesDb, timestamp_ms: u64, value: f64) -> bool {
        db.append("m", &Labels::new(), timestamp_ms, value)
    }

    fn series(db: &TimeSeriesDb) -> SeriesSnapshot {
        db.select(&Selector::metric("m")).pop().expect("the series exists")
    }

    #[test]
    fn append_and_query_in_order() {
        let db = db(u64::MAX);
        for i in 0..10u64 {
            assert!(append(&db, i * 1000, i as f64));
        }
        let s = series(&db);
        assert_eq!(s.len(), 10);
        assert!(s.chunk_count() >= 3, "chunk size 4 should split 10 samples");
        assert_eq!(s.last_timestamp(), Some(9_000));
        assert_eq!(s.points_in(2_000, 5_000).len(), 4);
        assert_eq!(s.at(3_500).unwrap().value, 3.0);
        assert_eq!(s.at(0).unwrap().value, 0.0);
        assert!(s.points_in(20_000, 30_000).is_empty());
    }

    #[test]
    fn out_of_order_samples_rejected() {
        let db = db(u64::MAX);
        assert!(append(&db, 5_000, 1.0));
        assert!(!append(&db, 4_000, 2.0));
        assert!(append(&db, 5_000, 3.0), "equal timestamps allowed");
        assert_eq!(series(&db).len(), 2);
        assert_eq!(db.stats().rejected_samples, 1);
    }

    #[test]
    fn retention_drops_old_chunks() {
        // Newest sample 19 s, nine seconds kept: the cutoff is 10 s.
        let db = db(9_000);
        for i in 0..20u64 {
            append(&db, i * 1000, i as f64);
        }
        let dropped = db.apply_retention();
        assert!(dropped >= 8, "dropped {dropped}");
        let s = series(&db);
        assert!(s.len() <= 12);
        assert!(s.points_in(0, 7_000).is_empty());
        assert_eq!(s.last_timestamp(), Some(19_000));
    }

    #[test]
    fn empty_series_queries() {
        let db = db(u64::MAX);
        db.resolve("m", &Labels::new());
        let s = series(&db);
        assert!(s.is_empty());
        assert_eq!(s.last_sample(), None);
        assert_eq!(s.at(1_000), None);
        assert!(s.points_in(0, u64::MAX).is_empty());
    }

    fn head_of(samples: &[Sample]) -> Head {
        let mut head = Head::default();
        for &sample in samples {
            head.push(sample);
        }
        head
    }

    #[test]
    fn a_block_larger_than_its_samples_is_stored_raw() {
        // Every delta takes the 68-bit raw escape and every value a new,
        // near-full window: ≈ 140 bits a sample against 128 raw.
        let samples: Vec<Sample> = (0..8u64)
            .map(|i| Sample {
                timestamp_ms: (i * i) << 40,
                value: f64::from_bits((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            })
            .collect();
        let mut head = head_of(&samples);
        assert!(head.resident_bytes() > samples.len() * SAMPLE_BYTES, "the codec did encode it");
        let chunk = head.seal();
        assert_eq!(chunk.data, ChunkData::Raw(samples.clone()));
        assert_eq!(chunk.data_bytes(), samples.len() * SAMPLE_BYTES);
        assert_eq!((chunk.start(), chunk.end(), chunk.len()), (Some(0), Some(49 << 40), 8));
        assert!(head.is_empty() && head.block_buffer().1 > 0, "the seal keeps the buffer");
        // A lone sample is 16 bytes either way and stays a block.
        let one = head_of(&samples[..1]).seal();
        assert!(matches!(one.data, ChunkData::Compressed(_, ref block) if block.len() == 16));
    }

    #[test]
    fn sealed_chunks_answer_like_raw_ones() {
        let floats: Vec<Sample> =
            (0..40u64).map(|t| Sample { timestamp_ms: t * 500, value: (t as f64).cos() }).collect();
        let whole: Vec<Sample> =
            floats.iter().map(|s| Sample { value: (s.value * 1e4).round(), ..*s }).collect();
        for (samples, kind) in [(floats, BlockKind::Xor), (whole, BlockKind::Integer)] {
            sealed_chunk_answers_like_its_samples(&samples, kind);
        }
    }

    fn sealed_chunk_answers_like_its_samples(samples: &[Sample], kind: BlockKind) {
        let raw = Chunk::from_samples(samples.to_vec());
        let compressed = head_of(samples).seal();
        assert!(
            matches!(compressed.data, ChunkData::Compressed(sealed_as, _) if sealed_as == kind)
        );
        assert!(compressed.data_bytes() < raw.data_bytes());
        assert_eq!(raw.start(), compressed.start());
        assert_eq!(raw.end(), compressed.end());
        assert_eq!(raw.len(), compressed.len());
        assert_eq!(raw.last_sample(), compressed.last_sample());
        for at in [0, 499, 500, 7_777, 19_500, u64::MAX] {
            assert_eq!(raw.sample_at(at), compressed.sample_at(at), "at {at}");
        }
        let collect = |c: &Chunk, lo, hi| {
            let mut out = Vec::new();
            c.extend_into::<Sample>(lo, hi, &mut out);
            out
        };
        for (lo, hi) in [(0, u64::MAX), (250, 1_750), (500, 19_500), (20_000, 30_000)] {
            assert_eq!(collect(&raw, lo, hi), collect(&compressed, lo, hi), "[{lo}, {hi}]");
        }
        assert_eq!(compressed.iter_samples().collect::<Vec<_>>(), samples);
        // The owning cursors' per-chunk state walks it the same way.
        let mut state = ChunkIterState::positioned(&compressed, 0);
        let streamed: Vec<Sample> = std::iter::from_fn(|| state.next(&compressed)).collect();
        assert_eq!(streamed, samples);
    }
}
