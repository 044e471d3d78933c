//! Zero-copy read handles over stored series.
//!
//! A [`SeriesSnapshot`] is what [`crate::TimeSeriesDb::select`] returns: the
//! series' sealed chunks — its frozen list of packed blocks, each up to
//! sixteen chunks' footers and payloads in one allocation — shared whole
//! with one reference count (no sample is copied or decoded, and a seal or
//! a retention pass after it builds new blocks and a new list rather than
//! touch these), the open head copied once, in one allocation of exactly
//! its size, as a block of one chunk — the block it is building, completed
//! with the few samples still in its tail (or, before its first burst,
//! those samples as they are), so it reads like any sealed chunk — and the
//! metric name/label strings, materialised at selection: the stored series
//! keeps its key as symbols only, and the snapshot gets its own packed copy
//! of the label strings (one allocation; the shared strings are read, never
//! written, so concurrent readers do not contend on their reference counts)
//! and a reference on the name, so it keeps reading them after its series is
//! evicted, its symbols swept and their slots reused.  Taking a snapshot is
//! two allocations and O(label bytes + head) regardless of how many samples
//! or chunks the series holds, and the snapshot stays consistent while the
//! database keeps ingesting.
//!
//! Reads go through [`SeriesSnapshot::at`] (a binary search over the blocks'
//! footers, then one in the block, then a bounded in-chunk search),
//! [`SeriesSnapshot::points_in`] (pre-sized range materialisation) or the
//! streaming cursors.  Sealed chunks are
//! Gorilla-compressed (see [`crate::chunk_codec`]) in one of the codec's two
//! kinds — whole-number values as integer deltas, anything else XOR-coded —
//! which each chunk's footer carries and every cursor hands to the decoder
//! it opens on it, so nothing here cares which it is; the cursors
//! decode incrementally — a few words of decoder state per chunk — so a
//! range scan never materialises a decompressed chunk, and chunks outside
//! the queried window are skipped by their `(start, end, count)` footers
//! without touching the compressed payload at all.
//!
//! [`SampleCursor`] borrows the snapshot; [`OwnedSampleCursor`] shares its
//! blocks by `Arc` instead (two reference counts, whatever the chunk
//! count), for consumers like the query engine's plans that cannot hold a
//! borrow.  The range evaluator does not step it: it drains one
//! series' whole range with [`OwnedSampleCursor::read_into`] into a buffer it
//! reuses for the next series.

use std::sync::Arc;

use teemon_metrics::Labels;

use crate::series::{Block, ChunkIterState, ChunkPos, Chunks, Sample, Sealed, SeriesId};

/// An immutable, cheaply clonable view of one series at selection time.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    pub(crate) id: SeriesId,
    name: Arc<str>,
    labels: Labels,
    /// Time-ordered, non-empty chunks: the sealed blocks plus (when the
    /// series has unsealed samples) one block holding a copy of the head.
    chunks: Chunks,
}

impl SeriesSnapshot {
    pub(crate) fn new(
        id: SeriesId,
        name: Arc<str>,
        labels: Labels,
        sealed: Sealed,
        head: Option<Block>,
    ) -> Self {
        Self { id, name, labels, chunks: Chunks::new(sealed, head) }
    }

    /// The identifier the database assigned to this series (creation order).
    pub fn series_id(&self) -> SeriesId {
        self.id
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The labels as `(name, value)` pairs in sorted name order.
    pub fn labels(&self) -> impl Iterator<Item = (&str, &str)> {
        self.labels.iter()
    }

    /// The value of one label, if present.
    pub fn label_value(&self, name: &str) -> Option<&str> {
        self.labels.get(name)
    }

    /// The labels as an owned [`Labels`] set (the boundary back into the
    /// string-keyed world; a copy, so it allocates).
    pub fn to_labels(&self) -> Labels {
        self.labels.clone()
    }

    /// `name{labels}` in the same format the owned query results use, or the
    /// bare name for an unlabelled series.
    pub fn display_name(&self) -> String {
        if self.labels.is_empty() {
            self.name.to_string()
        } else {
            format!("{}{}", self.name, self.labels)
        }
    }

    /// Number of samples in the snapshot (from chunk footers; never decodes).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// `true` when the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.chunks.first().is_none()
    }

    /// Number of chunks backing the snapshot.
    pub fn chunk_count(&self) -> usize {
        self.chunks.chunk_count()
    }

    /// Bytes resident in the backing chunks: their compressed sizes, the
    /// head's as one finished block (raw before its first burst).
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.data_bytes()).sum()
    }

    /// Timestamp of the oldest sample.
    pub fn first_timestamp(&self) -> Option<u64> {
        self.chunks.first().and_then(|c| c.start())
    }

    /// Timestamp of the newest sample.
    pub fn last_timestamp(&self) -> Option<u64> {
        self.chunks.last().and_then(|c| c.end())
    }

    /// The newest sample.
    pub fn last_sample(&self) -> Option<Sample> {
        self.chunks.last().and_then(|c| c.last_sample())
    }

    /// The newest sample at or before `at_ms` (instant-query semantics):
    /// binary search over the chunk footers, then a bounded search inside the
    /// covering chunk.
    pub fn at(&self, at_ms: u64) -> Option<Sample> {
        self.chunks.at(at_ms)
    }

    /// `(timestamp_ms, value)` points within `[start_ms, end_ms]`, pre-sized
    /// and in chronological order.
    pub fn points_in(&self, start_ms: u64, end_ms: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        self.chunks.extend_range(start_ms, end_ms, &mut out);
        out
    }

    /// A streaming cursor over the samples within `[start_ms, end_ms]`.
    /// Positions itself by the chunk footers; iteration decodes compressed
    /// chunks incrementally and never copies one.
    pub fn cursor(&self, start_ms: u64, end_ms: u64) -> SampleCursor<'_> {
        SampleCursor { chunks: &self.chunks, core: CursorCore::new(&self.chunks, start_ms, end_ms) }
    }

    /// A cursor over every sample in the snapshot.
    pub fn samples(&self) -> SampleCursor<'_> {
        self.cursor(0, u64::MAX)
    }

    /// Like [`SeriesSnapshot::cursor`], but sharing the blocks by `Arc` so
    /// the cursor is `'static` and can outlive the snapshot (a query plan
    /// holds one per series from planning until that series is evaluated).
    pub fn owned_cursor(&self, start_ms: u64, end_ms: u64) -> OwnedSampleCursor {
        OwnedSampleCursor {
            core: CursorCore::new(&self.chunks, start_ms, end_ms),
            chunks: self.chunks.clone(),
        }
    }
}

/// Chunk-walking state shared by the borrowed and owning cursors: the
/// position of the chunk being read, the in-chunk position (sample index or
/// streaming decoder registers) and the `[start_ms, end_ms]` bounds.
#[derive(Debug, Clone)]
struct CursorCore {
    /// The chunk being read while `state` is `Some`, else the next to open.
    pos: ChunkPos,
    state: Option<ChunkIterState>,
    start_ms: u64,
    end_ms: u64,
    done: bool,
}

impl CursorCore {
    fn new(chunks: &Chunks, start_ms: u64, end_ms: u64) -> Self {
        // Skip chunks that end before the range starts via their footers.
        Self { pos: chunks.seek(start_ms), state: None, start_ms, end_ms, done: false }
    }

    fn next(&mut self, chunks: &Chunks) -> Option<Sample> {
        if self.done {
            return None;
        }
        loop {
            let Some(chunk) = chunks.get(self.pos) else {
                self.done = true;
                return None;
            };
            let start_ms = self.start_ms;
            let state =
                self.state.get_or_insert_with(|| ChunkIterState::positioned(&chunk, start_ms));
            match state.next(&chunk) {
                // Only the first opened chunk can straddle the range
                // start; a compressed one is skipped sample by sample.
                Some(s) if s.timestamp_ms < self.start_ms => continue,
                Some(s) if s.timestamp_ms <= self.end_ms => return Some(s),
                Some(_) => {
                    self.done = true;
                    return None;
                }
                None => {
                    self.state = None;
                    self.pos = chunks.next_pos(self.pos);
                }
            }
        }
    }

    /// Appends every sample [`CursorCore::next`] would still yield to `out`
    /// and exhausts the cursor.  From a chunk boundary (a fresh cursor above
    /// all) the rest is drained chunk by chunk: the footers bound the span
    /// and size one reservation, raw chunks are sliced, and blocks go through
    /// the bulk decoder.  A cursor stopped inside a chunk finishes
    /// sample by sample — a Gorilla stream cannot be re-entered mid-way.
    fn read_into(&mut self, chunks: &Chunks, out: &mut Vec<Sample>) {
        if self.state.is_some() {
            while let Some(sample) = self.next(chunks) {
                out.push(sample);
            }
        } else if !self.done {
            chunks.extend_from(self.pos, self.start_ms, self.end_ms, out);
            self.done = true;
        }
    }
}

/// A forward cursor over one snapshot's samples, bounded by an end timestamp.
#[derive(Debug, Clone)]
pub struct SampleCursor<'a> {
    chunks: &'a Chunks,
    core: CursorCore,
}

impl Iterator for SampleCursor<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        self.core.next(self.chunks)
    }
}

/// A forward cursor that co-owns the snapshot's blocks (`Arc`-shared), so it
/// has no lifetime tie to the [`SeriesSnapshot`] it came from.
#[derive(Debug, Clone)]
pub struct OwnedSampleCursor {
    chunks: Chunks,
    core: CursorCore,
}

impl OwnedSampleCursor {
    /// Appends every remaining sample to `out` and exhausts the cursor — what
    /// collecting the iterator yields, but decoding sealed chunks in bulk
    /// into a buffer the caller can reuse from series to series.
    pub fn read_into(&mut self, out: &mut Vec<Sample>) {
        self.core.read_into(&self.chunks, out);
    }
}

impl Iterator for OwnedSampleCursor {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        self.core.next(&self.chunks)
    }
}
