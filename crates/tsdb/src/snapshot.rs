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
//! footers, then one in the block, then one over the covering chunk's
//! samples), [`SeriesSnapshot::points_in`] (pre-sized range materialisation)
//! or a [`SampleRange`].  Sealed chunks are Gorilla-compressed (see
//! [`crate::chunk_codec`]) in one of the codec's two kinds — whole-number
//! values as integer deltas, anything else XOR-coded — which each chunk's
//! footer carries and the decoder is handed, so nothing here cares which it
//! is.  Every read decodes a block whole, through the one decoder
//! ([`crate::chunk_codec::decode_into`]): a range read skips the chunks
//! outside its window by their `(start, end, count)` footers without touching
//! their payloads and decodes the rest, a point read decodes the one chunk it
//! lands in into a buffer the thread keeps.
//!
//! [`SampleRange`] shares the snapshot's blocks by `Arc` (two reference
//! counts, whatever the chunk count), for consumers like the query engine's
//! plans that cannot hold a borrow: a plan takes one per series and drains it
//! with [`SampleRange::read_into`] into a buffer it reuses for the next
//! series.

use std::sync::Arc;

use teemon_metrics::Labels;

use crate::series::{Block, Chunks, Sample, Sealed, SeriesId};

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

    /// The newest sample at or before `at_ms` (instant-query semantics; the
    /// newest of all at `u64::MAX`): binary search over the chunk footers,
    /// then one over the covering chunk's samples, a block's decoded whole
    /// into a buffer the thread keeps.
    pub fn at(&self, at_ms: u64) -> Option<Sample> {
        self.chunks.at(at_ms)
    }

    /// The samples within `[start_ms, end_ms]`, pre-sized and in
    /// chronological order.
    pub fn points_in(&self, start_ms: u64, end_ms: u64) -> Vec<Sample> {
        let mut out = Vec::new();
        self.chunks.extend_range(start_ms, end_ms, &mut out);
        out
    }

    /// The samples within `[start_ms, end_ms]` as a handle that shares the
    /// blocks by `Arc`, so it is `'static` and can outlive the snapshot (a
    /// query plan holds one per series from planning until that series is
    /// evaluated).  Nothing is decoded until [`SampleRange::read_into`].
    pub fn range(&self, start_ms: u64, end_ms: u64) -> SampleRange {
        SampleRange { chunks: self.chunks.clone(), start_ms, end_ms }
    }
}

/// One series' samples within `[start_ms, end_ms]`, co-owning the snapshot's
/// blocks (`Arc`-shared), so it has no lifetime tie to the
/// [`SeriesSnapshot`] it came from.
#[derive(Debug, Clone)]
pub struct SampleRange {
    chunks: Chunks,
    start_ms: u64,
    end_ms: u64,
}

impl SampleRange {
    /// Appends the range's samples to `out`, in chronological order: the
    /// footers bound the span and size one reservation, raw chunks are
    /// sliced and blocks go through the decoder, into a buffer the
    /// caller can reuse from series to series.
    pub fn read_into(&self, out: &mut Vec<Sample>) {
        self.chunks.extend_range(self.start_ms, self.end_ms, out);
    }
}
