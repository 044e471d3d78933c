//! What a time series is made of: samples, the chunks that hold them and the
//! searches over a run of chunks.
//!
//! Samples live in chunks.  A sealed chunk is a Gorilla block (see
//! [`crate::chunk_codec`]) behind a `(start, end, count)` footer and the
//! block's kind — whether its values are XOR-coded floats or delta-of-delta
//! integers, which the codec decided from the values and every decoder of
//! the block is told, as it is told the footer's start: the block leaves its
//! first timestamp out; the open one is the same block still being built, with
//! its newest samples raw in an inline tail in front of it (`crate::head`).
//!
//! Sealed chunks are packed `BLOCK_CHUNKS` (16) at a time into a `Block`: one
//! allocation of exactly its size holding the footers inline and the
//! payloads back to back, immutable once built.  A series' blocks form one
//! frozen list (`Sealed`) that snapshots share whole; a seal builds the last
//! block again with its chunk in it, and retention drops whole blocks and
//! builds again only a first block it ages in part.  What a sealed chunk
//! costs beside its payload is therefore its 25-byte footer and a sixteenth
//! of a block's and a list slot's overhead.
//!
//! A chunk is read one way, `Chunk::extend_into`: a raw payload sliced where
//! it lies, a block decoded whole by [`crate::chunk_codec::decode_into`] and
//! trimmed to the range.  A point read is that read up to its instant, into a
//! buffer the reading thread keeps, and the last sample of it.
//!
//! The series itself — name, labels, its sealed chunks and its head — is the
//! storage engine's (`MemSeries` in [`crate::storage`]); this module holds
//! what a series is made of and the footer-seeking searches over it
//! (`Chunks`, the sealed blocks and a snapshot's copy of the head).

use std::cell::Cell;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::chunk_codec::{decode_into, BlockKind};

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

/// In-memory size of one raw sample, used for the resident-bytes estimate in
/// [`crate::StorageStats`].
pub(crate) const SAMPLE_BYTES: usize = std::mem::size_of::<Sample>();

/// Bytes one raw sample takes in a chunk's payload: its timestamp, then its
/// value's bits, both little-endian — the form the WAL's snapshots carry
/// raw runs in, so a raw chunk is written and restored verbatim.
const RAW_SAMPLE_BYTES: usize = 16;

/// The raw sample at `index` of a raw payload.
fn raw_sample(bytes: &[u8], index: usize) -> Option<Sample> {
    let at = index.checked_mul(RAW_SAMPLE_BYTES)?;
    let (timestamp, value) = bytes.get(at..)?.first_chunk::<RAW_SAMPLE_BYTES>()?.split_at(8);
    Some(Sample {
        timestamp_ms: u64::from_le_bytes(timestamp.try_into().ok()?),
        value: f64::from_bits(u64::from_le_bytes(value.try_into().ok()?)),
    })
}

/// Writes `samples` as a raw payload into `out`, which holds sixteen bytes
/// for each.
pub(crate) fn put_raw(samples: &[Sample], out: &mut [u8]) {
    for (sample, slot) in samples.iter().zip(out.chunks_exact_mut(RAW_SAMPLE_BYTES)) {
        let (timestamp, value) = slot.split_at_mut(8);
        timestamp.copy_from_slice(&sample.timestamp_ms.to_le_bytes());
        value.copy_from_slice(&sample.value.to_bits().to_le_bytes());
    }
}

thread_local! {
    /// The samples a point read on this thread read last, kept from one read
    /// to the next, so a warm [`Chunk::sample_at`] allocates nothing.
    static AT_SCRATCH: Cell<Vec<Sample>> = const { Cell::new(Vec::new()) };
}

/// The first index in `0..len` at which `pred` fails, `pred` holding on a
/// prefix: [`slice::partition_point`] over positions rather than elements.
fn partition(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// How a chunk stores its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload<'a> {
    /// Plain samples, sixteen bytes each (see [`put_raw`]): chunks restored
    /// from snapshots that hold them, a sealed chunk whose block would have
    /// been larger than its samples, and a young head's copy.
    Raw(&'a [u8]),
    /// A Gorilla-compressed block of the given kind (see
    /// [`crate::chunk_codec`]).
    Block(BlockKind, &'a [u8]),
}

impl<'a> Payload<'a> {
    /// The payload's bytes, whatever their form.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        match *self {
            Payload::Raw(bytes) | Payload::Block(_, bytes) => bytes,
        }
    }
}

/// One chunk, read out of the [`Block`] that holds it: a `(start, end,
/// count)` footer and the payload behind it.  Samples are grouped into
/// chunks for retrieval and retention, the way Prometheus groups samples
/// into head/immutable chunks, and the footer is what lets time-based seeks
/// (`at`, range reads, retention) skip — never touch, let alone
/// decompress — the payload of a chunk outside the queried range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Chunk<'a> {
    pub(crate) start_ms: u64,
    pub(crate) end_ms: u64,
    pub(crate) count: u32,
    pub(crate) payload: Payload<'a>,
}

impl<'a> Chunk<'a> {
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
        self.payload.bytes().len()
    }

    /// The newest sample at or before `at_ms`: the last of the chunk's
    /// samples up to `at_ms`, read as a range read reads them
    /// ([`Chunk::extend_into`]: a block decoded whole) into the thread's
    /// [`AT_SCRATCH`].
    pub(crate) fn sample_at(&self, at_ms: u64) -> Option<Sample> {
        AT_SCRATCH.with(|scratch| {
            let mut samples = scratch.take();
            samples.clear();
            self.extend_into(0, at_ms, &mut samples);
            let newest = samples.last().copied();
            scratch.set(samples);
            newest
        })
    }

    /// Appends every sample in `[start_ms, end_ms]` to `out`.  Raw chunks
    /// slice by binary search; a block is decoded whole — a Gorilla stream
    /// cannot be entered mid-way, and a filter in the loop would cost every
    /// sample of every chunk two compares — and a chunk the range only partly
    /// covers (the first of a windowed read, as a rule) is trimmed where it
    /// landed.
    pub(crate) fn extend_into(&self, start_ms: u64, end_ms: u64, out: &mut Vec<Sample>) {
        match self.payload {
            Payload::Raw(bytes) => {
                let ts = |i| raw_sample(bytes, i).map_or(u64::MAX, |s| s.timestamp_ms);
                let a = partition(self.len(), |i| ts(i) < start_ms);
                let b = partition(self.len(), |i| ts(i) <= end_ms);
                out.extend((a..b).filter_map(|i| raw_sample(bytes, i)));
            }
            Payload::Block(kind, bytes) => {
                if self.is_empty() || self.start_ms > end_ms || self.end_ms < start_ms {
                    return;
                }
                let from = out.len();
                decode_into(bytes, kind, self.start_ms, self.len(), out);
                if start_ms <= self.start_ms && self.end_ms <= end_ms {
                    return;
                }
                let decoded = out.get(from..).unwrap_or(&[]);
                let keep = decoded.partition_point(|s| s.timestamp_ms <= end_ms);
                let skip = decoded.partition_point(|s| s.timestamp_ms < start_ms);
                out.truncate(from + keep);
                out.drain(from..from + skip.min(keep));
            }
        }
    }
}

/// Sealed chunks a [`Block`] packs at most.  A constant, chosen by
/// measurement, not configuration: on 1 016 series of 44 chunks each (a
/// counting allocator, what a sealed chunk holds beside its 55.5-byte
/// payload) 4 → 35.3 B, 8 → 31.1, 16 → 28.3, 32 → 27.4 — past sixteen the
/// footer is nearly all of it — while the copy a seal makes of the block
/// it lands in grows with it.
pub(crate) const BLOCK_CHUNKS: usize = 16;

const _: () = assert!(BLOCK_CHUNKS <= u8::MAX as usize, "a block counts its chunks in one byte");

/// Bytes one chunk's footer takes in its block: start and end timestamps,
/// the sample count, where the payload ends and the payload's kind, at
/// these offsets, little-endian.
pub(crate) const FOOTER_BYTES: usize = 8 + 8 + 4 + 4 + 1;
const AT_END: usize = 8;
const AT_COUNT: usize = 16;
const AT_PAYLOAD_END: usize = 20;
const AT_KIND: usize = 24;

/// What a block's allocation holds beside its footers and payloads: its
/// reference counts and its count byte.
const BLOCK_HEADER_BYTES: usize = 2 * size_of::<usize>() + 1;

/// What a list of blocks holds beside its slots: its reference counts.
const LIST_HEADER_BYTES: usize = 2 * size_of::<usize>();

/// A footer's kind byte: raw samples, an XOR block, an integer block.
const KIND_RAW: u8 = 0;
const KIND_XOR: u8 = 1;
const KIND_INTEGER: u8 = 2;

/// Reads the little-endian `u64` at `at` (`0` past the end).
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    bytes.get(at..).and_then(|b| b.first_chunk::<8>()).map_or(0, |b| u64::from_le_bytes(*b))
}

/// Reads the little-endian `u32` at `at` (`0` past the end).
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    bytes.get(at..).and_then(|b| b.first_chunk::<4>()).map_or(0, |b| u32::from_le_bytes(*b))
}

/// The footer of `chunk` in a block whose payloads, this chunk's included,
/// end `end` bytes in.
fn footer(chunk: &Chunk<'_>, end: usize) -> [u8; FOOTER_BYTES] {
    let kind = match chunk.payload {
        Payload::Raw(_) => KIND_RAW,
        Payload::Block(BlockKind::Xor, _) => KIND_XOR,
        Payload::Block(BlockKind::Integer, _) => KIND_INTEGER,
    };
    let mut footer = [0; FOOTER_BYTES];
    let fields = [
        &chunk.start_ms.to_le_bytes()[..],
        &chunk.end_ms.to_le_bytes(),
        &chunk.count.to_le_bytes(),
        &(end as u32).to_le_bytes(),
        &[kind],
    ];
    let mut at = 0;
    for field in fields {
        if let Some(slot) = footer.get_mut(at..at + field.len()) {
            slot.copy_from_slice(field);
        }
        at += field.len();
    }
    footer
}

/// Up to [`BLOCK_CHUNKS`] sealed chunks of one series, oldest first, in one
/// allocation of exactly their size: a chunk count byte, the chunks'
/// footers inline, then their payloads back to back.  Immutable once built:
/// the series and every snapshot of it share it by `Arc`, and a seal that
/// lands in it builds its successor instead.
#[derive(Debug, Clone)]
pub(crate) struct Block(Arc<[u8]>);

impl Block {
    /// Packs `chunks` (at most [`BLOCK_CHUNKS`], whose payloads together fit
    /// a `u32`) into a new block: one allocation, sized before it is made.
    pub(crate) fn pack<'a>(chunks: impl Iterator<Item = Chunk<'a>> + Clone) -> Self {
        let (count, payload) =
            chunks.clone().fold((0usize, 0usize), |(n, bytes), c| (n + 1, bytes + c.data_bytes()));
        let mut bytes: Arc<[u8]> =
            std::iter::repeat_n(0, 1 + count * FOOTER_BYTES + payload).collect();
        if let Some((count_byte, rest)) = Arc::get_mut(&mut bytes).and_then(|b| b.split_first_mut())
        {
            *count_byte = count as u8;
            let (footers, payloads) = rest.split_at_mut(count * FOOTER_BYTES);
            let mut end = 0usize;
            for (chunk, slot) in chunks.zip(footers.chunks_exact_mut(FOOTER_BYTES)) {
                let data = chunk.payload.bytes();
                if let Some(into) = payloads.get_mut(end..end + data.len()) {
                    into.copy_from_slice(data);
                }
                end += data.len();
                slot.copy_from_slice(&footer(&chunk, end));
            }
        }
        Block(bytes)
    }

    /// This block's chunks and `chunk` behind them, in a new block: the
    /// footers and payloads held are copied as they lie and the new ones
    /// written behind them — what a seal does, without reading a footer
    /// (a third of the time [`Block::pack`] takes over the same chunks).
    fn with(&self, chunk: &Chunk<'_>) -> Self {
        let count = self.len();
        let held = self.0.get(1..).unwrap_or(&[]);
        let (held_footers, held_payloads) =
            held.split_at_checked(count * FOOTER_BYTES).unwrap_or_default();
        let data = chunk.payload.bytes();
        let header = 1 + (count + 1) * FOOTER_BYTES;
        let mut bytes: Arc<[u8]> =
            std::iter::repeat_n(0, header + held_payloads.len() + data.len()).collect();
        if let Some((count_byte, rest)) = Arc::get_mut(&mut bytes).and_then(|b| b.split_first_mut())
        {
            *count_byte = (count + 1) as u8;
            let (footers, payloads) = rest.split_at_mut(header - 1);
            let (held, new) = footers.split_at_mut(held_footers.len());
            held.copy_from_slice(held_footers);
            new.copy_from_slice(&footer(chunk, held_payloads.len() + data.len()));
            let (held, new) = payloads.split_at_mut(held_payloads.len());
            held.copy_from_slice(held_payloads);
            new.copy_from_slice(data);
        }
        Block(bytes)
    }

    /// Chunks held.
    pub(crate) fn len(&self) -> usize {
        self.0.first().map_or(0, |&n| usize::from(n))
    }

    /// Where the payload of chunk `index` ends, counted from the first
    /// payload byte (`0` before the first chunk).
    fn payload_end(&self, index: Option<usize>) -> usize {
        index.map_or(0, |i| le_u32(&self.0, 1 + i * FOOTER_BYTES + AT_PAYLOAD_END) as usize)
    }

    /// The chunk at `index`, `None` past the last.
    pub(crate) fn chunk(&self, index: usize) -> Option<Chunk<'_>> {
        let count = self.len();
        if index >= count {
            return None;
        }
        let footer = 1 + index * FOOTER_BYTES;
        let base = 1 + count * FOOTER_BYTES;
        let (begin, end) = (self.payload_end(index.checked_sub(1)), self.payload_end(Some(index)));
        let bytes = self.0.get(base + begin..base + end)?;
        let payload = match *self.0.get(footer + AT_KIND)? {
            KIND_RAW => Payload::Raw(bytes),
            KIND_XOR => Payload::Block(BlockKind::Xor, bytes),
            KIND_INTEGER => Payload::Block(BlockKind::Integer, bytes),
            _ => return None,
        };
        Some(Chunk {
            start_ms: le_u64(&self.0, footer),
            end_ms: le_u64(&self.0, footer + AT_END),
            count: le_u32(&self.0, footer + AT_COUNT),
            payload,
        })
    }

    /// The chunks, oldest first.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = Chunk<'_>> + Clone {
        (0..self.len()).filter_map(|i| self.chunk(i))
    }

    fn last(&self) -> Option<Chunk<'_>> {
        self.chunk(self.len().checked_sub(1)?)
    }

    /// The payload bytes held, all chunks together.
    fn payload_bytes(&self) -> usize {
        self.payload_end(self.len().checked_sub(1))
    }

    /// What the block's allocation holds beside its payloads: the reference
    /// counts, the count byte and the footers.  (Not its padding to a word,
    /// at most seven bytes a block: that follows the payloads' lengths, and
    /// the ledger's figure for the records follows only what they hold.)
    fn overhead_bytes(&self) -> usize {
        BLOCK_HEADER_BYTES + self.len() * FOOTER_BYTES
    }

    /// Whether `chunk` may join this block's chunks in one block.
    fn has_room_for(&self, chunk: &Chunk<'_>) -> bool {
        self.len() < BLOCK_CHUNKS && self.payload_bytes() + chunk.data_bytes() <= u32::MAX as usize
    }
}

/// A series' sealed chunks: [`Block`]s, oldest first, in one frozen list —
/// `None` until the first seal — that a snapshot shares whole with one
/// reference count.  Every block is full but the first, which retention
/// trims, and the last, which seals fill.  Nothing here changes in place
/// while a reader can see it: a seal builds the last block again with the
/// new chunk in it and, unless the list is this series' alone, the list
/// too; retention drops whole blocks and builds again only a first block
/// it ages in part.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sealed(Option<Arc<[Block]>>);

impl Sealed {
    /// `chunks` sealed one after the other (recovery's constructor).
    pub(crate) fn from_chunks(chunks: &[Chunk<'_>]) -> Self {
        let mut sealed = Sealed::default();
        for &chunk in chunks {
            sealed.push(chunk);
        }
        sealed
    }

    /// The blocks, oldest first.
    pub(crate) fn blocks(&self) -> &[Block] {
        self.0.as_deref().unwrap_or(&[])
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Every sealed chunk, oldest first.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = Chunk<'_>> {
        self.blocks().iter().flat_map(Block::chunks)
    }

    pub(crate) fn first(&self) -> Option<Chunk<'_>> {
        self.blocks().first()?.chunk(0)
    }

    pub(crate) fn last(&self) -> Option<Chunk<'_>> {
        self.blocks().last()?.last()
    }

    /// Chunks held (from the blocks' count bytes).
    pub(crate) fn chunk_count(&self) -> usize {
        self.blocks().iter().map(Block::len).sum()
    }

    /// Samples held (from the footers).
    pub(crate) fn sample_count(&self) -> u64 {
        self.chunks().map(|c| u64::from(c.count)).sum()
    }

    /// Payload bytes held — what the resident ledger counts.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.blocks().iter().map(|b| b.payload_bytes() as u64).sum()
    }

    /// What the list and its blocks hold on the heap beside the payloads:
    /// the list's allocation — two counts and a slot a block — and each
    /// block's [`Block::overhead_bytes`].
    pub(crate) fn overhead_bytes(&self) -> usize {
        let Some(list) = &self.0 else { return 0 };
        LIST_HEADER_BYTES
            + list.len() * size_of::<Block>()
            + list.iter().map(Block::overhead_bytes).sum::<usize>()
    }

    /// Seals `chunk` behind the others: into a copy of the last block that
    /// holds it too, or into a block of its own when the last is full.  The
    /// list is rebuilt around the new block, or — when no snapshot shares
    /// it and the block count stays — takes it in its last slot.  Returns
    /// what that added to [`Sealed::overhead_bytes`], which it reads no
    /// other block to know.
    pub(crate) fn push(&mut self, chunk: Chunk<'_>) -> usize {
        let blocks = self.blocks();
        match blocks.split_last() {
            Some((last, kept)) if last.has_room_for(&chunk) => {
                let block = last.with(&chunk);
                let kept = kept.len();
                if let Some(slot) =
                    self.0.as_mut().and_then(Arc::get_mut).and_then(|list| list.get_mut(kept))
                {
                    *slot = block;
                } else {
                    let list = self.blocks().iter().take(kept).cloned();
                    self.0 = Some(list.chain(std::iter::once(block)).collect());
                }
                FOOTER_BYTES
            }
            _ => {
                let list_header = if self.is_empty() { LIST_HEADER_BYTES } else { 0 };
                let block = Block::pack(std::iter::once(chunk));
                self.0 = Some(blocks.iter().cloned().chain(std::iter::once(block)).collect());
                list_header + size_of::<Block>() + BLOCK_HEADER_BYTES + FOOTER_BYTES
            }
        }
    }

    /// Drops every chunk whose newest sample is older than `cutoff_ms`:
    /// whole blocks, and the aged front of the first block kept, which is
    /// built again without it.
    pub(crate) fn drop_before(&mut self, cutoff_ms: u64) {
        let aged =
            |c: Option<Chunk<'_>>| c.and_then(|c| c.end()).is_some_and(|end| end < cutoff_ms);
        let blocks = self.blocks();
        let whole = partition(blocks.len(), |b| aged(blocks.get(b).and_then(Block::last)));
        let first = blocks.get(whole);
        let partial = first.map_or(0, |b| partition(b.len(), |c| aged(b.chunk(c))));
        if whole == 0 && partial == 0 {
            return;
        }
        let rebuilt = first.filter(|_| partial > 0).map(|b| Block::pack(b.chunks().skip(partial)));
        let kept = blocks.get(whole + usize::from(rebuilt.is_some())..).unwrap_or(&[]);
        self.0 = match (rebuilt, kept.is_empty()) {
            (None, true) => None,
            (rebuilt, _) => Some(rebuilt.into_iter().chain(kept.iter().cloned()).collect()),
        };
    }
}

/// Where a chunk sits in a [`Chunks`]: its block (the head's copy counts as
/// one more block behind the sealed ones) and its index in that block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChunkPos {
    block: usize,
    chunk: usize,
}

/// The chunks a reader sees: the series' sealed blocks, shared, and behind
/// them a one-chunk block holding a copy of the open head — so nothing that
/// reads them knows an open head from a sealed chunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunks {
    sealed: Sealed,
    head: Option<Block>,
}

impl Chunks {
    pub(crate) fn new(sealed: Sealed, head: Option<Block>) -> Self {
        Self { sealed, head }
    }

    fn block(&self, index: usize) -> Option<&Block> {
        let sealed = self.sealed.blocks();
        match sealed.get(index) {
            Some(block) => Some(block),
            None if index == sealed.len() => self.head.as_ref(),
            None => None,
        }
    }

    fn block_count(&self) -> usize {
        self.sealed.blocks().len() + usize::from(self.head.is_some())
    }

    /// Chunks held (from the blocks' count bytes).
    pub(crate) fn chunk_count(&self) -> usize {
        self.sealed.chunk_count() + self.head.as_ref().map_or(0, Block::len)
    }

    /// The chunk at `pos`, `None` past the last.
    fn get(&self, pos: ChunkPos) -> Option<Chunk<'_>> {
        self.block(pos.block)?.chunk(pos.chunk)
    }

    /// Every chunk from `pos` on, in order.
    fn iter_from(&self, pos: ChunkPos) -> impl Iterator<Item = Chunk<'_>> + Clone {
        let blocks = self.sealed.blocks().iter().chain(self.head.as_ref());
        blocks
            .skip(pos.block)
            .zip([pos.chunk].into_iter().chain(std::iter::repeat(0)))
            .flat_map(|(block, from)| (from..block.len()).filter_map(move |i| block.chunk(i)))
    }

    /// Every chunk, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Chunk<'_>> + Clone {
        self.iter_from(ChunkPos::default())
    }

    pub(crate) fn first(&self) -> Option<Chunk<'_>> {
        self.get(ChunkPos::default())
    }

    pub(crate) fn last(&self) -> Option<Chunk<'_>> {
        self.block(self.block_count().checked_sub(1)?)?.last()
    }

    /// The position of the first chunk `pred` fails on, `pred` holding on a
    /// prefix of the chunks: a binary search over the blocks by their last
    /// footer, then one inside the block it lands in.
    fn partition(&self, pred: impl Fn(&Chunk<'_>) -> bool) -> ChunkPos {
        let block = partition(self.block_count(), |b| {
            self.block(b).and_then(Block::last).is_some_and(|c| pred(&c))
        });
        let chunk = self
            .block(block)
            .map_or(0, |b| partition(b.len(), |c| b.chunk(c).is_some_and(|c| pred(&c))));
        ChunkPos { block, chunk }
    }

    /// The newest sample at or before `at_ms`: binary search over the chunk
    /// footers to the covering chunk, then a search inside it.  Empty chunks
    /// would have to come last, where both predicates put them.
    pub(crate) fn at(&self, at_ms: u64) -> Option<Sample> {
        let after = self.partition(|c| c.start().is_some_and(|start| start <= at_ms));
        let covering = match after {
            ChunkPos { chunk: 0, block } => {
                let block = block.checked_sub(1)?;
                ChunkPos { block, chunk: self.block(block)?.len().checked_sub(1)? }
            }
            ChunkPos { block, chunk } => ChunkPos { block, chunk: chunk - 1 },
        };
        self.get(covering)?.sample_at(at_ms)
    }

    /// The position of the first chunk that ends at or after `start_ms`.
    fn seek(&self, start_ms: u64) -> ChunkPos {
        self.partition(|c| c.end().is_some_and(|end| end < start_ms))
    }

    /// Appends every sample in `[start_ms, end_ms]` of the chunks from `pos`
    /// on — [`Chunks::seek`]`(start_ms)` or later — to `out`, pre-reserving
    /// the overlapping chunks' exact sample count.
    fn extend_from(&self, pos: ChunkPos, start_ms: u64, end_ms: u64, out: &mut Vec<Sample>) {
        let overlapping =
            self.iter_from(pos).take_while(|c| c.start().is_some_and(|start| start <= end_ms));
        out.reserve(overlapping.clone().map(|c| c.len()).sum());
        for chunk in overlapping {
            chunk.extend_into(start_ms, end_ms, out);
        }
    }

    /// Appends every sample in `[start_ms, end_ms]` to `out`.
    pub(crate) fn extend_range(&self, start_ms: u64, end_ms: u64, out: &mut Vec<Sample>) {
        self.extend_from(self.seek(start_ms), start_ms, end_ms, out);
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
        assert_eq!(s.at(u64::MAX), None);
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

    /// `samples` as a raw payload.
    fn raw_bytes(samples: &[Sample]) -> Vec<u8> {
        let mut bytes = vec![0; samples.len() * RAW_SAMPLE_BYTES];
        put_raw(samples, &mut bytes);
        bytes
    }

    fn raw_chunk(samples: &[Sample], bytes: &[u8]) -> Block {
        Block::pack(std::iter::once(Chunk {
            start_ms: samples.first().map_or(0, |s| s.timestamp_ms),
            end_ms: samples.last().map_or(0, |s| s.timestamp_ms),
            count: samples.len() as u32,
            payload: Payload::Raw(bytes),
        }))
    }

    /// Every sample of `chunk`, in order.
    fn decoded(chunk: &Chunk<'_>) -> Vec<Sample> {
        let mut out = Vec::new();
        chunk.extend_into(0, u64::MAX, &mut out);
        out
    }

    /// Seals `head` into a block of its own.
    fn sealed(head: &mut Head) -> Block {
        head.seal(|chunk| Block::pack(std::iter::once(chunk)))
    }

    #[test]
    fn a_block_larger_than_its_samples_is_stored_raw() {
        // Every delta takes the 68-bit raw escape and every value a new,
        // near-full window: ≈ 140 bits a sample against 128 raw, which
        // sixteen samples need to outweigh the 64 bits the first one saves.
        let samples: Vec<Sample> = (0..16u64)
            .map(|i| Sample {
                timestamp_ms: (i * i) << 40,
                value: f64::from_bits((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            })
            .collect();
        let mut head = head_of(&samples);
        assert!(head.resident_bytes() > samples.len() * SAMPLE_BYTES, "the codec did encode it");
        let block = sealed(&mut head);
        let chunk = block.chunk(0).expect("one chunk");
        assert_eq!(chunk.payload, Payload::Raw(&raw_bytes(&samples)));
        assert_eq!(chunk.data_bytes(), samples.len() * SAMPLE_BYTES);
        assert_eq!((chunk.start(), chunk.end(), chunk.len()), (Some(0), Some(225 << 40), 16));
        assert_eq!(decoded(&chunk), samples);
        assert!(head.is_empty() && head.block_buffer().1 > 0, "the seal keeps the buffer");
        // A lone sample is its value's 8 bytes as an XOR block: a block.
        let one = sealed(&mut head_of(&samples[..1]));
        assert!(matches!(one.chunk(0).unwrap().payload, Payload::Block(_, b) if b.len() == 8));
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
        let bytes = raw_bytes(samples);
        let (raw, compressed) = (raw_chunk(samples, &bytes), sealed(&mut head_of(samples)));
        let (raw, compressed) = (raw.chunk(0).unwrap(), compressed.chunk(0).unwrap());
        assert!(matches!(compressed.payload, Payload::Block(sealed_as, _) if sealed_as == kind));
        assert!(compressed.data_bytes() < raw.data_bytes());
        assert_eq!(raw.start(), compressed.start());
        assert_eq!(raw.end(), compressed.end());
        assert_eq!(raw.len(), compressed.len());
        for at in [0, 499, 500, 7_777, 19_500, u64::MAX] {
            assert_eq!(raw.sample_at(at), compressed.sample_at(at), "at {at}");
        }
        let collect = |c: &Chunk<'_>, lo, hi| {
            let mut out = Vec::new();
            c.extend_into(lo, hi, &mut out);
            out
        };
        for (lo, hi) in [(0, u64::MAX), (250, 1_750), (500, 19_500), (20_000, 30_000)] {
            assert_eq!(collect(&raw, lo, hi), collect(&compressed, lo, hi), "[{lo}, {hi}]");
        }
        for chunk in [raw, compressed] {
            assert_eq!(decoded(&chunk), samples);
        }
    }

    /// Chunk `i` of a test series: four samples at one a second from `4 i`
    /// seconds, raw for every third chunk and a block otherwise.
    fn nth_chunk(i: u64) -> (Vec<Sample>, Block) {
        let samples: Vec<Sample> = (4 * i..4 * i + 4)
            .map(|t| Sample { timestamp_ms: t * 1_000, value: (t * t) as f64 })
            .collect();
        let block = if i.is_multiple_of(3) {
            raw_chunk(&samples, &raw_bytes(&samples))
        } else {
            sealed(&mut head_of(&samples))
        };
        (samples, block)
    }

    fn samples_of(sealed: &Sealed) -> Vec<Sample> {
        sealed.chunks().flat_map(|c| decoded(&c)).collect()
    }

    #[test]
    fn seals_fill_blocks_copy_on_write_and_retention_trims_the_first() {
        let mut sealed = Sealed::default();
        let mut model = Vec::new();
        let mut held = Vec::new();
        for i in 0..2 * BLOCK_CHUNKS as u64 + 3 {
            let (samples, block) = nth_chunk(i);
            // A reader holding the list sees it as it was, whatever comes.
            held.push((sealed.clone(), model.clone()));
            let overhead = sealed.overhead_bytes();
            let added = sealed.push(block.chunk(0).unwrap());
            assert_eq!(sealed.overhead_bytes(), overhead + added);
            model.extend(samples);
            assert_eq!(samples_of(&sealed), model);
            let blocks: Vec<usize> = sealed.blocks().iter().map(Block::len).collect();
            let full = (i as usize + 1) / BLOCK_CHUNKS;
            assert_eq!(
                blocks.len(),
                full + usize::from(!(i as usize + 1).is_multiple_of(BLOCK_CHUNKS))
            );
            assert!(blocks.iter().take(full).all(|&n| n == BLOCK_CHUNKS), "{blocks:?}");
            assert_eq!(sealed.chunk_count(), i as usize + 1);
            assert_eq!(sealed.sample_count(), model.len() as u64);
        }
        for (then, samples) in &held {
            assert_eq!(&samples_of(then), samples);
        }
        let payload: u64 = sealed.chunks().map(|c| c.data_bytes() as u64).sum();
        assert_eq!(sealed.payload_bytes(), payload);
        // Two full blocks and one of three: the list, three blocks' counts
        // and count bytes, and a footer a chunk.
        assert_eq!(sealed.overhead_bytes(), 16 + 3 * 16 + 3 * (16 + 1) + 35 * FOOTER_BYTES);

        // A cutoff inside the second block: the first goes whole, the second
        // is built again from its young end, the third is kept as it is.
        // What is left: chunks, samples and the first chunk's start.
        let left =
            |s: &Sealed| (s.chunk_count(), s.sample_count(), s.first().and_then(|c| c.start()));
        let before = sealed.clone();
        let first_kept = 4_000 * (BLOCK_CHUNKS as u64 + 5);
        sealed.drop_before(first_kept + 1);
        assert_eq!(left(&sealed), (14, 4 * 14, Some(first_kept)));
        let kept: Vec<Sample> = model.iter().copied().skip(4 * (BLOCK_CHUNKS + 5)).collect();
        assert_eq!(samples_of(&sealed), kept);
        let payload: u64 = sealed.chunks().map(|c| c.data_bytes() as u64).sum();
        assert_eq!(sealed.payload_bytes(), payload);
        assert_eq!(sealed.blocks().iter().map(Block::len).collect::<Vec<_>>(), [11, 3]);
        assert!(Arc::ptr_eq(&sealed.blocks()[1].0, &before.blocks()[2].0), "kept, not copied");
        assert_eq!(samples_of(&before), model, "the snapshot held before is untouched");
        sealed.drop_before(first_kept + 1);
        assert_eq!(left(&sealed), (14, 4 * 14, Some(first_kept)), "nothing more to drop");
        sealed.drop_before(u64::MAX);
        assert_eq!(left(&sealed), (0, 0, None));
        assert!(sealed.is_empty() && sealed.blocks().is_empty());
        assert_eq!(sealed.overhead_bytes(), 0);

        // Recovery seals the chunks it read one after the other.
        let restored = Sealed::from_chunks(&before.chunks().collect::<Vec<_>>());
        assert_eq!(samples_of(&restored), model);
        let lens: Vec<usize> = restored.blocks().iter().map(Block::len).collect();
        assert_eq!(lens, [BLOCK_CHUNKS, BLOCK_CHUNKS, 3]);
    }

    #[test]
    fn reads_cross_block_boundaries_and_end_in_the_head() {
        let mut sealed = Sealed::default();
        let mut model = Vec::new();
        for i in 0..BLOCK_CHUNKS as u64 + 2 {
            let (samples, block) = nth_chunk(i);
            sealed.push(block.chunk(0).unwrap());
            model.extend(samples);
        }
        let (head_samples, head) = nth_chunk(BLOCK_CHUNKS as u64 + 2);
        model.extend(head_samples);
        let chunks = Chunks::new(sealed, Some(head));
        assert_eq!(chunks.iter().count(), BLOCK_CHUNKS + 3);
        assert_eq!(chunks.first().and_then(|c| c.start()), Some(0));
        assert_eq!(chunks.last().and_then(|c| c.end()), model.last().map(|s| s.timestamp_ms));
        for at in (0..model.len() as u64 * 1_000 + 2_000).step_by(500) {
            let expected = model.iter().rev().find(|s| s.timestamp_ms <= at).copied();
            assert_eq!(chunks.at(at), expected, "at {at}");
        }
        for (lo, hi) in [(0, u64::MAX), (3_500, 70_000), (63_000, 65_000), (71_000, 80_000)] {
            let mut out = Vec::new();
            chunks.extend_range(lo, hi, &mut out);
            let expected: Vec<Sample> =
                model.iter().copied().filter(|s| (lo..=hi).contains(&s.timestamp_ms)).collect();
            assert_eq!(out, expected, "[{lo}, {hi}]");
        }
    }
}
