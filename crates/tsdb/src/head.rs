//! The open chunk of a stored series: a block like the sealed ones, still
//! being built.
//!
//! [`Head`] is a Gorilla block (see [`crate::chunk_codec`]) built in bursts
//! of [`TAIL_SAMPLES`] by a resumable encoder, with its newest samples raw in
//! a tail in front of it.  So an open chunk costs about what a sealed one
//! does, an append is a sixteen-byte store, and sealing is a copy.
//!
//! A head is its own heap block, 216 bytes — the tail, the encoder's
//! registers (the block's start among them: the block does not hold its
//! first timestamp, see [`crate::chunk_codec`]; the pending bits of its last
//! word live in the buffer, not the encoder), the block buffer's header —
//! behind one pointer in the series record, and exists only while its series
//! is being written: the storage engine allocates it with the series,
//! **drops** it (not merely empties it) when a retention pass finds the
//! series stale or drops the samples it holds, and allocates another when a
//! sample revives the series.  A seal of a full chunk keeps it, and its
//! buffer, for the next.  The record keeps the
//! tail's length and the newest timestamp beside the pointer, so the common
//! append goes through [`Head::store_at`] and reads nothing here.
//!
//! The block's kind is the encoder's to decide and the head's to carry: an
//! integer block while every value it was given is a whole number, re-encoded
//! as an XOR block, in place, by the burst that brings the first value that
//! is not (`teemon_tsdb_block_reencodes_total` counts those bursts — a series
//! set flapping between the kinds pays one per chunk).  Readers, the seal and
//! the snapshot ask the encoder which it is.

use std::cell::Cell;

use teemon_obs::probes;

use crate::chunk_codec::{decode, whole, BlockEncoder, BlockKind};
use crate::series::{put_raw, Block, Chunk, Payload, Sample, SAMPLE_BYTES};

/// Samples an open [`Head`] keeps raw, inline, in front of its block: the
/// burst the encoder runs in.  A constant, not configuration: at eight the
/// append path reads within a few percent of a plain sample buffer's (an
/// encode per append reads further off), and an open chunk still costs
/// about what a sealed one does.
pub(crate) const TAIL_SAMPLES: usize = 8;

/// A head's first block buffer; it doubles from here with what it holds.
const BLOCK_INITIAL_BYTES: usize = 32;

thread_local! {
    /// The buffer a snapshot of a head completes the head's block in, kept
    /// from one snapshot to the next, so the copy a snapshot keeps is one
    /// allocation of exactly its size.
    static SNAPSHOT_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The open chunk of a stored series: a Gorilla block built in bursts — a
/// resumable [`BlockEncoder`] beside the buffer it writes — behind a tail of
/// the newest, not yet encoded samples, inline in this record.  An append is
/// a 16-byte store into the tail; the append that fills it encodes the burst;
/// a seal encodes what the tail still holds and copies the block out at its
/// exact size.
/// Between bursts the buffer holds the *finished* block, so readers decode it
/// where it lies and the ledger counts its length.
#[derive(Debug)]
pub(crate) struct Head {
    tail: [Sample; TAIL_SAMPLES],
    tail_len: u8,
    encoder: BlockEncoder,
    block: Vec<u8>,
}

impl Default for Head {
    fn default() -> Self {
        Self {
            tail: [Sample { timestamp_ms: 0, value: 0.0 }; TAIL_SAMPLES],
            tail_len: 0,
            encoder: BlockEncoder::new(),
            block: Vec::new(),
        }
    }
}

impl Head {
    /// The samples not yet encoded, oldest first.
    pub(crate) fn tail(&self) -> &[Sample] {
        self.tail.get(..usize::from(self.tail_len)).unwrap_or(&[])
    }

    /// Samples held, block and tail.
    pub(crate) fn len(&self) -> usize {
        self.encoder.count() as usize + usize::from(self.tail_len)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the oldest sample: the block's start, which the
    /// encoder keeps (the block leaves it out), or before the first burst
    /// the tail's.
    pub(crate) fn first_timestamp(&self) -> Option<u64> {
        self.encoder.first_timestamp().or_else(|| self.tail().first().map(|s| s.timestamp_ms))
    }

    /// Timestamp of the newest sample: the tail's, or the encoder's register.
    pub(crate) fn last_timestamp(&self) -> Option<u64> {
        self.tail().last().map(|s| s.timestamp_ms).or_else(|| self.encoder.last_timestamp())
    }

    /// What the ledger counts for this head: 16 bytes per tail sample and
    /// the block's bytes in use.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.tail().len() * SAMPLE_BYTES + self.block.len()
    }

    /// `(bytes in use, capacity)` of the block buffer.
    #[cfg(test)]
    pub(crate) fn block_buffer(&self) -> (usize, usize) {
        (self.block.len(), self.block.capacity())
    }

    /// Appends `sample` to the tail if the tail has room for another after
    /// it — [`SAMPLE_BYTES`] more resident, nothing else moves — and returns
    /// whether it did.  The hot half of [`Head::push`].
    #[inline]
    fn store(&mut self, sample: Sample) -> bool {
        let at = usize::from(self.tail_len);
        match self.tail.get_mut(at) {
            Some(slot) if at + 1 < TAIL_SAMPLES => {
                *slot = sample;
                self.tail_len += 1;
                true
            }
            _ => false,
        }
    }

    /// [`Head::store`] for a caller that keeps the tail's length itself —
    /// `at`, less than [`TAIL_SAMPLES`]` - 1` — so the head is written and
    /// not read (the storage engine's append: a store that misses the cache
    /// does not stall it, a load would).
    #[inline]
    pub(crate) fn store_at(&mut self, at: u8, sample: Sample) {
        debug_assert_eq!(at, self.tail_len);
        if let Some(slot) = self.tail.get_mut(usize::from(at)) {
            *slot = sample;
            self.tail_len = at + 1;
        }
    }

    /// Appends `sample` (not older than the newest held — the caller
    /// checked); the append that fills the tail encodes it.  Returns what
    /// that did to [`Head::resident_bytes`]: [`SAMPLE_BYTES`] more, or the
    /// block's growth less the tail it took in.
    pub(crate) fn push(&mut self, sample: Sample) -> i64 {
        if self.store(sample) {
            return SAMPLE_BYTES as i64;
        }
        let before = self.resident_bytes();
        if let Some(slot) = self.tail.get_mut(usize::from(self.tail_len)) {
            *slot = sample;
            self.tail_len += 1;
        }
        self.flush();
        self.resident_bytes() as i64 - before as i64
    }

    /// Encodes the tail into the block and leaves the block finished.
    fn flush(&mut self) {
        if self.tail_len == 0 {
            return;
        }
        // The block's buffer grows by doubling — a handful of times in a
        // series' first chunk, then it is kept — and the burst that brings
        // an integer block its first fraction decodes and re-encodes what the
        // block holds; the lock audit's no-alloc check is suspended for both
        // explicitly.
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        if self.block.capacity() == 0 {
            self.block.reserve_exact(BLOCK_INITIAL_BYTES);
        }
        let Self { tail, tail_len, encoder, block } = self;
        let tail = tail.get(..usize::from(*tail_len)).unwrap_or(&[]);
        // An integer block with a sample in it: held already, or about to be.
        let was_integer = encoder.kind() == BlockKind::Integer
            && (encoder.count() > 0 || tail.first().is_some_and(|s| whole(s.value).is_some()));
        let ordered = encoder.push(tail, block);
        debug_assert!(ordered, "appends are checked against the newest sample");
        if was_integer && encoder.kind() == BlockKind::Xor {
            probes::BLOCK_REENCODES.inc();
        }
        *tail_len = 0;
    }

    /// Seals the non-empty head: hands `keep` the chunk it makes — the
    /// block, after encoding what the tail holds, borrowed where it lies; or
    /// the samples decoded back out of it as a raw payload, in the rare case
    /// the block outgrew them — and empties the head, keeping its buffer.
    pub(crate) fn seal<R>(&mut self, keep: impl FnOnce(Chunk<'_>) -> R) -> R {
        self.flush();
        let count = self.encoder.count();
        let start_ms = self.first_timestamp().unwrap_or(0);
        let end_ms = self.last_timestamp().unwrap_or(0);
        let kept = if self.block.len() <= count as usize * SAMPLE_BYTES {
            let payload = Payload::Block(self.encoder.kind(), &self.block);
            keep(Chunk { start_ms, end_ms, count, payload })
        } else {
            let samples = decode(&self.block, self.encoder.kind(), start_ms, count as usize);
            let mut raw = vec![0; samples.len() * SAMPLE_BYTES];
            put_raw(&samples, &mut raw);
            keep(Chunk { start_ms, end_ms, count, payload: Payload::Raw(&raw) })
        };
        self.clear();
        kept
    }

    /// Drops every sample, keeping the block's buffer.
    fn clear(&mut self) {
        self.tail_len = 0;
        self.encoder = BlockEncoder::new();
        self.block.clear();
    }

    /// The head as one chunk of a snapshot, so no reader of a snapshot knows
    /// an open head from a sealed chunk: a block of one chunk, in one
    /// allocation of exactly its size, holding a copy of the head's block
    /// completed with the tail — or, before the first burst, the tail as it
    /// is (a young series costs a reader no decoding).  `None` for an empty
    /// head.
    pub(crate) fn snapshot(&self) -> Option<Block> {
        let start_ms = self.first_timestamp()?;
        let end_ms = self.last_timestamp().unwrap_or(start_ms);
        let count = self.len() as u32;
        if self.encoder.count() == 0 {
            let mut raw = [0; TAIL_SAMPLES * SAMPLE_BYTES];
            put_raw(self.tail(), &mut raw);
            let payload = Payload::Raw(raw.get(..self.tail().len() * SAMPLE_BYTES)?);
            return Some(Block::pack(std::iter::once(Chunk { start_ms, end_ms, count, payload })));
        }
        SNAPSHOT_SCRATCH.with(|scratch| {
            let mut block = scratch.take();
            let packed = self.encode_into(&mut block).map(|kind| {
                let payload = Payload::Block(kind, &block);
                Block::pack(std::iter::once(Chunk { start_ms, end_ms, count, payload }))
            });
            scratch.set(block);
            packed
        })
    }

    /// The whole head, tail included, as one finished block in `out`
    /// (cleared first) and its kind — what [`crate::chunk_codec::encode`] of
    /// the samples held returns, without decoding anything (unless the tail
    /// holds an integer block's first fraction).  `None`, and an empty `out`,
    /// for an empty head.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Option<BlockKind> {
        out.clear();
        out.extend_from_slice(&self.block);
        let mut encoder = self.encoder;
        let ordered = encoder.push(self.tail(), out);
        debug_assert!(ordered, "appends are checked against the newest sample");
        (!self.is_empty()).then_some(encoder.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `samples` one by one, checking the head against them after
    /// every push, and seals it.  Returns the sealed chunk's kind.
    fn build_and_seal(samples: &[Sample]) -> BlockKind {
        let mut head = Head::default();
        let mut whole_block = Vec::new();
        let mut kind = BlockKind::Integer;
        for (i, &sample) in samples.iter().enumerate() {
            head.push(sample);
            let held = &samples[..=i];
            assert_eq!(head.len(), held.len());
            assert_eq!(head.tail().len(), held.len() % TAIL_SAMPLES, "bursts of a full tail");
            assert_eq!(head.first_timestamp(), Some(samples[0].timestamp_ms));
            assert_eq!(head.last_timestamp(), Some(sample.timestamp_ms));
            // The block in place decodes without its tail; completed with it
            // the head is byte for byte the one-shot encoding, kind included.
            kind = head.encode_into(&mut whole_block).expect("a non-empty head");
            let encoded = crate::chunk_codec::encode(held);
            assert_eq!(encoded, Some((kind, whole_block.clone())));
            let block = crate::chunk_codec::encode(&held[..held.len() - head.tail().len()]);
            assert_eq!(
                head.resident_bytes(),
                head.tail().len() * SAMPLE_BYTES + block.map_or(0, |(_, b)| b.len())
            );
            let snapshot = head.snapshot().expect("a non-empty head");
            assert_eq!(snapshot.len(), 1, "a block of one chunk");
            let copy = snapshot.chunk(0).expect("the head's chunk");
            let mut samples = Vec::new();
            copy.extend_into(0, u64::MAX, &mut samples);
            assert_eq!(samples, held);
            if held.len() < TAIL_SAMPLES {
                assert!(matches!(copy.payload, Payload::Raw(_)), "no block yet");
            } else {
                assert_eq!(copy.payload, Payload::Block(kind, &whole_block));
            }
            assert_eq!(
                (copy.start(), copy.end(), copy.len()),
                (held.first().map(|s| s.timestamp_ms), Some(sample.timestamp_ms), held.len())
            );
        }
        let (first, last) = (samples[0].timestamp_ms, samples[samples.len() - 1].timestamp_ms);
        head.seal(|chunk| {
            assert_eq!(chunk.payload, Payload::Block(kind, &whole_block));
            assert_eq!(
                (chunk.start(), chunk.end(), chunk.len()),
                (Some(first), Some(last), samples.len())
            );
        });
        assert_eq!(head.encode_into(&mut Vec::new()), None, "an empty head has no block");
        assert!(head.snapshot().is_none());
        assert_eq!(head.resident_bytes(), 0);
        kind
    }

    #[test]
    fn an_open_head_is_the_block_it_will_seal() {
        let fractions: Vec<Sample> = (0..29u64)
            .map(|t| Sample { timestamp_ms: t * 5_000 + t % 3, value: (t as f64 * 0.7).sin() })
            .collect();
        assert_eq!(fractions[28].timestamp_ms, 140_001);
        assert_eq!(build_and_seal(&fractions), BlockKind::Xor);
        let counter: Vec<Sample> =
            fractions.iter().map(|s| Sample { value: (s.timestamp_ms / 7) as f64, ..*s }).collect();
        assert_eq!(build_and_seal(&counter), BlockKind::Integer);

        // The first fraction arrives first of all, inside the first burst,
        // as the sample that fills a tail, as the one that opens the next,
        // mid-tail, and last: the head is the XOR block of its samples from
        // the push that took it, and says so once, at the burst that held it
        // — unless the block was empty until then.
        for at in [0, 3, 7, 8, 15, 16, 20, 28] {
            let mut samples = counter.clone();
            samples[at].value += 0.5;
            let before = probes::BLOCK_REENCODES.get();
            assert_eq!(build_and_seal(&samples), BlockKind::Xor, "fraction at {at}");
            // (Other tests of this process convert heads too.)
            assert!(probes::BLOCK_REENCODES.get() - before >= u64::from(at > 0), "at {at}");
        }
    }
}
