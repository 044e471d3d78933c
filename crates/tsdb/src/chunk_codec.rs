//! Gorilla-style chunk compression: delta-of-delta timestamps, and values
//! either XOR-encoded as `f64` bit patterns or — when every one of them is a
//! whole number — delta-of-delta encoded as integers.
//!
//! Sealed chunks hold their samples in the bit format Facebook's Gorilla
//! paper introduced (and Prometheus adopted): monitoring timestamps arrive at
//! a near-constant cadence, so the *change of the change* between consecutive
//! timestamps is almost always zero and costs one bit; values drift slowly,
//! so the XOR of consecutive IEEE 754 bit patterns has long runs of zeros and
//! only a short "meaningful" window needs storing.  That holds for values
//! that repeat or wander in their low mantissa bits.  It does not hold for
//! what a monitor mostly collects — page counts, syscall and fault counters,
//! byte totals: whole numbers moving at a steady rate — because `v → v + 1`
//! flips a different run of mantissa bits every step (12 to 18 bits a sample
//! where the rate is *constant*).  So a block whose values are all whole
//! numbers takes the road its timestamps take: each value is stored as the
//! delta-of-delta of its `i64`, which a steady counter or gauge makes zero —
//! two bits a sample, timestamp and value (M3DB's M3TSZ does the same for
//! the same reason).
//!
//! The format, per block:
//!
//! * sample 0: no timestamp — the first timestamp is the block's *start*,
//!   which whoever keeps the bytes keeps beside them (a chunk's footer holds
//!   it anyway) and hands the decoder, as it does the count and the kind; the
//!   value as its raw 64 bits in an [`BlockKind::Xor`] block, and in an
//!   [`BlockKind::Integer`] block as a `Δ²` against zero registers — the value
//!   itself — through the integer ladder below (`0` for a zero);
//! * sample 1's timestamp: its delta from the start, unbiased, as `0`+14
//!   bits, with `1` + the raw 64-bit delta as the escape — every scrape
//!   interval up to 16.383 s in 15 bits, any `u64` delta exact;
//! * timestamps thereafter: `Δ²` buckets `0` / `10`+7 bits / `110`+9 bits /
//!   `1110`+12 bits, with `1111` + a raw 64-bit *delta* as the escape (so
//!   arbitrary `u64` timestamps round-trip without overflow);
//! * values thereafter, in an XOR block: `0` for an identical bit pattern,
//!   otherwise `1` and either `0` + the meaningful bits inside the previous
//!   leading/trailing window, or `1` + 6-bit leading-zero count + 6-bit
//!   length + the bits;
//! * values thereafter, in an integer block: the `Δ²` of the value as an
//!   `i64` (the first delta is taken against zero) through the same kind of
//!   ladder, `0` for "same rate as before", then `10`+5 bits / `110`+9 /
//!   `1110`+14 / `11110`+20 / `111110`+26 / `1111110`+34 / `11111110`+48,
//!   each payload biased like the timestamps' (an `n`-bit rung holds
//!   `-(2ⁿ⁻¹ - 1) ..= 2ⁿ⁻¹`), and `11111111` + the raw 64-bit `Δ²` as the
//!   escape.
//!
//! So a steady chunk of 120 samples at 5 s is 15 bits of first delta, the
//! first value (its 64 raw bits in an XOR block; in an integer block one bit
//! for a zero, 18 for a magnitude below 8 192), that value's first step and
//! two bits a sample after that: 33–35 bytes for a gauge or counter where a
//! raw first sample made it 55–56.  Blocks written before this format opened
//! with a raw 64-bit timestamp and the first value's raw bits, and took
//! sample 1's delta as a `Δ²`; [`decode_legacy`] reads those — only a
//! store's recovery calls it, to seal each such block again in this form.
//!
//! **Which kind a block is, is a function of its samples alone**, never of a
//! setting: [`BlockKind::Integer`] iff every value *qualifies* — survives
//! `f64 → i64 → f64` bit for bit and has `|v| ≤ 2⁵³`, the range in which
//! every integer is an `f64` and the `Δ²` of any two fits an `i64` with room
//! to spare.  `-0.0`, NaN, ±∞ and anything with a fraction do not qualify,
//! and a block holding even one such value is an XOR block, coded — past its
//! opening — as every block was before the integer kind existed.  Like the
//! sample count and the start, the kind is not part of the byte stream:
//! whoever keeps the bytes keeps it beside them and tells the decoder.
//!
//! There is one decoder, `GorillaState`: a few words of register state —
//! the previous timestamp, delta and value registers — stepped over a bit
//! reader, and one way into it, [`decode_into`] ([`decode_legacy`] enters
//! it through the older opening), which every read of a block drains
//! through: a range read, a chunk a range only partly covers, a point
//! read (`at`, which decodes the block it lands in whole and searches the
//! samples), the seal that falls back to raw samples.  It keeps one bit reader
//! alive for the whole block.  That reader buffers up to 64 bits in an
//! accumulator refilled with a single unaligned big-endian load: a ladder
//! rung is `leading_zeros` of the inverted word, and the XOR control bits and
//! the 6+6-bit window header are peeled from the same peek, so a sample costs
//! a couple of shifts, not a loop over bits.  And where the bits say "same
//! again" — two zero bits, the steady sample of either kind, which is what
//! monitoring data mostly says — the decoder does not come back for them one
//! at a time: from inside that branch it counts the zero pairs that follow in
//! the accumulator, drops them in one step and emits that many samples as an
//! arithmetic progression off the registers (a *run*).  The number of encoded
//! samples is not part of the byte stream — chunks store it in their footer —
//! and the decoder must be stopped after that many samples: a run is cut to
//! what the footer still owes.  Malformed bytes (or the wrong kind) can
//! produce garbage samples but never panic or read out of bounds (a refill
//! past the end loads zero bytes, so such reads observe zero bits).
//!
//! The encoder is the same idea run backwards: fields gather in a 64-bit
//! accumulator that leaves as one big-endian word each time it fills, and a
//! ladder marker with its payload, or the XOR control bits with the 6+6-bit
//! window header, go in as a single field.  It is *resumable*: what one
//! block's encoding carries from sample to sample — the start, the previous
//! timestamp, delta and value, the value window or the value delta, and the
//! bit count — is [`BlockEncoder`], a few words of plain data beside the
//! buffer the block grows in.  [`BlockEncoder::push`] takes any number of
//! samples and leaves the buffer holding the finished block, the last byte
//! zero-padded; the next push takes the unfinished word back off the buffer,
//! so the pending bits live there and not in the encoder.  A block
//! starts in the integer kind when its first value qualifies; the first
//! value that does not **re-encodes what the block holds as XOR, in place**
//! — cold, at most once per block, and the only step here that allocates
//! beyond the block's own growth — and the block carries on as an XOR block.
//! So a block built in bursts is byte-identical to one built at once, kind
//! included, which is how the storage engine's open head *is* the block it
//! will seal (eight samples a burst; see `crate::head::Head`).
//! [`encode_into`] is one `push` into a buffer the caller reuses, and
//! [`encode`] is that plus a fresh `Vec`.
//!
//! [`encode`] rejects (returns `None` for) timestamp sequences that go
//! backwards: the storage engine never produces them (out-of-order appends
//! are rejected at ingest), and refusing them here keeps "decode inverts
//! encode" a total statement.  Equal consecutive timestamps are legal and
//! round-trip.

use serde::{Deserialize, Serialize};

use crate::series::Sample;

/// Appends bits to a byte buffer, most-significant bit of each field first —
/// the mirror of [`BitReader`].  Bits gather bottom-aligned in a 64-bit
/// accumulator — its low `used < 64` bits are pending, whatever sits above
/// them is stale and shifted out with the next word — and leave as one
/// big-endian word each time it fills, so a field costs a shift and an or,
/// not a loop over its bits.
#[derive(Debug)]
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    used: u32,
}

impl<'a> BitWriter<'a> {
    /// A writer behind the `bits` bits of the finished block in `out`: the
    /// block's whole words stay where they are and its unfinished one comes
    /// back off the buffer into the accumulator.
    fn resume(out: &'a mut Vec<u8>, bits: u64) -> Self {
        let whole = usize::try_from(bits / 64 * 8).unwrap_or(usize::MAX);
        let used = (bits % 64) as u32;
        let mut word = [0u8; 8];
        for (dst, src) in word.iter_mut().zip(out.get(whole..).unwrap_or(&[])) {
            *dst = *src;
        }
        // Bits past the block's end, if the buffer holds any, shift out.
        let acc = u64::from_be_bytes(word).checked_shr(64 - used).unwrap_or(0);
        out.truncate(whole);
        Self { out, acc, used }
    }

    /// Writes the low `count` bits of `value`, MSB first.  `1 <= count <= 64`
    /// and `value` has no bit set above them.  Always inlined: every field of
    /// every sample goes through it.
    #[inline(always)]
    fn put(&mut self, value: u64, count: u32) {
        debug_assert!((1..=64).contains(&count) && (count == 64 || value >> count == 0));
        let free = 64 - self.used;
        if count < free {
            self.acc = (self.acc << count) | value;
            self.used += count;
            return;
        }
        // The field fills the word: its top `free` bits complete it and the
        // low `carry < 64` bits start the next one.  `free` is 64 only for an
        // empty accumulator, where the shifted-out `acc` is zero anyway.
        let carry = count - free;
        let word = self.acc.checked_shl(free).unwrap_or(0) | (value >> carry);
        self.out.extend_from_slice(&word.to_be_bytes());
        self.acc = value;
        self.used = carry;
    }

    /// Finishes the block: the pending bits, zero-padded to a whole byte.
    /// Returns how many bits the block holds.
    fn finish(self) -> u64 {
        let bits = self.out.len() as u64 * 8 + u64::from(self.used);
        if self.used > 0 {
            // The whole word goes out (a fixed-size copy) and the padding
            // past the last used byte comes back off.
            self.out.extend_from_slice(&(self.acc << (64 - self.used)).to_be_bytes());
            self.out.truncate(usize::try_from(bits.div_ceil(8)).unwrap_or(usize::MAX));
        }
        bits
    }
}

/// MSB-first bit reader over a byte block with a refillable 64-bit
/// accumulator.  `pos` is the truth — the absolute position of the next
/// unread bit — and `acc` caches the bits from there on, top-aligned, with
/// everything below the `avail` valid bits zero.  A refill is one unaligned
/// big-endian load at `pos / 8`, so it always leaves at least 57 bits; bytes
/// past the end of the block load as zeros.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
    acc: u64,
    avail: u32,
}

/// The most bits one [`BitReader::refill`] is guaranteed to make available
/// (64 minus the worst in-byte offset).
const REFILL_BITS: u32 = 57;

impl<'a> BitReader<'a> {
    /// A reader at the first bit of `bytes`.
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0, acc: 0, avail: 0 }
    }

    fn refill(&mut self) {
        let byte = usize::try_from(self.pos / 8).unwrap_or(usize::MAX);
        let rest = self.bytes.get(byte..).unwrap_or(&[]);
        let word = match rest.first_chunk::<8>() {
            Some(word) => u64::from_be_bytes(*word),
            None => {
                let mut padded = [0u8; 8];
                for (dst, src) in padded.iter_mut().zip(rest) {
                    *dst = *src;
                }
                u64::from_be_bytes(padded)
            }
        };
        let offset = (self.pos % 8) as u32;
        self.acc = word << offset;
        self.avail = 64 - offset;
    }

    /// Makes at least `count <= REFILL_BITS` bits available and returns the
    /// accumulator: the next bit is bit 63, the one after it bit 62, ….
    fn peek(&mut self, count: u32) -> u64 {
        if self.avail < count {
            self.refill();
        }
        self.acc
    }

    /// Drops `count` bits a [`BitReader::peek`] made available (`count < 64`).
    fn consume(&mut self, count: u32) {
        self.acc <<= count;
        self.avail -= count;
        self.pos += u64::from(count);
    }

    /// Reads `count` bits MSB-first; `1 <= count <= 64`.
    fn read(&mut self, count: u32) -> u64 {
        if count > REFILL_BITS {
            let high = self.read(count - 32);
            return (high << 32) | self.read(32);
        }
        let value = self.peek(count) >> (64 - count);
        self.consume(count);
        value
    }
}

/// Sentinel for "no value window established yet".
const NO_WINDOW: u32 = u32::MAX;

/// How a block stores its values: the one thing besides the sample count and
/// the start a decoder has to be told.  Decided by the encoder from the
/// values it is given (see the module docs), never configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockKind {
    /// XOR of consecutive `f64` bit patterns: the only road a value that is
    /// not a whole number can take.
    Xor,
    /// Delta-of-delta of the values as `i64`: every value of the block is a
    /// whole number of magnitude at most 2⁵³.
    Integer,
}

/// Payload widths of the integer value ladder's rungs.  Rung `k` is `k + 1`
/// one bits, a zero, and `VALUE_LADDER[k]` bits holding `Δ² + bias`; eight
/// one bits are the escape, a raw 64-bit `Δ²`, behind the last rung.
const VALUE_LADDER: [u32; 7] = [5, 9, 14, 20, 26, 34, 48];

/// Marker bits of the integer ladder's escape.
const VALUE_ESCAPE_ONES: u32 = VALUE_LADDER.len() as u32 + 1;

/// Payload width of a block's first delta, from its start to its second
/// sample: a zero and the delta as it is (a delta is never negative) up to
/// 16.383 s, a 5, 10 or 15 s scrape interval in 15 bits; a one and the raw
/// 64-bit delta otherwise.
const FIRST_DELTA_BITS: u32 = 14;

/// What a `width`-bit rung adds to a `Δ²` so that `-(2^(width-1) - 1) ..=
/// 2^(width-1)` lands on `0 .. 2^width`.
const fn ladder_bias(width: u32) -> i64 {
    (1 << (width - 1)) - 1
}

/// The largest magnitude an integer block's value may have: up to here every
/// integer is an `f64`, and a `Δ²` of three such values stays below 2⁵⁶.
const MAX_WHOLE: u64 = 1 << 53;

/// `value` as the `i64` an integer block stores it as, `None` unless it
/// *qualifies*: a whole number (`-0.0` is not one: it would come back as
/// `0.0`) of magnitude at most 2⁵³.  The cast saturates and maps NaN to
/// zero, so everything else fails the way back.
#[inline]
pub(crate) fn whole(value: f64) -> Option<i64> {
    let int = value as i64;
    ((int as f64).to_bits() == value.to_bits() && int.unsigned_abs() <= MAX_WHOLE).then_some(int)
}

/// Encodes time-ordered samples into a compressed byte block and says which
/// kind it is.
///
/// Returns `None` for an empty slice and for input whose timestamps decrease
/// anywhere (equal consecutive timestamps are fine).  Neither the start (the
/// first sample's timestamp), the sample count nor the kind is encoded; keep
/// them alongside the bytes (the chunk footer does) and pass them to
/// [`decode`].
pub fn encode(samples: &[Sample]) -> Option<(BlockKind, Vec<u8>)> {
    let mut out = Vec::new();
    encode_into(samples, &mut out).map(|kind| (kind, out))
}

/// [`encode`] into a caller-owned buffer: `out` is cleared, then holds the
/// block — one [`BlockEncoder::push`].  Returns `None` where [`encode`]
/// does; `out` then holds a partial block and stays reusable.
#[must_use]
pub fn encode_into(samples: &[Sample], out: &mut Vec<u8>) -> Option<BlockKind> {
    out.clear();
    let mut encoder = BlockEncoder::new();
    if samples.is_empty() || !encoder.push(samples, out) {
        return None;
    }
    Some(encoder.kind())
}

#[cfg(test)]
thread_local! {
    /// Samples handed to each [`BlockEncoder::push`] on this thread: the work
    /// meter behind the storage engine's "no append encodes more than a
    /// tail" tests.
    pub(crate) static PUSHED: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The encoder, resumable: the registers one block's encoding carries from
/// sample to sample — the start, the previous timestamp, delta and value,
/// the value window or the value delta, and how many bits the block holds —
/// as a few words of plain data beside the buffer the block grows in.  A
/// block built by any split of its samples into [`BlockEncoder::push`]
/// bursts is byte-identical to [`encode`] of the whole and of the same kind,
/// which is how the storage engine's open head is the block it will seal.
///
/// Between calls the buffer holds the finished block: whole words, then the
/// bits of the unfinished one zero-padded to a byte — what the decoder reads.
/// The buffer must be the one this encoder's earlier pushes wrote, untouched
/// in between.
#[derive(Debug, Clone, Copy)]
pub struct BlockEncoder {
    /// The block's start: its first sample's timestamp, which the block
    /// itself does not hold.
    first_ts: u64,
    prev_ts: u64,
    prev_delta: u64,
    /// The newest value: its `f64` bits in an XOR block, its `i64` in an
    /// integer one.
    prev_value: u64,
    /// Integer blocks: the newest value less the one before it.
    value_delta: i64,
    /// Bits encoded so far.
    bits: u64,
    count: u32,
    kind: BlockKind,
    /// XOR blocks: the value window.
    prev_leading: u8,
    prev_trailing: u8,
}

/// [`NO_WINDOW`] in the byte [`BlockEncoder`] keeps its window in (a real
/// leading-zero count is at most 63).
const ENCODER_NO_WINDOW: u8 = u8::MAX;

impl Default for BlockEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockEncoder {
    /// An encoder at the start of an empty block.
    pub fn new() -> Self {
        Self {
            first_ts: 0,
            prev_ts: 0,
            prev_delta: 0,
            prev_value: 0,
            value_delta: 0,
            bits: 0,
            count: 0,
            kind: BlockKind::Integer,
            prev_leading: ENCODER_NO_WINDOW,
            prev_trailing: 0,
        }
    }

    /// Samples encoded so far — the count a decoder of the block needs.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The kind of the block as it stands — another thing a decoder of it
    /// needs: integer until a value that does not qualify has been pushed
    /// (an empty block included), XOR from then on.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The block's start — the timestamp of its first sample, the last thing
    /// a decoder of it needs — `None` for an empty block.
    pub fn first_timestamp(&self) -> Option<u64> {
        (self.count > 0).then_some(self.first_ts)
    }

    /// Timestamp of the newest encoded sample, `None` for an empty block.
    pub fn last_timestamp(&self) -> Option<u64> {
        (self.count > 0).then_some(self.prev_ts)
    }

    /// Length of the block in bytes.
    pub fn byte_len(&self) -> usize {
        usize::try_from(self.bits.div_ceil(8)).unwrap_or(usize::MAX)
    }

    /// Appends `samples` to the block in `out` and leaves it finished.
    /// Returns `false` at the first sample older than its predecessor (the
    /// block's newest included); the samples before it are encoded, it and
    /// the rest are not.
    ///
    /// The first value of an integer block that is not a whole number turns
    /// the block into an XOR one: what it holds is decoded and encoded again
    /// (the one step that allocates besides `out` growing).
    #[must_use]
    pub fn push(&mut self, samples: &[Sample], out: &mut Vec<u8>) -> bool {
        #[cfg(test)]
        PUSHED.with(|pushed| pushed.borrow_mut().push(samples.len()));
        let mut rest = samples;
        if self.kind == BlockKind::Integer {
            let (taken, ordered) = self.push_values::<true>(rest, out);
            rest = rest.get(taken..).unwrap_or(&[]);
            if rest.is_empty() || !ordered {
                return ordered;
            }
            self.convert_to_xor(out);
        }
        self.push_values::<false>(rest, out).1
    }

    /// Re-encodes the integer block in `out` as the XOR block of the same
    /// samples.
    #[cold]
    #[inline(never)]
    fn convert_to_xor(&mut self, out: &mut Vec<u8>) {
        let held = decode(out, BlockKind::Integer, self.first_ts, self.count as usize);
        *self = Self { kind: BlockKind::Xor, ..Self::new() };
        let (_, ordered) = self.push_values::<false>(&held, out);
        debug_assert!(ordered, "samples a block held are in order");
    }

    /// [`BlockEncoder::push`] for a block of one kind.  Returns how many
    /// samples it took and whether it stopped at a backwards timestamp; an
    /// integer block also stops, in order, at the first value that does not
    /// qualify — before anything of that sample is written.
    ///
    /// A block's first two samples open it — a value alone, then the first
    /// delta — and everything after them takes the loop of `Δ²`s: two runs
    /// of one loop, so the hot one tests nothing the opening needs.
    #[inline]
    fn push_values<const INTEGER: bool>(
        &mut self,
        samples: &[Sample],
        out: &mut Vec<u8>,
    ) -> (usize, bool) {
        let opening = 2usize.saturating_sub(self.count as usize).min(samples.len());
        let (head, rest) = samples.split_at(opening);
        if opening > 0 {
            let (taken, ordered) = self.run::<INTEGER, true>(head, out);
            if taken < opening || !ordered {
                return (taken, ordered);
            }
        }
        let (taken, ordered) = self.run::<INTEGER, false>(rest, out);
        (opening + taken, ordered)
    }

    /// [`BlockEncoder::push_values`]' loop over `samples`: with `OPENING`,
    /// the block's first two samples at most, else samples behind them.
    #[inline]
    fn run<const INTEGER: bool, const OPENING: bool>(
        &mut self,
        samples: &[Sample],
        out: &mut Vec<u8>,
    ) -> (usize, bool) {
        // Registers live in locals across the loop and go back once.
        let mut w = BitWriter::resume(out, self.bits);
        let mut prev_ts = self.prev_ts;
        let mut prev_delta = self.prev_delta;
        let mut prev_value = self.prev_value;
        let mut value_delta = self.value_delta;
        let mut prev_leading = u32::from(self.prev_leading);
        let mut prev_trailing = u32::from(self.prev_trailing);
        let mut rest = samples;
        if OPENING && self.count == 0 {
            // The first sample: its timestamp is the block's start, kept
            // beside the block, and its value goes in alone.
            let Some((first, tail)) = samples.split_first() else { return (0, true) };
            if INTEGER {
                let Some(int) = whole(first.value) else { return (0, true) };
                put_value_dod(&mut w, int);
                prev_value = int as u64;
            } else {
                prev_value = first.value.to_bits();
                w.put(prev_value, 64);
            }
            self.first_ts = first.timestamp_ms;
            prev_ts = first.timestamp_ms;
            rest = tail;
        }
        let mut encoded = samples.len() - rest.len();
        let mut ordered = true;
        for sample in rest {
            if sample.timestamp_ms < prev_ts {
                ordered = false;
                break;
            }
            let int = if INTEGER {
                let Some(int) = whole(sample.value) else { break };
                int
            } else {
                0
            };
            let delta = sample.timestamp_ms - prev_ts;
            if OPENING {
                // The second sample: no delta before it to take a `Δ²` of.
                put_first_delta(&mut w, delta);
            } else {
                if INTEGER && delta == prev_delta && int - prev_value as i64 == value_delta {
                    w.put(0, 2);
                    prev_ts = sample.timestamp_ms;
                    prev_value = int as u64;
                    encoded += 1;
                    continue;
                }
                // i128 so the delta-of-delta of arbitrary u64 deltas cannot overflow.
                let dod = delta as i128 - prev_delta as i128;
                // Bucket marker and biased Δ² leave as one field.
                match dod {
                    0 => w.put(0, 1),
                    -63..=64 => w.put((0b10 << 7) | (dod + 63) as u64, 2 + 7),
                    -255..=256 => w.put((0b110 << 9) | (dod + 255) as u64, 3 + 9),
                    -2047..=2048 => w.put((0b1110 << 12) | (dod + 2047) as u64, 4 + 12),
                    _ => {
                        // Escape: the raw delta (not the Δ²), so huge jumps stay exact.
                        w.put(0b1111, 4);
                        w.put(delta, 64);
                    }
                }
            }
            prev_ts = sample.timestamp_ms;
            prev_delta = delta;

            if INTEGER {
                // Both values are within ±2⁵³: neither difference overflows.
                let delta = int - prev_value as i64;
                let dod = delta - value_delta;
                if dod == 0 {
                    w.put(0, 1);
                } else {
                    put_value_dod(&mut w, dod);
                }
                value_delta = delta;
                prev_value = int as u64;
                encoded += 1;
                continue;
            }
            let bits = sample.value.to_bits();
            let xor = bits ^ prev_value;
            if xor == 0 {
                w.put(0, 1);
            } else {
                let leading = xor.leading_zeros();
                let trailing = xor.trailing_zeros();
                if prev_leading != u32::from(ENCODER_NO_WINDOW)
                    && leading >= prev_leading
                    && trailing >= prev_trailing
                {
                    // The meaningful bits fit the previous window: reuse it.
                    w.put(0b10, 2);
                    w.put(xor >> prev_trailing, 64 - prev_leading - prev_trailing);
                } else {
                    // Both control bits and the 6+6-bit window header, one field.
                    let len = 64 - leading - trailing;
                    w.put((0b11 << 12) | (u64::from(leading) << 6) | u64::from(len - 1), 2 + 6 + 6);
                    w.put(xor >> trailing, len);
                    prev_leading = leading;
                    prev_trailing = trailing;
                }
            }
            prev_value = bits;
            encoded += 1;
        }
        self.bits = w.finish();
        self.prev_ts = prev_ts;
        self.prev_delta = prev_delta;
        self.prev_value = prev_value;
        self.value_delta = value_delta;
        // A nonzero XOR has fewer than 64 leading and trailing zeros.
        self.prev_leading = prev_leading as u8;
        self.prev_trailing = prev_trailing as u8;
        self.count = self.count.saturating_add(encoded as u32);
        (encoded, ordered)
    }
}

/// Writes an integer block's value `Δ²`: `0` for a zero, otherwise the
/// narrowest rung of [`VALUE_LADDER`] that holds it, marker and biased
/// payload as one field, or the escape.  Always inlined: it is the loop
/// body's, and a block's first value takes it too.
#[inline(always)]
fn put_value_dod(w: &mut BitWriter<'_>, dod: i64) {
    if dod == 0 {
        w.put(0, 1);
        return;
    }
    // An `n`-bit rung holds `-(2ⁿ⁻¹ - 1) ..= 2ⁿ⁻¹`: exactly the `Δ²` whose
    // magnitude — one less on the positive side — has fewer than `n` bits.
    let magnitude = (dod - i64::from(dod > 0)).unsigned_abs();
    let bits = u64::BITS - magnitude.leading_zeros();
    match VALUE_LADDER.iter().zip(1..).find(|(&width, _)| bits < width) {
        Some((&width, ones)) => {
            // `ones` one bits and a zero, then the payload.
            let biased = (dod + ladder_bias(width)) as u64;
            w.put((((1 << (ones + 1)) - 2) << width) | biased, ones + 1 + width);
        }
        None => {
            w.put((1 << VALUE_ESCAPE_ONES) - 1, VALUE_ESCAPE_ONES);
            w.put(dod as u64, 64);
        }
    }
}

/// Writes a block's first timestamp delta: a zero and
/// [`FIRST_DELTA_BITS`] bits as one field, or the escape.
#[inline]
fn put_first_delta(w: &mut BitWriter<'_>, delta: u64) {
    if delta >> FIRST_DELTA_BITS == 0 {
        w.put(delta, FIRST_DELTA_BITS + 1);
    } else {
        w.put(1, 1);
        w.put(delta, 64);
    }
}

/// Decoder state: the previous timestamp/delta/value registers, a few words
/// of plain data stepped over a [`BitReader`] the caller keeps.
#[derive(Debug)]
struct GorillaState {
    kind: BlockKind,
    prev_ts: u64,
    prev_delta: u64,
    /// The previous value: its `f64` bits in an XOR block, its `i64` in an
    /// integer one.
    prev_value: u64,
    /// Integer blocks: the previous value less the one before it.
    value_delta: i64,
    /// XOR blocks: the value window.
    prev_leading: u32,
    prev_trailing: u32,
}

impl GorillaState {
    /// Registers at rest: no sample behind them.
    fn at_rest(kind: BlockKind, prev_ts: u64) -> Self {
        Self {
            kind,
            prev_ts,
            prev_delta: 0,
            prev_value: 0,
            value_delta: 0,
            prev_leading: NO_WINDOW,
            prev_trailing: 0,
        }
    }

    /// A decoder of a block of `kind` that starts at `start_ms`, standing at
    /// the block's first sample: its value read off `reader` — raw bits, or
    /// an integer `Δ²` against zero registers.
    fn first(kind: BlockKind, start_ms: u64, reader: &mut BitReader<'_>) -> Self {
        let mut state = Self::at_rest(kind, start_ms);
        match kind {
            BlockKind::Xor => state.prev_value = reader.read(64),
            BlockKind::Integer => {
                let word = reader.peek(14);
                state.decode_integer(reader, word, 0);
                // The value came as its own step from zero: the first step
                // of the block is taken against zero again.
                state.value_delta = 0;
            }
        }
        state
    }

    /// A decoder of a block in the form written before the start was left
    /// out, standing at its first sample: a raw 64-bit timestamp and the
    /// value's raw bits, off `reader`.
    fn legacy_first(kind: BlockKind, reader: &mut BitReader<'_>) -> Self {
        let mut state = Self::at_rest(kind, reader.read(64));
        let bits = reader.read(64);
        state.prev_value = match kind {
            BlockKind::Xor => bits,
            BlockKind::Integer => f64::from_bits(bits) as i64 as u64,
        };
        state
    }

    /// The sample the registers stand at.
    #[inline]
    fn current(&self) -> Sample {
        let value = match self.kind {
            BlockKind::Xor => f64::from_bits(self.prev_value),
            BlockKind::Integer => self.prev_value as i64 as f64,
        };
        Sample { timestamp_ms: self.prev_ts, value }
    }

    /// Decodes the block's second sample off `reader` onto `out`: its delta
    /// from the start ([`FIRST_DELTA_BITS`] or the escape's 64), then its
    /// value as any later sample's.
    fn second(&mut self, reader: &mut BitReader<'_>, out: &mut Vec<Sample>) {
        let escaped = reader.read(1) == 1;
        let delta = reader.read(if escaped { 64 } else { FIRST_DELTA_BITS });
        self.prev_ts = self.prev_ts.wrapping_add(delta);
        self.prev_delta = delta;
        let word = reader.peek(14);
        match self.kind {
            BlockKind::Xor => self.decode_xor(reader, word, 0),
            BlockKind::Integer => self.decode_integer(reader, word, 0),
        }
        out.push(self.current());
    }

    /// Decodes the `owed` samples after the current one off `reader` onto
    /// `out`.
    #[inline]
    fn drain(&mut self, reader: &mut BitReader<'_>, mut owed: usize, out: &mut Vec<Sample>) {
        while owed > 0 {
            owed -= self.step(reader, owed - 1, out);
        }
    }

    /// Decodes the sample after the current one off `reader` onto `out`.
    /// Where that sample is a steady one, the steady samples that follow it in
    /// the reader's accumulator, at most `more` of them, leave with it.
    /// Returns how many samples were pushed.  Always inlined: it is the
    /// loop body of every decode, and the older form's decoder calls it too.
    #[inline(always)]
    fn step(&mut self, reader: &mut BitReader<'_>, more: usize, out: &mut Vec<Sample>) -> usize {
        // One peek covers the common sample whole: the Δ² bucket prefix is
        // the run of leading ones (at most four) and its payload at most 12
        // bits, and the 14 bits after that are an XOR value's two control
        // bits and 6+6-bit window header, or an integer value's marker and
        // payload up to the ladder's second rung.
        let word = reader.peek(16 + 14);
        if word >> 62 == 0 {
            // Two zero bits, the steady sample of either kind: the cadence
            // held, and the value (XOR) or its rate (integer, whose delta
            // register an XOR block leaves at zero) did too.  Every further
            // pair of zero bits is one more of them: count the pairs at the
            // top of the accumulator — which is zero below its `avail` valid
            // bits, and those zeros are not data — and take this sample and
            // what the caller still wants in one `consume` (fewer than 64
            // bits).  Wrapping steps: garbage in must not panic.
            let pairs = (word.leading_zeros().min(reader.avail) / 2).min(31);
            let run = (pairs as usize).clamp(1, more + 1);
            reader.consume(2 * run as u32);
            for _ in 0..run {
                self.prev_ts = self.prev_ts.wrapping_add(self.prev_delta);
                self.prev_value = self.prev_value.wrapping_add(self.value_delta as u64);
                out.push(self.current());
            }
            return run;
        }
        let (delta, ts_bits) = match (!word).leading_zeros() {
            0 => (self.prev_delta, 1),
            1 => (self.bucket_delta(word, 2, 7, 63), 2 + 7),
            2 => (self.bucket_delta(word, 3, 9, 255), 3 + 9),
            3 => (self.bucket_delta(word, 4, 12, 2047), 4 + 12),
            _ => {
                // Escape: the raw 64-bit delta follows the marker.
                reader.consume(4);
                (reader.read(64), 0)
            }
        };
        self.prev_ts = self.prev_ts.wrapping_add(delta);
        self.prev_delta = delta;

        let word = if ts_bits == 0 { reader.peek(14) } else { word << ts_bits };
        match self.kind {
            BlockKind::Xor => self.decode_xor(reader, word, ts_bits),
            BlockKind::Integer => self.decode_integer(reader, word, ts_bits),
        }
        out.push(self.current());
        1
    }

    /// The value step of an XOR block: `word` holds the next 14 bits at its
    /// top, behind `pending` timestamp bits still to be consumed.
    #[inline]
    fn decode_xor(&mut self, reader: &mut BitReader<'_>, word: u64, pending: u32) {
        if word >> 63 == 0 {
            reader.consume(pending + 1);
            return;
        }
        let (leading, trailing) = if word >> 62 == 0b11 {
            let leading = (word >> 56) as u32 & 0x3f;
            let len = ((word >> 50) as u32 & 0x3f) + 1;
            reader.consume(pending + 14);
            self.prev_leading = leading;
            self.prev_trailing = 64u32.saturating_sub(leading + len);
            (leading, self.prev_trailing)
        } else {
            reader.consume(pending + 2);
            (self.prev_leading.min(63), self.prev_trailing)
        };
        let len = 64u32.saturating_sub(leading + trailing).max(1);
        self.prev_value ^= reader.read(len) << trailing;
    }

    /// The value step of an integer block, `word` and `pending` as for
    /// [`GorillaState::decode_xor`]: the marker is the run of leading ones.
    /// Wrapping arithmetic throughout — well-formed blocks never need it,
    /// malformed ones must not panic.
    #[inline]
    fn decode_integer(&mut self, reader: &mut BitReader<'_>, word: u64, pending: u32) {
        let ones = (!word).leading_zeros();
        if ones > 0 {
            let dod = match VALUE_LADDER.get(ones as usize - 1) {
                Some(&width) => {
                    reader.consume(pending + ones + 1);
                    (reader.read(width) as i64).wrapping_sub(ladder_bias(width))
                }
                None => {
                    reader.consume(pending + VALUE_ESCAPE_ONES);
                    reader.read(64) as i64
                }
            };
            self.value_delta = self.value_delta.wrapping_add(dod);
        } else {
            reader.consume(pending + 1);
        }
        self.prev_value = self.prev_value.wrapping_add(self.value_delta as u64);
    }

    /// The delta a `bits`-bit biased Δ² behind a `prefix`-bit bucket marker
    /// encodes, both at the top of `word`.
    fn bucket_delta(&self, word: u64, prefix: u32, bits: u32, bias: i128) -> u64 {
        let dod = ((word << prefix) >> (64 - bits)) as i128 - bias;
        (self.prev_delta as i128).wrapping_add(dod) as u64
    }
}

/// Appends the `count` samples of a block of `kind` that starts at
/// `start_ms`, produced by [`encode`], to `out`, reserving once — the one
/// loop every read of a block drains through.  A run of steady samples
/// leaves the bit reader in one step and arrives as an arithmetic
/// progression off the registers.
pub fn decode_into(
    bytes: &[u8],
    kind: BlockKind,
    start_ms: u64,
    count: usize,
    out: &mut Vec<Sample>,
) {
    if count == 0 {
        return;
    }
    let mut reader = BitReader::new(bytes);
    let mut state = GorillaState::first(kind, start_ms, &mut reader);
    out.reserve(count);
    out.push(state.current());
    if let Some(owed) = count.checked_sub(2) {
        state.second(&mut reader, out);
        state.drain(&mut reader, owed, out);
    }
}

/// Decodes `count` samples from a block of `kind` that starts at `start_ms`,
/// produced by [`encode`], into a new vector.
pub fn decode(bytes: &[u8], kind: BlockKind, start_ms: u64, count: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    decode_into(bytes, kind, start_ms, count, &mut out);
    out
}

/// Decodes `count` samples from a block of `kind` in the form written before
/// blocks left their start out — a raw 64-bit timestamp and raw value bits
/// first, sample 1's delta as a `Δ²` — into a new vector.  A store's
/// recovery reads the blocks older snapshots hold with it, and seals them
/// again with [`encode`].
pub fn decode_legacy(bytes: &[u8], kind: BlockKind, count: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    let Some(owed) = count.checked_sub(1) else { return out };
    let mut reader = BitReader::new(bytes);
    let mut state = GorillaState::legacy_first(kind, &mut reader);
    out.reserve(count);
    out.push(state.current());
    state.drain(&mut reader, owed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips `samples` through the decoder and returns the block's
    /// kind.
    fn roundtrip(samples: &[Sample]) -> BlockKind {
        let (kind, bytes) = encode(samples).expect("ordered input must encode");
        let back = decode(&bytes, kind, samples[0].timestamp_ms, samples.len());
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.timestamp_ms, b.timestamp_ms);
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{} vs {}", a.value, b.value);
        }
        assert_eq!(kind == BlockKind::Integer, samples.iter().all(|s| whole(s.value).is_some()));
        kind
    }

    /// The XOR block of `samples`, whole numbers or not: what an encoder that
    /// never knew the integer kind builds.
    fn encode_as_xor(samples: &[Sample]) -> Vec<u8> {
        let mut xor = BlockEncoder { kind: BlockKind::Xor, ..BlockEncoder::new() };
        let mut block = Vec::new();
        assert!(xor.push(samples, &mut block));
        block
    }

    fn at_5s(values: impl IntoIterator<Item = f64>) -> Vec<Sample> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, value)| Sample { timestamp_ms: i as u64 * 5_000, value })
            .collect()
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(encode(&[]), None);
    }

    #[test]
    fn backwards_timestamps_are_rejected() {
        let samples = [
            Sample { timestamp_ms: 10_000, value: 1.0 },
            Sample { timestamp_ms: 9_999, value: 2.0 },
        ];
        assert_eq!(encode(&samples), None);
    }

    #[test]
    fn single_sample_round_trips() {
        assert_eq!(roundtrip(&[Sample { timestamp_ms: u64::MAX, value: -0.0 }]), BlockKind::Xor);
        assert_eq!(roundtrip(&[Sample { timestamp_ms: 0, value: -7.0 }]), BlockKind::Integer);
    }

    #[test]
    fn steady_cadence_and_duplicates_round_trip() {
        let mut samples: Vec<Sample> = (0..240u64)
            .map(|t| Sample { timestamp_ms: t * 15_000, value: (t * 37) as f64 })
            .collect();
        assert_eq!(roundtrip(&samples), BlockKind::Integer);
        samples.push(Sample { timestamp_ms: samples.last().unwrap().timestamp_ms, value: 1.5 });
        assert_eq!(roundtrip(&samples), BlockKind::Xor);
    }

    #[test]
    fn negative_delta_of_deltas_round_trip() {
        // Deltas shrink (5s, 1s, 0s) and grow hugely: every Δ² bucket and the
        // raw-delta escape are exercised.
        let ts = [0u64, 5_000, 6_000, 6_000, 6_001, 4_000_000_000_000, u64::MAX];
        for scale in [1.0, 0.5] {
            let samples: Vec<Sample> = ts
                .iter()
                .enumerate()
                .map(|(i, &t)| Sample { timestamp_ms: t, value: i as f64 * scale })
                .collect();
            roundtrip(&samples);
        }
    }

    #[test]
    fn non_finite_values_round_trip() {
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN, 0.0, -0.0, 1e-308];
        assert_eq!(roundtrip(&at_5s(values)), BlockKind::Xor);
    }

    #[test]
    fn only_whole_numbers_within_two_to_the_53_qualify() {
        let limit = (1u64 << 53) as f64;
        for value in [0.0, 1.0, -1.0, 4_503_599_627_370_497.0, limit, -limit] {
            assert_eq!(whole(value), Some(value as i64), "{value}");
        }
        let beyond = [limit + 2.0, -limit - 2.0, i64::MIN as f64, i64::MAX as f64, f64::MAX];
        let fractions = [0.5, -0.5, 1e-308, 4_503_599_627_370_495.5];
        let specials = [-0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for value in beyond.into_iter().chain(fractions).chain(specials) {
            assert_eq!(whole(value), None, "{value}");
        }
    }

    #[test]
    fn a_value_that_does_not_qualify_turns_the_block_into_the_xor_block() {
        // Whatever position the first fraction arrives at, and however the
        // samples are split into pushes, the block is the one an encoder that
        // never knew the integer kind builds.
        let whole_numbers = at_5s((0..40).map(|t| (t * 3) as f64));
        for at in 0..whole_numbers.len() {
            let mut samples = whole_numbers.clone();
            samples[at].value += 0.25;
            let want = encode_as_xor(&samples);
            assert_eq!(encode(&samples), Some((BlockKind::Xor, want.clone())), "fraction at {at}");
            for split in 0..samples.len() {
                let mut encoder = BlockEncoder::new();
                let mut block = Vec::new();
                assert!(encoder.push(&samples[..split], &mut block));
                let before = if split > at { BlockKind::Xor } else { BlockKind::Integer };
                assert_eq!(encoder.kind(), before);
                assert!(encoder.push(&samples[split..], &mut block));
                assert_eq!((encoder.kind(), &block), (BlockKind::Xor, &want), "{at} / {split}");
            }
            roundtrip(&samples);
        }
    }

    /// The value shapes the bench table sizes (`codec_bytes` in
    /// `benches/tsdb.rs`): 120 samples at 5 s.
    fn shape(name: &str) -> Vec<Sample> {
        // A fixed xorshift stream, so the noisy shapes are the same everywhere.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        let mut value = 1_000i64;
        at_5s((0..120).map(|t| {
            match name {
                "constant" => value = 1_000,
                "gauge_plus_1" => value = 500 + t,
                "counter_plus_77" => value = 77 * t,
                "counter_noise_8" => value += 1_000 + below(9),
                "counter_noise_300" => value += 1_000 + below(301),
                "counter_noise_20k" => value += 1_000 + below(20_001),
                "counter_noise_5m" => value += 1_000 + below(5_000_001),
                "walk_8" => value += below(17) - 8,
                "walk_300" => value += below(601) - 300,
                "walk_20k" => value += below(40_001) - 20_000,
                _ => unreachable!("unknown shape {name}"),
            }
            value as f64
        }))
    }

    #[test]
    fn counters_compress_below_four_bytes_per_sample() {
        // Steady shapes: at most half a byte a sample.  Every shape: never
        // more than 5 % above what XOR makes of the same samples.
        let steady = ["constant", "gauge_plus_1", "counter_plus_77"];
        let noisy = [
            "counter_noise_8",
            "counter_noise_300",
            "counter_noise_20k",
            "counter_noise_5m",
            "walk_8",
            "walk_300",
            "walk_20k",
        ];
        for name in steady.into_iter().chain(noisy) {
            let samples = shape(name);
            assert_eq!(roundtrip(&samples), BlockKind::Integer, "{name}");
            let (_, block) = encode(&samples).expect("ordered");
            let as_xor = encode_as_xor(&samples);
            let per_sample = block.len() as f64 / samples.len() as f64;
            if steady.contains(&name) {
                assert!(per_sample <= 0.5, "{name}: {per_sample} bytes/sample");
            }
            assert!(
                block.len() as f64 <= as_xor.len() as f64 * 1.05,
                "{name}: {} B as integers, {} B as XOR",
                block.len(),
                as_xor.len()
            );
        }
    }

    #[test]
    fn malformed_bytes_never_panic() {
        let garbage: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(113)).collect();
        for kind in [BlockKind::Xor, BlockKind::Integer] {
            for start in [0, 1_700_000_000_000, u64::MAX] {
                assert_eq!(decode(&garbage, kind, start, 100).len(), 100);
                assert_eq!(decode(&[0xff; 40], kind, start, 100).len(), 100);
            }
            assert_eq!(decode_legacy(&garbage, kind, 100).len(), 100);
            assert_eq!(decode_legacy(&[0xff; 40], kind, 100).len(), 100);
        }
        // Truncated real data, real data read as the other kind or from a
        // wrong start — the far end of the clock, where every delta wraps —
        // and real data read in the older form decode without panicking too.
        for scale in [1.0, 0.37] {
            let samples = at_5s((0..50).map(|t| (t * t) as f64 * scale));
            let (_, bytes) = encode(&samples).unwrap();
            for kind in [BlockKind::Xor, BlockKind::Integer] {
                for start in [0, 5_000, u64::MAX - 3, u64::MAX] {
                    let _ = decode(&bytes[..bytes.len() / 2], kind, start, 50);
                    let _ = decode(&bytes, kind, start, 60);
                }
                let _ = decode_legacy(&bytes, kind, 60);
            }
        }
        // A wrong start moves the samples and nothing else.
        let samples = at_5s((0..50).map(|t| (t * 3) as f64));
        let (kind, bytes) = encode(&samples).unwrap();
        let moved = decode(&bytes, kind, u64::MAX - 4_999, samples.len());
        for (got, want) in moved.iter().zip(&samples) {
            assert_eq!(got.timestamp_ms, want.timestamp_ms.wrapping_add(u64::MAX - 4_999));
            assert_eq!(got.value.to_bits(), want.value.to_bits());
        }
    }

    #[test]
    fn every_bench_shape_weighs_its_pinned_bytes() {
        // The exact bytes of each shape's block, and (in the comment) what it
        // took while a block opened with its first timestamp and value raw
        // and took its first delta as a Δ²: 19 to 23 bytes more.
        let pinned = [
            ("constant", 34),           // 55
            ("gauge_plus_1", 35),       // 55
            ("counter_plus_77", 33),    // 56
            ("counter_noise_8", 117),   // 137
            ("counter_noise_300", 191), // 212
            ("counter_noise_20k", 331), // 350
            ("counter_noise_5m", 480),  // 499
            ("walk_8", 117),            // 138
            ("walk_300", 226),          // 246
            ("walk_20k", 354),          // 373
        ];
        for (name, bytes) in pinned {
            let (kind, block) = encode(&shape(name)).expect("ordered");
            assert_eq!((kind, block.len()), (BlockKind::Integer, bytes), "{name}");
        }
    }
}
