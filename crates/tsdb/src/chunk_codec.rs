//! Gorilla-style chunk compression: delta-of-delta timestamps and
//! XOR-encoded `f64` values.
//!
//! Sealed chunks hold their samples in the bit format Facebook's Gorilla
//! paper introduced (and Prometheus adopted): monitoring timestamps arrive at
//! a near-constant cadence, so the *change of the change* between consecutive
//! timestamps is almost always zero and costs one bit; values drift slowly,
//! so the XOR of consecutive IEEE 754 bit patterns has long runs of zeros and
//! only a short "meaningful" window needs storing.  On the monotone counters
//! the bench suite models this lands well under 4 bytes per 16-byte
//! [`Sample`] — roughly an order of magnitude less resident memory at high
//! cardinality.
//!
//! The format, per chunk:
//!
//! * sample 0: raw 64-bit timestamp, raw 64-bit value bits;
//! * timestamps thereafter: `Δ²` buckets `0` / `10`+7 bits / `110`+9 bits /
//!   `1110`+12 bits, with `1111` + a raw 64-bit *delta* as the escape (so
//!   arbitrary `u64` timestamps round-trip without overflow);
//! * values thereafter: `0` for an identical bit pattern, otherwise `1` and
//!   either `0` + the meaningful bits inside the previous leading/trailing
//!   window, or `1` + 6-bit leading-zero count + 6-bit length + the bits.
//!
//! There is one decoder with two front ends.  [`GorillaState`] is a few
//! words of register state — a bit position plus the previous timestamp,
//! delta and value window — that yields one [`Sample`] per call, so a cursor
//! that outlives any borrow of the chunk can still walk it sample by sample.
//! The bulk form (`decode_into`, and the chunk iterator the range cursors
//! and `points_in` drain sealed chunks through) runs the same step over one
//! bit reader kept alive for the whole block.  That reader buffers up to 64
//! bits in an accumulator refilled with a single unaligned big-endian load:
//! the Δ² bucket is `leading_zeros` of the inverted word, and the value
//! control bits and the 6+6-bit window header are peeled from one peek, so a
//! steady counter sample costs a couple of shifts, not a loop over bits.  The
//! number of encoded samples is not part of the byte stream — chunks store it
//! in their footer — and the decoder must be stopped after that many samples.
//! Malformed bytes can produce garbage samples but never panic or read out of
//! bounds (a refill past the end loads zero bytes, so such reads observe
//! zero bits).
//!
//! The encoder is the same idea run backwards: fields gather in a 64-bit
//! accumulator that leaves as one big-endian word each time it fills, and a
//! Δ² bucket marker with its payload, or the value's control bits with the
//! 6+6-bit window header, go in as a single field.  It is *resumable*: what
//! one block's encoding carries from sample to sample — previous timestamp,
//! delta and value bits, the value window, the pending word and the bit
//! count — is [`BlockEncoder`], a few words of plain data beside the buffer
//! the block grows in, with [`BlockEncoder::push`] taking any number of
//! samples and [`BlockEncoder::finish`] completing the last byte.  A block
//! built in bursts is byte-identical to one built at once, which is how the
//! storage engine's open head *is* the block it will seal (eight samples a
//! burst; see `crate::head::Head`).  [`encode_into`] is one `push` and a
//! `finish` into a buffer the caller reuses, and [`encode`] is that plus a
//! fresh `Vec`.
//!
//! [`encode`] rejects (returns `None` for) timestamp sequences that go
//! backwards: the storage engine never produces them (out-of-order appends
//! are rejected at ingest), and refusing them here keeps "decode inverts
//! encode" a total statement.  Equal consecutive timestamps are legal and
//! round-trip.

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

impl BitWriter<'_> {
    /// Writes the low `count` bits of `value`, MSB first.  `1 <= count <= 64`
    /// and `value` has no bit set above them.
    #[inline]
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
    /// A reader whose next bit is at absolute position `pos`.
    fn at(bytes: &'a [u8], pos: u64) -> Self {
        Self { bytes, pos, acc: 0, avail: 0 }
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

/// Encodes time-ordered samples into a Gorilla-compressed byte block.
///
/// Returns `None` for an empty slice and for input whose timestamps decrease
/// anywhere (equal consecutive timestamps are fine).  The sample count is
/// *not* encoded; keep it alongside the bytes (the chunk footer does) and
/// pass it to [`decode`] / stop [`GorillaState`] after that many samples.
pub fn encode(samples: &[Sample]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    encode_into(samples, &mut out).then_some(out)
}

/// [`encode`] into a caller-owned buffer: `out` is cleared, then holds the
/// block — one [`BlockEncoder::push`] and a [`BlockEncoder::finish`].
/// Returns `false` where [`encode`] returns `None`; `out` then holds a
/// partial block and stays reusable.
#[must_use]
pub fn encode_into(samples: &[Sample], out: &mut Vec<u8>) -> bool {
    out.clear();
    let mut encoder = BlockEncoder::new();
    if samples.is_empty() || !encoder.push(samples, out) {
        return false;
    }
    encoder.finish(out);
    true
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
/// sample to sample — previous timestamp, delta and value bits, the value
/// window, the pending word and how many bits the block holds — as a few
/// words of plain data beside the buffer the block grows in.  A block built
/// by any split of its samples into [`BlockEncoder::push`] bursts is
/// byte-identical to [`encode`] of the whole, which is how the storage
/// engine's open head is the block it will seal.
///
/// Between calls the buffer may hold the block either way: whole words only
/// (what `push` leaves) or zero-padded to a byte (what `finish` leaves, and
/// what the decoder reads).  Both calls first cut it back to its whole
/// words, so a finished block can be pushed to again and finishing twice
/// changes nothing.  The buffer must be the one this encoder's earlier calls
/// wrote, untouched in between.
#[derive(Debug, Clone, Copy)]
pub struct BlockEncoder {
    prev_ts: u64,
    prev_delta: u64,
    prev_bits: u64,
    /// The pending word: its low `bits % 64` bits have not reached the
    /// buffer as part of a whole word yet.
    acc: u64,
    /// Bits encoded so far.
    bits: u64,
    count: u32,
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
            prev_ts: 0,
            prev_delta: 0,
            prev_bits: 0,
            acc: 0,
            bits: 0,
            count: 0,
            prev_leading: ENCODER_NO_WINDOW,
            prev_trailing: 0,
        }
    }

    /// Samples encoded so far — the count a decoder of the block needs.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Timestamp of the newest encoded sample, `None` for an empty block.
    pub fn last_timestamp(&self) -> Option<u64> {
        (self.count > 0).then_some(self.prev_ts)
    }

    /// Length of the finished block in bytes.
    pub fn byte_len(&self) -> usize {
        usize::try_from(self.bits.div_ceil(8)).unwrap_or(usize::MAX)
    }

    /// Length of the block's whole 64-bit words in bytes.
    fn whole_bytes(&self) -> usize {
        usize::try_from(self.bits / 64 * 8).unwrap_or(usize::MAX)
    }

    /// Appends `samples` to the block in `out`.  Returns `false` at the first
    /// sample older than its predecessor (the block's newest included); the
    /// samples before it are encoded, it and the rest are not.
    #[must_use]
    pub fn push(&mut self, samples: &[Sample], out: &mut Vec<u8>) -> bool {
        #[cfg(test)]
        PUSHED.with(|pushed| pushed.borrow_mut().push(samples.len()));
        out.truncate(self.whole_bytes());
        // Registers live in locals across the loop and go back once.
        let mut w = BitWriter { out, acc: self.acc, used: (self.bits % 64) as u32 };
        let mut prev_ts = self.prev_ts;
        let mut prev_delta = self.prev_delta;
        let mut prev_bits = self.prev_bits;
        let mut prev_leading = u32::from(self.prev_leading);
        let mut prev_trailing = u32::from(self.prev_trailing);
        let mut rest = samples;
        if self.count == 0 {
            let Some((first, tail)) = samples.split_first() else { return true };
            w.put(first.timestamp_ms, 64);
            w.put(first.value.to_bits(), 64);
            prev_ts = first.timestamp_ms;
            prev_bits = first.value.to_bits();
            rest = tail;
        }
        let mut encoded = samples.len() - rest.len();
        let mut ordered = true;
        for sample in rest {
            if sample.timestamp_ms < prev_ts {
                ordered = false;
                break;
            }
            let delta = sample.timestamp_ms - prev_ts;
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
            prev_ts = sample.timestamp_ms;
            prev_delta = delta;

            let bits = sample.value.to_bits();
            let xor = bits ^ prev_bits;
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
            prev_bits = bits;
            encoded += 1;
        }
        self.acc = w.acc;
        self.bits = w.out.len() as u64 * 8 + u64::from(w.used);
        self.prev_ts = prev_ts;
        self.prev_delta = prev_delta;
        self.prev_bits = prev_bits;
        // A nonzero XOR has fewer than 64 leading and trailing zeros.
        self.prev_leading = prev_leading as u8;
        self.prev_trailing = prev_trailing as u8;
        self.count = self.count.saturating_add(encoded as u32);
        ordered
    }

    /// Completes the block in `out`: the pending bits, zero-padded to a whole
    /// byte.  The encoder is unchanged and can be pushed to again.
    pub fn finish(&self, out: &mut Vec<u8>) {
        out.truncate(self.whole_bytes());
        let used = (self.bits % 64) as u32;
        if used > 0 {
            // The whole word goes out (a fixed-size copy) and the padding
            // past the last used byte comes back off.
            out.extend_from_slice(&(self.acc << (64 - used)).to_be_bytes());
            out.truncate(self.byte_len());
        }
    }
}

/// Streaming decoder state: a bit position plus the previous timestamp/delta/
/// value-window registers.  A few words of plain data — cloning one is how
/// two independent cursors walk the same compressed chunk.
#[derive(Debug, Clone)]
pub struct GorillaState {
    bit_pos: u64,
    emitted: u32,
    prev_ts: u64,
    prev_delta: u64,
    prev_bits: u64,
    prev_leading: u32,
    prev_trailing: u32,
}

impl Default for GorillaState {
    fn default() -> Self {
        Self::new()
    }
}

impl GorillaState {
    /// A decoder positioned at the start of a chunk.
    pub fn new() -> Self {
        Self {
            bit_pos: 0,
            emitted: 0,
            prev_ts: 0,
            prev_delta: 0,
            prev_bits: 0,
            prev_leading: NO_WINDOW,
            prev_trailing: 0,
        }
    }

    /// Number of samples decoded so far.
    pub fn emitted(&self) -> u32 {
        self.emitted
    }

    /// Decodes the next sample from `bytes` (the same block every call).
    ///
    /// The stream does not carry its own length: the caller must stop after
    /// the chunk footer's sample count.  Reading past the encoded data (or
    /// feeding bytes that [`encode`] did not produce) yields garbage samples,
    /// never a panic.
    pub fn next(&mut self, bytes: &[u8]) -> Sample {
        let mut reader = BitReader::at(bytes, self.bit_pos);
        let sample = self.decode_next(&mut reader);
        self.bit_pos = reader.pos;
        sample
    }

    /// One sample off `reader` — the single decoder behind both the
    /// one-at-a-time [`GorillaState::next`] and the bulk [`BlockSamples`].
    #[inline]
    fn decode_next(&mut self, reader: &mut BitReader<'_>) -> Sample {
        if self.emitted == 0 {
            self.prev_ts = reader.read(64);
            self.prev_bits = reader.read(64);
            self.emitted = 1;
            return Sample { timestamp_ms: self.prev_ts, value: f64::from_bits(self.prev_bits) };
        }
        // One peek covers the common sample whole: the Δ² bucket prefix is
        // the run of leading ones (at most four) and its payload at most 12
        // bits, and the value's two control bits and 6+6-bit window header
        // are the 14 bits after that.
        let word = reader.peek(16 + 14);
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

        // Value: XOR against the previous bit pattern.
        let word = if ts_bits == 0 { reader.peek(14) } else { word << ts_bits };
        if word >> 63 == 0 {
            reader.consume(ts_bits + 1);
        } else {
            let (leading, trailing) = if word >> 62 == 0b11 {
                let leading = (word >> 56) as u32 & 0x3f;
                let len = ((word >> 50) as u32 & 0x3f) + 1;
                reader.consume(ts_bits + 14);
                self.prev_leading = leading;
                self.prev_trailing = 64u32.saturating_sub(leading + len);
                (leading, self.prev_trailing)
            } else {
                reader.consume(ts_bits + 2);
                (self.prev_leading.min(63), self.prev_trailing)
            };
            let len = 64u32.saturating_sub(leading + trailing).max(1);
            self.prev_bits ^= reader.read(len) << trailing;
        }
        self.emitted += 1;
        Sample { timestamp_ms: self.prev_ts, value: f64::from_bits(self.prev_bits) }
    }

    /// The delta a `bits`-bit biased Δ² behind a `prefix`-bit bucket marker
    /// encodes, both at the top of `word`.
    fn bucket_delta(&self, word: u64, prefix: u32, bits: u32, bias: i128) -> u64 {
        let dod = ((word << prefix) >> (64 - bits)) as i128 - bias;
        (self.prev_delta as i128).wrapping_add(dod) as u64
    }
}

/// The bulk form of [`GorillaState`]: iterates the first `count` samples of
/// one block with the bit accumulator kept alive from sample to sample.
#[derive(Debug)]
pub(crate) struct BlockSamples<'a> {
    state: GorillaState,
    reader: BitReader<'a>,
    remaining: usize,
}

impl<'a> BlockSamples<'a> {
    pub(crate) fn new(bytes: &'a [u8], count: usize) -> Self {
        Self { state: GorillaState::new(), reader: BitReader::at(bytes, 0), remaining: count }
    }
}

impl Iterator for BlockSamples<'_> {
    type Item = Sample;

    #[inline]
    fn next(&mut self) -> Option<Sample> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(self.state.decode_next(&mut self.reader))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Appends the `count` samples of a block produced by [`encode`] to `out`,
/// reserving once.
pub fn decode_into(bytes: &[u8], count: usize, out: &mut Vec<Sample>) {
    out.extend(BlockSamples::new(bytes, count));
}

/// Decodes `count` samples from a block produced by [`encode`] into a new
/// vector.
pub fn decode(bytes: &[u8], count: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    decode_into(bytes, count, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[Sample]) {
        let bytes = encode(samples).expect("ordered input must encode");
        let back = decode(&bytes, samples.len());
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.timestamp_ms, b.timestamp_ms);
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{} vs {}", a.value, b.value);
        }
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
        roundtrip(&[Sample { timestamp_ms: u64::MAX, value: -0.0 }]);
    }

    #[test]
    fn steady_cadence_and_duplicates_round_trip() {
        let mut samples: Vec<Sample> = (0..240u64)
            .map(|t| Sample { timestamp_ms: t * 15_000, value: (t * 37) as f64 })
            .collect();
        samples.push(Sample { timestamp_ms: samples.last().unwrap().timestamp_ms, value: 1.5 });
        roundtrip(&samples);
    }

    #[test]
    fn negative_delta_of_deltas_round_trip() {
        // Deltas shrink (5s, 1s, 0s) and grow hugely: every Δ² bucket and the
        // raw-delta escape are exercised.
        let ts = [0u64, 5_000, 6_000, 6_000, 6_001, 4_000_000_000_000, u64::MAX];
        let samples: Vec<Sample> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| Sample { timestamp_ms: t, value: i as f64 })
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn non_finite_values_round_trip() {
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN, 0.0, -0.0, 1e-308];
        let samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Sample { timestamp_ms: i as u64 * 1000, value: v })
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn counters_compress_below_four_bytes_per_sample() {
        let samples: Vec<Sample> = (0..120u64)
            .map(|t| Sample { timestamp_ms: t * 5_000, value: (t * 100) as f64 })
            .collect();
        let bytes = encode(&samples).unwrap();
        let per_sample = bytes.len() as f64 / samples.len() as f64;
        assert!(per_sample <= 4.0, "{per_sample} bytes/sample");
        roundtrip(&samples);
    }

    #[test]
    fn malformed_bytes_never_panic() {
        let garbage: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(113)).collect();
        let decoded = decode(&garbage, 100);
        assert_eq!(decoded.len(), 100);
        // Truncated real data decodes without panicking too.
        let samples: Vec<Sample> =
            (0..50u64).map(|t| Sample { timestamp_ms: t * 250, value: (t as f64).sin() }).collect();
        let bytes = encode(&samples).unwrap();
        let _ = decode(&bytes[..bytes.len() / 2], 50);
    }
}
