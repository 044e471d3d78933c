//! Property tests for the Gorilla chunk codec: `decode(encode(samples)) ==
//! samples` bit-for-bit over adversarial inputs (NaN, ±inf, zero and huge
//! timestamp deltas, duplicates, whole numbers up to ±2⁵³ and one step past),
//! and rejection of inputs the storage engine can never produce (timestamps
//! running backwards).  The bit-by-bit decoder and encoder the accumulator
//! reader and writer replaced live on here as [`reference`], the oracles
//! production must match — the decoder sample for sample on well-formed
//! blocks of both kinds, past their end, read as the other kind, from a
//! wrong start, and on truncated, mangled, all-zero and random bytes, at
//! every count it can be asked for (it takes runs of steady samples in one
//! step); the encoder byte for byte and kind for kind on every input it
//! accepts — whole, and through the resumable [`BlockEncoder`] in any split
//! into bursts, wherever in the stream the first value that is not a whole
//! number arrives.  The inputs come from `support/codec_inputs.rs`.
//!
//! [`reference::encode_xor`] is the encoder as it stood before blocks had
//! kinds but for the block's opening, which today leaves the first timestamp
//! to the chunk's footer and takes the second sample's delta through its own
//! ladder: a block holding any value that does not qualify for the integer
//! kind must be, byte for byte, what it builds.  [`reference::encode_legacy`]
//! is the form blocks had before that, raw first sample and all — what
//! `decode_legacy`, the reader recovery takes older snapshots' blocks through,
//! must read back.

use proptest::proptest;
use teemon_tsdb::chunk_codec::{
    decode, decode_into, decode_legacy, encode, encode_into, BlockEncoder, BlockKind,
};
use teemon_tsdb::Sample;

const KINDS: [BlockKind; 2] = [BlockKind::Xor, BlockKind::Integer];

#[path = "support/codec_inputs.rs"]
mod codec_inputs;

use codec_inputs::{build_samples, qualifies, switch_at, MAX_WHOLE, VALUE_LADDER};

/// The previous production decoder and encoder — one `bytes.get` per bit or
/// byte fragment and one `write_bit` per bit, no accumulator — and the
/// integer kind and the block's opening written the same way.  Written
/// against the byte format only.
mod reference {
    use super::{qualifies, BlockKind, VALUE_LADDER};
    use teemon_tsdb::Sample;

    /// Payload width of the first delta, as the format documents it:
    /// `0`+14 bits, `1`+64 raw.
    const FIRST_DELTA_BITS: u32 = 14;

    /// Appends bits to a byte buffer, most-significant bit of each value first.
    #[derive(Debug, Default)]
    struct BitWriter {
        bytes: Vec<u8>,
        /// Bits already used in the last byte (0 = the last byte is full/absent).
        used: u32,
    }

    impl BitWriter {
        fn write_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.bytes.push(0);
                self.used = 8;
            }
            if let (true, Some(last)) = (bit, self.bytes.last_mut()) {
                *last |= 1 << (self.used - 1);
            }
            self.used -= 1;
        }

        /// Writes the low `count` bits of `value`, MSB first.  `count <= 64`.
        fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn into_bytes(self) -> Vec<u8> {
            self.bytes
        }

        /// A timestamp's `Δ²` bucket, or the raw-delta escape.
        fn write_timestamp(&mut self, delta: u64, prev_delta: u64) {
            // i128 so the delta-of-delta of arbitrary u64 deltas cannot overflow.
            let dod = delta as i128 - prev_delta as i128;
            match dod {
                0 => self.write_bit(false),
                -63..=64 => {
                    self.write_bits(0b10, 2);
                    self.write_bits((dod + 63) as u64, 7);
                }
                -255..=256 => {
                    self.write_bits(0b110, 3);
                    self.write_bits((dod + 255) as u64, 9);
                }
                -2047..=2048 => {
                    self.write_bits(0b1110, 4);
                    self.write_bits((dod + 2047) as u64, 12);
                }
                _ => {
                    // Escape: the raw delta (not the Δ²), so huge jumps stay exact.
                    self.write_bits(0b1111, 4);
                    self.write_bits(delta, 64);
                }
            }
        }

        /// The block's first delta: in 14 bits if it fits, or the escape.
        fn write_first_delta(&mut self, delta: u64) {
            if delta < 1u64 << FIRST_DELTA_BITS {
                self.write_bit(false);
                self.write_bits(delta, FIRST_DELTA_BITS);
            } else {
                self.write_bit(true);
                self.write_bits(delta, 64);
            }
        }

        /// An integer block's value `Δ²`: `0`, the narrowest rung that holds
        /// it — one more one bit per rung, a zero, the biased payload — or
        /// the escape.
        fn write_value_dod(&mut self, dod: i128) {
            if dod == 0 {
                self.write_bit(false);
                return;
            }
            let rung = VALUE_LADDER.iter().position(|&width| {
                let half = 1i128 << (width - 1);
                (-(half - 1)..=half).contains(&dod)
            });
            match rung {
                Some(rung) => {
                    let width = VALUE_LADDER[rung];
                    for _ in 0..=rung {
                        self.write_bit(true);
                    }
                    self.write_bit(false);
                    self.write_bits((dod + (1i128 << (width - 1)) - 1) as u64, width);
                }
                None => {
                    self.write_bits(0xff, 8);
                    self.write_bits(dod as i64 as u64, 64);
                }
            }
        }
    }

    /// Sentinel for "no value window established yet".
    const NO_WINDOW: u32 = u32::MAX;

    /// The block of `samples` and its kind: the integer block iff every
    /// value qualifies, the XOR block as it always was otherwise.
    pub fn encode(samples: &[Sample]) -> Option<(BlockKind, Vec<u8>)> {
        if samples.iter().all(|s| qualifies(s.value)) {
            encode_integer(samples).map(|block| (BlockKind::Integer, block))
        } else {
            encode_xor(samples).map(|block| (BlockKind::Xor, block))
        }
    }

    /// The XOR block of `samples`: the first value's raw bits, the first
    /// delta through its ladder, then every later sample as the encoder
    /// wrote it before blocks had kinds.
    pub fn encode_xor(samples: &[Sample]) -> Option<Vec<u8>> {
        encode_xor_in(samples, false)
    }

    /// [`encode_xor`], or with `legacy` the older form: a raw first
    /// timestamp ahead of the first value, and the first delta as a `Δ²`.
    fn encode_xor_in(samples: &[Sample], legacy: bool) -> Option<Vec<u8>> {
        let first = samples.first()?;
        let mut w = BitWriter::default();
        if legacy {
            w.write_bits(first.timestamp_ms, 64);
        }
        w.write_bits(first.value.to_bits(), 64);
        let mut prev_ts = first.timestamp_ms;
        let mut prev_delta: u64 = 0;
        let mut prev_bits = first.value.to_bits();
        let mut prev_leading: u32 = NO_WINDOW;
        let mut prev_trailing: u32 = 0;
        for (i, sample) in samples.iter().enumerate().skip(1) {
            if sample.timestamp_ms < prev_ts {
                return None;
            }
            let delta = sample.timestamp_ms - prev_ts;
            if i == 1 && !legacy {
                w.write_first_delta(delta);
            } else {
                w.write_timestamp(delta, prev_delta);
            }
            prev_ts = sample.timestamp_ms;
            prev_delta = delta;

            let bits = sample.value.to_bits();
            let xor = bits ^ prev_bits;
            if xor == 0 {
                w.write_bit(false);
            } else {
                w.write_bit(true);
                let leading = xor.leading_zeros();
                let trailing = xor.trailing_zeros();
                if prev_leading != NO_WINDOW && leading >= prev_leading && trailing >= prev_trailing
                {
                    // The meaningful bits fit the previous window: reuse it.
                    let len = 64 - prev_leading - prev_trailing;
                    w.write_bit(false);
                    w.write_bits(xor >> prev_trailing, len);
                } else {
                    let len = 64 - leading - trailing;
                    w.write_bit(true);
                    w.write_bits(u64::from(leading), 6);
                    w.write_bits(u64::from(len - 1), 6);
                    w.write_bits(xor >> trailing, len);
                    prev_leading = leading;
                    prev_trailing = trailing;
                }
            }
            prev_bits = bits;
        }
        Some(w.into_bytes())
    }

    /// The integer block of `samples`, every value of which qualifies: the
    /// first value as its `Δ²` against zero — itself — then timestamps as
    /// in [`encode_xor`], each value after the first as the `Δ²` of the
    /// values as integers, the first delta taken against zero.
    pub fn encode_integer(samples: &[Sample]) -> Option<Vec<u8>> {
        encode_integer_in(samples, false)
    }

    /// [`encode_integer`], or with `legacy` the older form: a raw first
    /// timestamp and the first value's raw bits, and the first delta as a
    /// `Δ²`.
    fn encode_integer_in(samples: &[Sample], legacy: bool) -> Option<Vec<u8>> {
        let first = samples.first()?;
        let mut w = BitWriter::default();
        if legacy {
            w.write_bits(first.timestamp_ms, 64);
            w.write_bits(first.value.to_bits(), 64);
        } else {
            w.write_value_dod(first.value as i128);
        }
        let mut prev_ts = first.timestamp_ms;
        let mut prev_delta: u64 = 0;
        let mut prev_value = first.value as i128;
        let mut prev_value_delta: i128 = 0;
        for (i, sample) in samples.iter().enumerate().skip(1) {
            if sample.timestamp_ms < prev_ts {
                return None;
            }
            let delta = sample.timestamp_ms - prev_ts;
            if i == 1 && !legacy {
                w.write_first_delta(delta);
            } else {
                w.write_timestamp(delta, prev_delta);
            }
            prev_ts = sample.timestamp_ms;
            prev_delta = delta;

            let value = sample.value as i128;
            let value_delta = value - prev_value;
            w.write_value_dod(value_delta - prev_value_delta);
            prev_value = value;
            prev_value_delta = value_delta;
        }
        Some(w.into_bytes())
    }

    /// The block of `samples` in the form blocks had before they left their
    /// start out, and its kind: what `decode_legacy` must read.
    pub fn encode_legacy(samples: &[Sample]) -> Option<(BlockKind, Vec<u8>)> {
        if samples.iter().all(|s| qualifies(s.value)) {
            encode_integer_in(samples, true).map(|block| (BlockKind::Integer, block))
        } else {
            encode_xor_in(samples, true).map(|block| (BlockKind::Xor, block))
        }
    }

    fn read_bit(bytes: &[u8], pos: &mut u64) -> bool {
        let byte = (*pos / 8) as usize;
        let bit = 7 - (*pos % 8) as u32;
        *pos += 1;
        bytes.get(byte).map(|b| (b >> bit) & 1 == 1).unwrap_or(false)
    }

    fn read_bits(bytes: &[u8], pos: &mut u64, count: u32) -> u64 {
        let mut out = 0u64;
        let mut remaining = count;
        while remaining > 0 {
            let bit_off = (*pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(remaining);
            let byte = bytes.get((*pos / 8) as usize).copied().unwrap_or(0);
            let chunk = (u64::from(byte) >> (avail - take)) & ((1u64 << take) - 1);
            out = (out << take) | chunk;
            *pos += u64::from(take);
            remaining -= take;
        }
        out
    }

    pub struct Decoder {
        kind: BlockKind,
        /// The block's start; `None` for a block of the older form, which
        /// holds it.
        start: Option<u64>,
        bit_pos: u64,
        emitted: u32,
        prev_ts: u64,
        prev_delta: u64,
        prev_bits: u64,
        prev_leading: u32,
        prev_trailing: u32,
        /// Integer blocks: the previous value and the step that led to it.
        prev_int: i64,
        prev_int_delta: i64,
    }

    impl Decoder {
        pub fn new(kind: BlockKind, start: Option<u64>) -> Self {
            Self {
                kind,
                start,
                bit_pos: 0,
                emitted: 0,
                prev_ts: 0,
                prev_delta: 0,
                prev_bits: 0,
                prev_leading: u32::MAX,
                prev_trailing: 0,
                prev_int: 0,
                prev_int_delta: 0,
            }
        }

        pub fn next_sample(&mut self, bytes: &[u8]) -> Sample {
            if self.emitted == 0 {
                return self.first_sample(bytes);
            }
            let delta = if self.emitted == 1 && self.start.is_some() {
                let escaped = read_bit(bytes, &mut self.bit_pos);
                let width = if escaped { 64 } else { FIRST_DELTA_BITS };
                read_bits(bytes, &mut self.bit_pos, width)
            } else if !read_bit(bytes, &mut self.bit_pos) {
                self.prev_delta
            } else if !read_bit(bytes, &mut self.bit_pos) {
                self.bucket_delta(bytes, 7, 63)
            } else if !read_bit(bytes, &mut self.bit_pos) {
                self.bucket_delta(bytes, 9, 255)
            } else if !read_bit(bytes, &mut self.bit_pos) {
                self.bucket_delta(bytes, 12, 2047)
            } else {
                read_bits(bytes, &mut self.bit_pos, 64)
            };
            self.prev_ts = self.prev_ts.wrapping_add(delta);
            self.prev_delta = delta;
            if self.kind == BlockKind::Integer {
                return self.next_integer(bytes);
            }
            if read_bit(bytes, &mut self.bit_pos) {
                let (leading, trailing) = if read_bit(bytes, &mut self.bit_pos) {
                    let leading = read_bits(bytes, &mut self.bit_pos, 6) as u32;
                    let len = read_bits(bytes, &mut self.bit_pos, 6) as u32 + 1;
                    self.prev_leading = leading;
                    self.prev_trailing = 64u32.saturating_sub(leading + len);
                    (leading, self.prev_trailing)
                } else {
                    (self.prev_leading.min(63), self.prev_trailing)
                };
                let len = 64u32.saturating_sub(leading + trailing).max(1);
                let xor = read_bits(bytes, &mut self.bit_pos, len) << trailing;
                self.prev_bits ^= xor;
            }
            self.emitted += 1;
            Sample { timestamp_ms: self.prev_ts, value: f64::from_bits(self.prev_bits) }
        }

        /// The first sample: the start and the first value — raw bits, or
        /// an integer `Δ²` from zero — or, in the older form, a raw
        /// timestamp and raw value bits.
        fn first_sample(&mut self, bytes: &[u8]) -> Sample {
            match self.start {
                Some(start) => self.prev_ts = start,
                None => self.prev_ts = read_bits(bytes, &mut self.bit_pos, 64),
            }
            match (self.kind, self.start) {
                (BlockKind::Integer, Some(_)) => {
                    let sample = self.next_integer(bytes);
                    self.prev_int_delta = 0;
                    return sample;
                }
                _ => self.prev_bits = read_bits(bytes, &mut self.bit_pos, 64),
            }
            self.emitted = 1;
            let value = f64::from_bits(self.prev_bits);
            // An integer block keeps its values as integers from here on
            // (garbage first values saturate; they never panic).
            self.prev_int = value as i64;
            match self.kind {
                BlockKind::Xor => Sample { timestamp_ms: self.prev_ts, value },
                BlockKind::Integer => {
                    Sample { timestamp_ms: self.prev_ts, value: self.prev_int as f64 }
                }
            }
        }

        /// The value of an integer block's sample: count the marker's one
        /// bits (eight are the escape), read that rung's payload.
        fn next_integer(&mut self, bytes: &[u8]) -> Sample {
            let mut ones = 0;
            while ones < 8 && read_bit(bytes, &mut self.bit_pos) {
                ones += 1;
            }
            let dod = match ones {
                0 => 0,
                8 => read_bits(bytes, &mut self.bit_pos, 64) as i64,
                rung => {
                    let width = VALUE_LADDER[rung - 1];
                    let bias = (1i64 << (width - 1)) - 1;
                    (read_bits(bytes, &mut self.bit_pos, width) as i64).wrapping_sub(bias)
                }
            };
            self.prev_int_delta = self.prev_int_delta.wrapping_add(dod);
            self.prev_int = self.prev_int.wrapping_add(self.prev_int_delta);
            self.emitted += 1;
            Sample { timestamp_ms: self.prev_ts, value: self.prev_int as f64 }
        }

        fn bucket_delta(&mut self, bytes: &[u8], bits: u32, bias: i128) -> u64 {
            let dod = read_bits(bytes, &mut self.bit_pos, bits) as i128 - bias;
            (self.prev_delta as i128).wrapping_add(dod) as u64
        }
    }

    /// `count` samples of a block of `kind` that starts at `start`, or of
    /// the older form for `None`.
    pub fn decode(bytes: &[u8], kind: BlockKind, start: Option<u64>, count: usize) -> Vec<Sample> {
        let mut decoder = Decoder::new(kind, start);
        (0..count).map(|_| decoder.next_sample(bytes)).collect()
    }
}

/// Asserts the production decoders read `count` samples off `bytes` as a
/// block of `kind` exactly as the reference does: `decode` and `decode_into`
/// from `start`, `decode_legacy` as a block of the older form.  The decoder
/// takes a run of steady samples in one step, cut to the count it was given,
/// so every count up to `count` is a case of its own: a run that ends on the
/// count, one short of it, or that the count cuts anywhere.
fn assert_matches_reference(bytes: &[u8], kind: BlockKind, start: u64, count: usize) {
    let want = reference::decode(bytes, kind, Some(start), count);
    assert!(samples_identical(&decode(bytes, kind, start, count), &want), "decode diverged");
    let mut appended = vec![Sample { timestamp_ms: 7, value: 7.0 }];
    for upto in 0..=count {
        appended.truncate(1);
        decode_into(bytes, kind, start, upto, &mut appended);
        assert!(samples_identical(&appended[1..], &want[..upto]), "decode_into diverged at {upto}");
    }
    let want = reference::decode(bytes, kind, None, count);
    assert!(samples_identical(&decode_legacy(bytes, kind, count), &want), "decode_legacy diverged");
}

/// Bit-exact equality (plain `==` treats NaN as unequal).
fn samples_identical(a: &[Sample], b: &[Sample]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.timestamp_ms == y.timestamp_ms && x.value.to_bits() == y.value.to_bits()
        })
}

/// The kind the samples call for.
fn kind_of(samples: &[Sample]) -> BlockKind {
    if samples.iter().all(|s| qualifies(s.value)) {
        BlockKind::Integer
    } else {
        BlockKind::Xor
    }
}

proptest! {
    /// Round trip: every time-ordered input decodes back bit-for-bit, and its
    /// kind is the one its values call for.
    #[test]
    fn encode_decode_round_trips(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 1..200),
        switch in (0u8..3, 0usize..200),
    ) {
        let samples = build_samples(&specs, switch_at(switch, specs.len()));
        let (kind, bytes) = encode(&samples).expect("time-ordered input must encode");
        assert_eq!(kind, kind_of(&samples));
        let start = samples[0].timestamp_ms;
        assert!(samples_identical(&decode(&bytes, kind, start, samples.len()), &samples));
        // The older form of the same samples reads back too.
        let (kind, bytes) = reference::encode_legacy(&samples).expect("time-ordered input");
        assert!(samples_identical(&decode_legacy(&bytes, kind, samples.len()), &samples));
    }

    /// The accumulator decoder equals the bit-by-bit reference on encoded
    /// series of both kinds (every Δ² bucket, both first-delta widths, the
    /// raw-delta escapes, value-window reuse and re-establishment, the IEEE
    /// specials, every rung of the integer ladder and its escape), five
    /// samples past their end, read as the kind they are not, from a wrong
    /// start, in the older form, on every kind of truncation and with a byte
    /// mangled anywhere.
    #[test]
    fn decoder_matches_the_bit_by_bit_reference(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 1..200),
        switch in (0u8..3, 0usize..200),
        cut in 0usize..4096,
        mangle in (0usize..4096, 1u16..256),
        wrong_start in 0u64..u64::MAX,
    ) {
        let samples = build_samples(&specs, switch_at(switch, specs.len()));
        let (_, mut bytes) = encode(&samples).expect("time-ordered input must encode");
        let start = samples[0].timestamp_ms;
        for kind in KINDS {
            assert_matches_reference(&bytes, kind, start, samples.len() + 5);
            assert_matches_reference(&bytes, kind, wrong_start, samples.len() + 5);
            let cut = cut % (bytes.len() + 1);
            assert_matches_reference(&bytes[..cut], kind, start, samples.len() + 5);
        }
        let at = mangle.0 % bytes.len();
        bytes[at] ^= mangle.1 as u8;
        for kind in KINDS {
            assert_matches_reference(&bytes, kind, start, samples.len() + 5);
        }
    }

    /// …and on bytes no encoder produced.
    #[test]
    fn decoder_matches_the_reference_on_random_bytes(
        garbage in proptest::collection::vec(0u16..256, 0..300),
        count in 0usize..400,
        start in 0u64..u64::MAX,
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        for kind in KINDS {
            assert_matches_reference(&garbage, kind, start, count);
        }
    }

    /// Two decoders, one answer, where the bits say "same again": long
    /// steady stretches of either kind between single escapes, every count
    /// from nothing to five samples past the end, and the block read as the
    /// kind it is not.
    #[test]
    fn decoders_agree_on_steady_stretches_at_every_count(
        specs in proptest::collection::vec((0u8..10, 0u8..10, 0u16..u16::MAX), 1..12),
        switch in (0u8..3, 0usize..12),
    ) {
        let samples = build_samples(&specs, switch_at(switch, specs.len()));
        let (kind, bytes) = encode(&samples).expect("time-ordered input must encode");
        assert_eq!(kind, kind_of(&samples));
        let start = samples[0].timestamp_ms;
        assert!(samples_identical(&decode(&bytes, kind, start, samples.len()), &samples));
        for kind in KINDS {
            assert_matches_reference(&bytes, kind, start, samples.len() + 5);
        }
        let (kind, legacy) = reference::encode_legacy(&samples).expect("time-ordered input");
        assert!(samples_identical(&decode_legacy(&legacy, kind, samples.len()), &samples));
        assert_matches_reference(&legacy, kind, start, samples.len() + 5);
    }

    /// Any input with a backwards timestamp anywhere is rejected whole.
    #[test]
    fn unordered_input_is_rejected(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 2..50),
        switch in (0u8..3, 0usize..50),
        flip in 1usize..49,
    ) {
        let mut samples = build_samples(&specs, switch_at(switch, specs.len()));
        let flip = flip % samples.len();
        if flip == 0 {
            return; // the mutation below needs a predecessor
        }
        // Force a strict decrease at `flip` unless its predecessor is 0.
        let prev = samples[flip - 1].timestamp_ms;
        if prev == 0 {
            return;
        }
        // The decrease at `flip` alone must reject the whole input, no matter
        // what follows it.
        samples[flip].timestamp_ms = prev - 1;
        assert_eq!(encode(&samples), None, "decrease at index {flip} must reject");
    }
}

proptest! {
    /// The word-at-a-time encoder writes what the bit-by-bit one wrote, byte
    /// for byte and kind for kind: every Δ² bucket and the raw-delta escape,
    /// window reuse and new windows up to the full 64 bits, NaN payloads, ±∞,
    /// −0.0, every rung of the integer ladder — and every prefix of each
    /// input, which covers 1- and 2-sample blocks, streams ending at every
    /// bit offset of a byte and of a word, and (the values turning from whole
    /// numbers to anything at a drawn position) the prefix that first holds a
    /// value that does not qualify, where the block turns from the integer
    /// reference's into the XOR encoder's as it always was.  The scratch is
    /// reused dirty from prefix to prefix.
    #[test]
    fn encoder_matches_the_bit_by_bit_reference(
        specs in proptest::collection::vec((0u8..8, 0u8..14, 0u16..u16::MAX), 1..200),
        switch in (0u8..3, 0usize..200),
    ) {
        let samples = build_samples(&specs, switch_at(switch, specs.len()));
        let mut scratch = vec![0xa5; 7];
        for end in 1..=samples.len() {
            let want = reference::encode(&samples[..end]).expect("time-ordered input must encode");
            let kind = encode_into(&samples[..end], &mut scratch);
            assert_eq!(kind, Some(want.0), "the first {end} samples");
            assert_eq!(scratch, want.1, "encode_into diverged on the first {end} samples");
        }
        assert_eq!(encode(&samples), reference::encode(&samples));
    }

    /// A block built by any split of its samples into bursts — empty bursts
    /// in between — is byte for byte the block `encode` builds and of its
    /// kind, and after every burst the buffer is the block of the samples
    /// pushed so far: the integer block until a burst brings a value that
    /// does not qualify, the XOR block of everything from that burst on.
    /// The encoder keeps the start the block leaves out.
    #[test]
    fn any_split_into_bursts_builds_the_same_block(
        specs in proptest::collection::vec((0u8..8, 0u8..14, 0u16..u16::MAX), 1..200),
        switch in (0u8..3, 0usize..200),
        cuts in proptest::collection::vec(0usize..12, 1..60),
    ) {
        let samples = build_samples(&specs, switch_at(switch, specs.len()));
        let mut encoder = BlockEncoder::new();
        let mut block = vec![0xa5; 3];
        let empty = (encoder.count(), encoder.first_timestamp(), encoder.last_timestamp());
        assert_eq!((empty, encoder.byte_len()), ((0, None, None), 0));
        let mut pushed = 0;
        for &burst in cuts.iter().cycle() {
            let end = (pushed + burst).min(samples.len());
            assert!(encoder.push(&samples[pushed..end], &mut block));
            pushed = end;
            assert_eq!(encoder.count() as usize, pushed);
            assert_eq!(encoder.kind(), kind_of(&samples[..pushed]));
            let held = &samples[..pushed];
            assert_eq!(encoder.first_timestamp(), held.first().map(|s| s.timestamp_ms));
            assert_eq!(encoder.last_timestamp(), held.last().map(|s| s.timestamp_ms));
            let want = reference::encode(held).map(|(_, b)| b).unwrap_or_default();
            assert_eq!(block, want, "the first {pushed} samples");
            assert_eq!(encoder.byte_len(), want.len());
            if pushed == samples.len() {
                break;
            }
        }
        assert_eq!(Some((encoder.kind(), block)), encode(&samples));
    }

    /// A sample older than its predecessor stops a push there: what came
    /// before it is in the block, it and the rest are not — a rejected value
    /// that does not qualify does not turn the block — and the encoder
    /// carries on from the last sample it took.
    #[test]
    fn a_push_stops_at_the_first_backwards_timestamp(
        specs in proptest::collection::vec((1u8..8, 0u8..14, 1u16..u16::MAX), 2..50),
        switch in (0u8..3, 0usize..50),
        flip in 1usize..49,
        split in 0usize..49,
    ) {
        let good = build_samples(&specs, switch_at(switch, specs.len()));
        let flip = 1 + flip % (good.len() - 1);
        let mut bad = good.clone();
        bad[flip].timestamp_ms = bad[flip - 1].timestamp_ms - 1;
        let split = split % (flip + 1);
        let mut encoder = BlockEncoder::new();
        let mut block = Vec::new();
        assert!(encoder.push(&bad[..split], &mut block));
        assert!(!encoder.push(&bad[split..], &mut block), "decrease at index {flip}");
        assert_eq!(encoder.count() as usize, flip);
        assert_eq!(encoder.kind(), kind_of(&good[..flip]));
        assert!(encoder.push(&good[flip..], &mut block));
        assert_eq!(Some((encoder.kind(), block)), reference::encode(&good));
    }

    /// A decrease anywhere makes `encode_into` report failure and leaves the
    /// scratch fit for the next block.
    #[test]
    fn a_rejected_block_leaves_the_scratch_reusable(
        specs in proptest::collection::vec((1u8..8, 0u8..14, 1u16..u16::MAX), 2..50),
        switch in (0u8..3, 0usize..50),
        flip in 1usize..49,
    ) {
        let good = build_samples(&specs, switch_at(switch, specs.len()));
        let flip = 1 + flip % (good.len() - 1);
        let mut bad = good.clone();
        // Deltas are drawn non-zero (`1u8..8` with a non-zero `raw`), so the
        // predecessor's timestamp is at least 1.
        bad[flip].timestamp_ms = bad[flip - 1].timestamp_ms - 1;
        let mut scratch = Vec::new();
        assert_eq!(encode_into(&bad, &mut scratch), None, "decrease at index {flip} must reject");
        let kind = encode_into(&good, &mut scratch).expect("ordered");
        assert_eq!(Some((kind, scratch)), reference::encode(&good));
    }
}

#[test]
fn zero_bytes_are_one_long_run_that_the_count_cuts() {
    // 960 zero bits: a first value of zero, a second sample at the start (a
    // zero first delta) and hundreds of steady ones behind it, then the
    // zeros a refill past the end reads.  Nothing in the bytes ends the run
    // — the footer's count does, wherever it falls.
    for kind in KINDS {
        assert_matches_reference(&[0; 120], kind, 1_000, 500);
        assert_matches_reference(&[], kind, 0, 40);
    }
    // A steady block cut at every byte: the zeros past the cut extend the
    // run the cut interrupted.
    let steady: Vec<Sample> = (0..200u64)
        .map(|t| Sample { timestamp_ms: 1_000 + t * 5_000, value: (77 * t) as f64 })
        .collect();
    let (kind, bytes) = encode(&steady).expect("ordered");
    for cut in 0..=bytes.len() {
        assert_matches_reference(&bytes[..cut], kind, 1_000, steady.len() + 3);
    }
}

#[test]
fn blocks_ending_on_byte_and_word_boundaries_match_the_reference() {
    // A first sample is its value alone — 64 bits as a float (one whole
    // word), 12 as the whole number 42 — the second adds 16 (a 15-bit first
    // delta, a repeated value's bit) and each repeat after that two: so the
    // XOR block ends on a word at 26 + 32k samples and the integer block at
    // 20 + 32k.  A minute's cadence puts the first delta's 65-bit escape in
    // front of the repeats and walks the same boundaries at another phase.  (When a block
    // opened with its first sample raw, 128 bits, both kinds took 16 bytes
    // for one sample and 24 for 33.)
    let mut scratch = Vec::new();
    for (value, one, words) in [(42.0, 2, [(20, 8), (52, 16)]), (42.5, 8, [(26, 16), (58, 24)])] {
        let flat: Vec<Sample> = (0..98).map(|_| Sample { timestamp_ms: 7, value }).collect();
        let cadence: Vec<Sample> =
            (0..98u64).map(|t| Sample { timestamp_ms: t * 60_000, value }).collect();
        for input in [&flat, &cadence] {
            for end in 1..=input.len() {
                let kind = encode_into(&input[..end], &mut scratch).expect("ordered");
                assert_eq!(
                    Some((kind, scratch.clone())),
                    reference::encode(&input[..end]),
                    "{end}"
                );
            }
        }
        assert!(encode_into(&flat[..1], &mut scratch).is_some());
        assert_eq!(scratch.len(), one, "{value}: one sample");
        for (end, bytes) in words {
            assert!(encode_into(&flat[..end], &mut scratch).is_some());
            assert_eq!(scratch.len(), bytes, "{value}: {end} samples fill whole words");
            assert!(encode_into(&flat[..end + 1], &mut scratch).is_some());
            assert_eq!(scratch.len(), bytes + 1, "{value}: one more starts the next");
        }
    }
    assert_eq!(encode_into(&[], &mut scratch), None, "an empty block is rejected, as by `encode`");
}

fn at_5s(values: impl IntoIterator<Item = f64>) -> Vec<Sample> {
    values
        .into_iter()
        .enumerate()
        .map(|(i, value)| Sample { timestamp_ms: 1_000 + i as u64 * 5_000, value })
        .collect()
}

#[test]
fn the_first_fraction_turns_the_block_wherever_it_arrives() {
    // A chunk of 120 built the way an open head builds it, in bursts of
    // eight: a counter whose sample `at` — every position, the first and the
    // last of a burst, the chunk's first and last among them — is half a unit
    // off.  From the burst that brings it the block is the XOR block of
    // everything so far, byte for byte what the encoder built before blocks
    // had kinds; and the chunk after it, whole numbers again, is an integer
    // block again.
    let counter = at_5s((0..120).map(|t| (500 + 77 * t) as f64));
    let integer = reference::encode_integer(&counter).expect("ordered");
    assert_eq!(encode(&counter), Some((BlockKind::Integer, integer)));
    for at in 0..counter.len() {
        let mut samples = counter.clone();
        samples[at].value += 0.5;
        let want = reference::encode_xor(&samples).expect("ordered");
        assert_eq!(encode(&samples), Some((BlockKind::Xor, want.clone())), "fraction at {at}");
        let mut encoder = BlockEncoder::new();
        let mut block = Vec::new();
        for (burst, chunk) in samples.chunks(8).enumerate() {
            assert!(encoder.push(chunk, &mut block));
            let held = &samples[..(burst * 8 + chunk.len())];
            let turned = held.len() > at;
            assert_eq!(encoder.kind() == BlockKind::Xor, turned, "{at}: burst {burst}");
            let reference =
                if turned { reference::encode_xor(held) } else { reference::encode_integer(held) };
            assert_eq!(Some(&block), reference.as_ref(), "{at}: burst {burst}");
        }
        assert_eq!(block, want);
        let mut next = BlockEncoder::new();
        assert!(next.push(&counter, &mut block));
        assert_eq!(next.kind(), BlockKind::Integer, "the next block starts over");
    }
}

#[test]
fn edge_values_take_the_kind_they_must() {
    let limit = MAX_WHOLE as f64;
    let nan = |sign: u64, payload: u64| f64::from_bits((sign << 63) | (0x7ff8 << 48) | payload);
    let cases = [
        (limit, BlockKind::Integer),
        (-limit, BlockKind::Integer),
        (limit - 1.0, BlockKind::Integer),
        (0.0, BlockKind::Integer),
        // One step past 2⁵³ is still a whole number and still an `f64`, but
        // no longer one an integer block takes.
        (limit + 2.0, BlockKind::Xor),
        (-limit - 2.0, BlockKind::Xor),
        (i64::MIN as f64, BlockKind::Xor),
        (i64::MAX as f64, BlockKind::Xor),
        (f64::MAX, BlockKind::Xor),
        // Must come back as −0.0, which no integer is.
        (-0.0, BlockKind::Xor),
        (nan(0, 0), BlockKind::Xor),
        (nan(1, 0), BlockKind::Xor),
        (nan(0, 0xbeef), BlockKind::Xor),
        (nan(1, 0xbeef), BlockKind::Xor),
        (f64::INFINITY, BlockKind::Xor),
        (f64::NEG_INFINITY, BlockKind::Xor),
        (0.5, BlockKind::Xor),
        (f64::MIN_POSITIVE, BlockKind::Xor),
        (limit / 2.0 - 0.5, BlockKind::Xor),
    ];
    for (value, kind) in cases {
        // First, in the middle and last: the block is of the kind the value
        // calls for, the reference's bytes, and gives the value back bit for
        // bit.
        for at in 0..3 {
            let mut values = [3.0, 4.0, 5.0];
            values[at] = value;
            let samples = at_5s(values);
            let (got, block) = encode(&samples).expect("ordered");
            assert_eq!(got, kind, "{value} at {at}");
            assert_eq!(Some((got, block.clone())), reference::encode(&samples), "{value} at {at}");
            let back = decode(&block, got, samples[0].timestamp_ms, 3);
            assert!(samples_identical(&back, &samples), "{value} at {at}");
        }
    }
}

/// Bits an integer block spends on a value whose `Δ²` is `dod`, from the
/// format's table: one for zero; rung `k` is `k + 2` marker bits and its
/// payload, holding `-(2^(w-1) - 1) ..= 2^(w-1)`; the escape is 8 + 64.
fn value_bits(dod: i64) -> u64 {
    if dod == 0 {
        return 1;
    }
    VALUE_LADDER
        .iter()
        .position(|&w| (1 - (1i64 << (w - 1))..=1i64 << (w - 1)).contains(&dod))
        .map_or(8 + 64, |k| k as u64 + 2 + u64::from(VALUE_LADDER[k]))
}

#[test]
fn every_rung_of_the_value_ladder_holds_what_it_says_and_no_more() {
    // A Δ² on each end of every rung and one past it (the next rung's, the
    // escape's past the last), each taken from rest — the value holds still
    // for two samples in between, which mirrors it — then the extremes: from
    // −2⁵³ at rest to 2⁵³ and straight back, Δ² = 2⁵⁴ and −2⁵⁵.
    let mut values = vec![0i64, 0];
    for (k, &width) in VALUE_LADDER.iter().enumerate() {
        let (low, high) = (1 - (1i64 << (width - 1)), 1i64 << (width - 1));
        assert_eq!(
            (value_bits(high), value_bits(low)),
            (value_bits(high - 1), value_bits(low + 1))
        );
        assert!(value_bits(high + 1) > value_bits(high) && value_bits(low - 1) > value_bits(low));
        assert_eq!(value_bits(high), k as u64 + 2 + u64::from(width));
        for dod in [high, low, high + 1, low - 1] {
            let last = *values.last().expect("starts non-empty");
            values.extend([last + dod, last + dod, last + dod]);
        }
    }
    values.extend([-MAX_WHOLE, -MAX_WHOLE, -MAX_WHOLE, MAX_WHOLE, -MAX_WHOLE, -MAX_WHOLE]);
    let samples = at_5s(values.iter().map(|&v| v as f64));
    let (kind, block) = encode(&samples).expect("ordered");
    assert_eq!(kind, BlockKind::Integer);
    assert_eq!(Some((kind, block.clone())), reference::encode(&samples));
    assert!(samples_identical(&decode(&block, kind, 1_000, samples.len()), &samples));

    let deltas: Vec<i64> =
        std::iter::once(0).chain(values.windows(2).map(|w| w[1] - w[0])).collect();
    let dods: Vec<i64> = deltas.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(dods.contains(&(1 << 54)) && dods.contains(&-(1 << 55)), "the extremes are in it");
    // The first value on the ladder, a 15-bit first delta, one bit per
    // timestamp after.
    let timestamp_bits = 15 + (samples.len() as u64 - 2);
    let bits = value_bits(values[0])
        + timestamp_bits
        + dods.iter().map(|&dod| value_bits(dod)).sum::<u64>();
    assert_eq!(block.len() as u64, bits.div_ceil(8));

    // A first value is its own `Δ²` from zero, on the same ladder: each
    // rung's ends, the escape's, and the extremes.
    let firsts = VALUE_LADDER.iter().flat_map(|&w| [1i64 << (w - 1), (1i64 << (w - 1)) + 1]);
    for first in firsts.chain([0, -1, MAX_WHOLE, -MAX_WHOLE]) {
        let samples = at_5s([first as f64, first as f64]);
        let (kind, block) = encode(&samples).expect("ordered");
        assert_eq!(Some((kind, block.clone())), reference::encode(&samples), "{first}");
        assert!(samples_identical(&decode(&block, kind, 1_000, 2), &samples), "{first}");
        assert_eq!(block.len() as u64, (value_bits(first) + 15 + 1).div_ceil(8), "{first}");
    }
}

#[test]
fn compression_ratio_on_steady_counters() {
    // The workload the acceptance bar names: a monotone counter scraped on a
    // fixed cadence — two bits a sample behind the first two.
    let samples: Vec<Sample> =
        (0..120u64).map(|t| Sample { timestamp_ms: t * 15_000, value: (t * 250) as f64 }).collect();
    let (kind, bytes) = encode(&samples).unwrap();
    assert_eq!(kind, BlockKind::Integer);
    let per_sample = bytes.len() as f64 / samples.len() as f64;
    assert!(per_sample <= 0.5, "steady counter encodes at {per_sample} bytes/sample");
    // The same counter a half off is an XOR block, as it always was.
    let halves: Vec<Sample> =
        samples.iter().map(|s| Sample { value: s.value + 0.5, ..*s }).collect();
    let (kind, bytes) = encode(&halves).unwrap();
    assert_eq!(kind, BlockKind::Xor);
    assert_eq!(Some(&bytes), reference::encode_xor(&halves).as_ref());
    let per_sample = bytes.len() as f64 / samples.len() as f64;
    assert!(per_sample <= 4.0, "steady float counter encodes at {per_sample} bytes/sample");
}
