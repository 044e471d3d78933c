//! Property tests for the Gorilla chunk codec: `decode(encode(samples)) ==
//! samples` bit-for-bit over adversarial inputs (NaN, ±inf, zero and huge
//! timestamp deltas, duplicates), and rejection of inputs the storage engine
//! can never produce (timestamps running backwards).  The bit-by-bit decoder
//! and encoder the accumulator reader and writer replaced live on here as
//! [`reference`], the oracles production must match — the decoder sample for
//! sample on well-formed blocks, past their end, and on truncated and random
//! bytes; the encoder byte for byte on every input it accepts — whole, and
//! through the resumable [`BlockEncoder`] in any split into bursts.

use proptest::proptest;
use teemon_tsdb::chunk_codec::{
    decode, decode_into, encode, encode_into, BlockEncoder, GorillaState,
};
use teemon_tsdb::Sample;

/// The previous production decoder and encoder, verbatim: one `bytes.get`
/// per bit or byte fragment and one `write_bit` per bit, no accumulator.
/// Written against the byte format only.
mod reference {
    use teemon_tsdb::Sample;

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
    }

    /// Sentinel for "no value window established yet".
    const NO_WINDOW: u32 = u32::MAX;

    pub fn encode(samples: &[Sample]) -> Option<Vec<u8>> {
        let first = samples.first()?;
        let mut w = BitWriter::default();
        w.write_bits(first.timestamp_ms, 64);
        w.write_bits(first.value.to_bits(), 64);
        let mut prev_ts = first.timestamp_ms;
        let mut prev_delta: u64 = 0;
        let mut prev_bits = first.value.to_bits();
        let mut prev_leading: u32 = NO_WINDOW;
        let mut prev_trailing: u32 = 0;
        for sample in samples.iter().skip(1) {
            if sample.timestamp_ms < prev_ts {
                return None;
            }
            let delta = sample.timestamp_ms - prev_ts;
            // i128 so the delta-of-delta of arbitrary u64 deltas cannot overflow.
            let dod = delta as i128 - prev_delta as i128;
            match dod {
                0 => w.write_bit(false),
                -63..=64 => {
                    w.write_bits(0b10, 2);
                    w.write_bits((dod + 63) as u64, 7);
                }
                -255..=256 => {
                    w.write_bits(0b110, 3);
                    w.write_bits((dod + 255) as u64, 9);
                }
                -2047..=2048 => {
                    w.write_bits(0b1110, 4);
                    w.write_bits((dod + 2047) as u64, 12);
                }
                _ => {
                    // Escape: the raw delta (not the Δ²), so huge jumps stay exact.
                    w.write_bits(0b1111, 4);
                    w.write_bits(delta, 64);
                }
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
        bit_pos: u64,
        emitted: u32,
        prev_ts: u64,
        prev_delta: u64,
        prev_bits: u64,
        prev_leading: u32,
        prev_trailing: u32,
    }

    impl Decoder {
        pub fn new() -> Self {
            Self {
                bit_pos: 0,
                emitted: 0,
                prev_ts: 0,
                prev_delta: 0,
                prev_bits: 0,
                prev_leading: u32::MAX,
                prev_trailing: 0,
            }
        }

        pub fn next(&mut self, bytes: &[u8]) -> Sample {
            if self.emitted == 0 {
                self.prev_ts = read_bits(bytes, &mut self.bit_pos, 64);
                self.prev_bits = read_bits(bytes, &mut self.bit_pos, 64);
                self.emitted = 1;
                return Sample {
                    timestamp_ms: self.prev_ts,
                    value: f64::from_bits(self.prev_bits),
                };
            }
            let delta = if !read_bit(bytes, &mut self.bit_pos) {
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

        fn bucket_delta(&mut self, bytes: &[u8], bits: u32, bias: i128) -> u64 {
            let dod = read_bits(bytes, &mut self.bit_pos, bits) as i128 - bias;
            (self.prev_delta as i128).wrapping_add(dod) as u64
        }
    }

    pub fn decode(bytes: &[u8], count: usize) -> Vec<Sample> {
        let mut decoder = Decoder::new();
        (0..count).map(|_| decoder.next(bytes)).collect()
    }
}

/// Sample specs: a delta selector and a value selector, expanded into
/// timestamp deltas / values that stress every encoder bucket.
fn build_samples(specs: &[(u8, u8, u16)]) -> Vec<Sample> {
    let mut ts = 0u64;
    let mut prev_bits = 0u64;
    specs
        .iter()
        .map(|&(delta_kind, value_kind, raw)| {
            let delta = match delta_kind % 8 {
                0 => 0,                            // duplicate timestamp
                1 => 1,                            // minimal step
                2 => 5_000,                        // steady scrape cadence
                3 => 5_000 + u64::from(raw % 100), // jittered cadence
                4 => u64::from(raw),               // small arbitrary
                5 => u64::from(raw) * 1_000,       // Δ² beyond the 12-bit bucket
                6 => u64::from(raw) << 32,         // huge: raw-delta escape
                _ => 86_400_000,                   // one day
            };
            ts = ts.saturating_add(delta);
            // Kinds 10 and up are bit patterns aimed at the value encoder's
            // window logic; the round-trip and decoder properties draw from
            // the first ten only.
            let value = match value_kind % 14 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => f64::from(raw),          // small integers
                6 => -f64::from(raw),         // negative
                7 => f64::from(raw) * 1e-300, // subnormal territory
                8 => f64::from(raw) * 1e300,  // huge magnitude
                9 => f64::from(raw) + f64::from(raw % 7) * 0.1,
                // Every bit flipped: a 64-bit meaningful window.
                10 => f64::from_bits(!prev_bits),
                // NaN payloads of either sign.
                11 => f64::from_bits((0x7ff8 << 48) | (u64::from(raw) << 63) | u64::from(raw)),
                // Full-entropy patterns: a new, wide window almost every time.
                12 => f64::from_bits(u64::from(raw).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                // A few bits mid-word: fits (and reuses) the previous window.
                _ => f64::from_bits(prev_bits ^ (u64::from(raw % 64) << 24)),
            };
            prev_bits = value.to_bits();
            Sample { timestamp_ms: ts, value }
        })
        .collect()
}

/// Asserts the production decoder — bulk `decode`/`decode_into` and the
/// one-at-a-time `GorillaState` — reads `count` samples off `bytes` exactly
/// as the reference does.
fn assert_matches_reference(bytes: &[u8], count: usize) {
    let want = reference::decode(bytes, count);
    assert!(samples_identical(&decode(bytes, count), &want), "bulk decode diverged");
    let mut appended = vec![Sample { timestamp_ms: 7, value: 7.0 }];
    decode_into(bytes, count, &mut appended);
    assert!(samples_identical(&appended[1..], &want), "decode_into diverged");
    let mut state = GorillaState::new();
    let streamed: Vec<Sample> = (0..count).map(|_| state.next(bytes)).collect();
    assert!(samples_identical(&streamed, &want), "GorillaState diverged");
    assert_eq!(state.emitted() as usize, count);
}

/// Bit-exact equality (plain `==` treats NaN as unequal).
fn samples_identical(a: &[Sample], b: &[Sample]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.timestamp_ms == y.timestamp_ms && x.value.to_bits() == y.value.to_bits()
        })
}

proptest! {
    /// Round trip: every time-ordered input decodes back bit-for-bit, both
    /// through the materialising `decode` and the streaming `GorillaState`.
    #[test]
    fn encode_decode_round_trips(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 1..200),
    ) {
        let samples = build_samples(&specs);
        let bytes = encode(&samples).expect("time-ordered input must encode");
        assert!(samples_identical(&decode(&bytes, samples.len()), &samples));
        let mut state = GorillaState::new();
        let streamed: Vec<Sample> = (0..samples.len()).map(|_| state.next(&bytes)).collect();
        assert!(samples_identical(&streamed, &samples));
        assert_eq!(state.emitted() as usize, samples.len());
    }

    /// The accumulator decoder equals the bit-by-bit reference on encoded
    /// series (every Δ² bucket, the raw-delta escape, value-window reuse and
    /// re-establishment, the IEEE specials), five samples past their end,
    /// and on every kind of truncation.
    #[test]
    fn decoder_matches_the_bit_by_bit_reference(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 1..200),
        cut in 0usize..4096,
    ) {
        let samples = build_samples(&specs);
        let bytes = encode(&samples).expect("time-ordered input must encode");
        assert_matches_reference(&bytes, samples.len() + 5);
        let cut = cut % (bytes.len() + 1);
        assert_matches_reference(&bytes[..cut], samples.len() + 5);
    }

    /// …and on bytes no encoder produced.
    #[test]
    fn decoder_matches_the_reference_on_random_bytes(
        garbage in proptest::collection::vec(0u16..256, 0..300),
        count in 0usize..400,
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        assert_matches_reference(&garbage, count);
    }

    /// Any input with a backwards timestamp anywhere is rejected whole.
    #[test]
    fn unordered_input_is_rejected(
        specs in proptest::collection::vec((0u8..8, 0u8..10, 0u16..u16::MAX), 2..50),
        flip in 1usize..49,
    ) {
        let mut samples = build_samples(&specs);
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
    /// for byte: every Δ² bucket and the raw-delta escape, window reuse and
    /// new windows up to the full 64 bits, NaN payloads, ±∞, −0.0 — and
    /// every prefix of each input, which covers 1- and 2-sample blocks and
    /// streams ending at every bit offset of a byte and of a word.  The
    /// scratch is reused dirty from prefix to prefix.
    #[test]
    fn encoder_matches_the_bit_by_bit_reference(
        specs in proptest::collection::vec((0u8..8, 0u8..14, 0u16..u16::MAX), 1..200),
    ) {
        let samples = build_samples(&specs);
        let mut scratch = vec![0xa5; 7];
        for end in 1..=samples.len() {
            let want = reference::encode(&samples[..end]).expect("time-ordered input must encode");
            assert!(encode_into(&samples[..end], &mut scratch));
            assert_eq!(scratch, want, "encode_into diverged on the first {end} samples");
        }
        assert_eq!(encode(&samples), reference::encode(&samples));
    }

    /// A block built by any split of its samples into bursts — finished
    /// after a burst or not, empty bursts in between — is byte for byte the
    /// block `encode` builds, and at every burst boundary the finished
    /// buffer is the block of the samples pushed so far.
    #[test]
    fn any_split_into_bursts_builds_the_same_block(
        specs in proptest::collection::vec((0u8..8, 0u8..14, 0u16..u16::MAX), 1..200),
        cuts in proptest::collection::vec((0usize..12, 0u8..2), 1..60),
    ) {
        let samples = build_samples(&specs);
        let mut encoder = BlockEncoder::new();
        let mut block = vec![0xa5; 3];
        assert_eq!((encoder.count(), encoder.last_timestamp(), encoder.byte_len()), (0, None, 0));
        let mut pushed = 0;
        for &(burst, finish) in cuts.iter().cycle() {
            let end = (pushed + burst).min(samples.len());
            assert!(encoder.push(&samples[pushed..end], &mut block));
            pushed = end;
            assert_eq!(encoder.count() as usize, pushed);
            assert_eq!(encoder.last_timestamp(), samples[..pushed].last().map(|s| s.timestamp_ms));
            if finish == 1 || pushed == samples.len() {
                encoder.finish(&mut block);
                let want = reference::encode(&samples[..pushed]).unwrap_or_default();
                assert_eq!(block, want, "the first {pushed} samples, finished");
                assert_eq!(encoder.byte_len(), want.len());
                // Finishing is idempotent.
                encoder.finish(&mut block);
                assert_eq!(block, want);
            }
            if pushed == samples.len() {
                break;
            }
        }
        assert_eq!(Some(block), encode(&samples));
    }

    /// A sample older than its predecessor stops a push there: what came
    /// before it is in the block, it and the rest are not, and the encoder
    /// carries on from the last sample it took.
    #[test]
    fn a_push_stops_at_the_first_backwards_timestamp(
        specs in proptest::collection::vec((1u8..8, 0u8..14, 1u16..u16::MAX), 2..50),
        flip in 1usize..49,
        split in 0usize..49,
    ) {
        let good = build_samples(&specs);
        let flip = 1 + flip % (good.len() - 1);
        let mut bad = good.clone();
        bad[flip].timestamp_ms = bad[flip - 1].timestamp_ms - 1;
        let split = split % (flip + 1);
        let mut encoder = BlockEncoder::new();
        let mut block = Vec::new();
        assert!(encoder.push(&bad[..split], &mut block));
        assert!(!encoder.push(&bad[split..], &mut block), "decrease at index {flip}");
        assert_eq!(encoder.count() as usize, flip);
        assert!(encoder.push(&good[flip..], &mut block));
        encoder.finish(&mut block);
        assert_eq!(Some(block), reference::encode(&good));
    }

    /// A decrease anywhere makes `encode_into` report failure and leaves the
    /// scratch fit for the next block.
    #[test]
    fn a_rejected_block_leaves_the_scratch_reusable(
        specs in proptest::collection::vec((1u8..8, 0u8..14, 1u16..u16::MAX), 2..50),
        flip in 1usize..49,
    ) {
        let good = build_samples(&specs);
        let flip = 1 + flip % (good.len() - 1);
        let mut bad = good.clone();
        // Deltas are drawn non-zero (`1u8..8` with a non-zero `raw`), so the
        // predecessor's timestamp is at least 1.
        bad[flip].timestamp_ms = bad[flip - 1].timestamp_ms - 1;
        let mut scratch = Vec::new();
        assert!(!encode_into(&bad, &mut scratch), "decrease at index {flip} must reject");
        assert!(encode_into(&good, &mut scratch));
        assert_eq!(Some(scratch), reference::encode(&good));
    }
}

#[test]
fn blocks_ending_on_byte_and_word_boundaries_match_the_reference() {
    // A first sample is 128 bits — two whole words — and each exact repeat
    // adds two, so 1 + 4k samples end on a byte and 1 + 32k on a word.  A
    // scrape cadence puts a 69-bit raw-delta escape in front of the repeats
    // and walks the same boundaries at another phase.
    let flat: Vec<Sample> = (0..98).map(|_| Sample { timestamp_ms: 7, value: 42.0 }).collect();
    let cadence: Vec<Sample> =
        (0..98u64).map(|t| Sample { timestamp_ms: t * 15_000, value: 42.0 }).collect();
    let mut scratch = Vec::new();
    for input in [&flat, &cadence] {
        for end in 1..=input.len() {
            assert!(encode_into(&input[..end], &mut scratch));
            assert_eq!(Some(&scratch), reference::encode(&input[..end]).as_ref(), "{end} samples");
        }
    }
    assert!(encode_into(&flat[..1], &mut scratch));
    assert_eq!(scratch.len(), 16);
    assert!(encode_into(&flat[..33], &mut scratch));
    assert_eq!(scratch.len(), 24, "32 repeats fill exactly one more word");
    assert!(!encode_into(&[], &mut scratch), "an empty block is rejected, as by `encode`");
}

#[test]
fn compression_ratio_on_steady_counters() {
    // The workload the acceptance bar names: a monotone counter scraped on a
    // fixed cadence must land at or below 4 bytes/sample.
    let samples: Vec<Sample> =
        (0..120u64).map(|t| Sample { timestamp_ms: t * 15_000, value: (t * 250) as f64 }).collect();
    let bytes = encode(&samples).unwrap();
    let per_sample = bytes.len() as f64 / samples.len() as f64;
    assert!(per_sample <= 4.0, "steady counter encodes at {per_sample} bytes/sample");
}
