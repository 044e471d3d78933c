//! The sample generator of the chunk-codec properties in tsdb's
//! `tests/chunk_codec.rs` (the codec against its bit-by-bit reference):
//! every timestamp bucket and escape, every rung of the integer ladder, the
//! IEEE specials and long steady stretches — and what the codec, head and
//! block suites compare samples by: the block kind a run calls for and a
//! NaN-proof key.

use teemon_tsdb::chunk_codec::BlockKind;
use teemon_tsdb::Sample;

/// 2⁵³: the largest magnitude an integer block's value may have.
pub const MAX_WHOLE: i64 = 1 << 53;

/// Payload widths of the integer value ladder, as the format documents them.
pub const VALUE_LADDER: [u32; 7] = [5, 9, 14, 20, 26, 34, 48];

/// The qualification rule, from its definition: a whole number, not the
/// negative zero, of magnitude at most 2⁵³.
pub fn qualifies(value: f64) -> bool {
    value.is_finite()
        && value.trunc() == value
        && value.abs() <= MAX_WHOLE as f64
        && value.to_bits() != (-0.0f64).to_bits()
}

/// The kind the samples call for.
pub fn kind_of(samples: &[Sample]) -> BlockKind {
    if samples.iter().all(|s| qualifies(s.value)) {
        BlockKind::Integer
    } else {
        BlockKind::Xor
    }
}

/// NaN-proof comparison key.
pub fn bits(samples: impl IntoIterator<Item = Sample>) -> Vec<(u64, u64)> {
    samples.into_iter().map(|s| (s.timestamp_ms, s.value.to_bits())).collect()
}

/// Where in a generated stream the values stop being whole numbers only:
/// nowhere (kind 0: the whole stream draws from every value kind), past the
/// end (1: an integer block), or at a drawn position.
pub fn switch_at((kind, position): (u8, usize), len: usize) -> usize {
    match kind % 3 {
        0 => 0,
        1 => len,
        _ => position % len.max(1),
    }
}

/// Sample specs: a delta selector and a value selector, expanded into
/// timestamp deltas / values that stress every encoder bucket.  Values
/// before `whole_until` are whole numbers of magnitude at most 2⁵³ — the
/// integer ladder's rungs, their edges and the extremes among them; from
/// there on anything goes.
///
/// A delta selector of 8 or 9 is not one sample but a steady stretch: `1 +
/// raw % 200` samples at the cadence of the two before it, the value standing
/// still (8) or, whole numbers permitting, holding its rate (9) — two zero
/// bits a sample in a block of the kind that suits, which is what the
/// decoder takes in runs.  Up to 200, so a run crosses the reader's 57-bit
/// refills several times over; the sample specs around a stretch are the
/// single escapes that interrupt it.  The properties that draw selectors
/// below 8 see no stretches.
pub fn build_samples(specs: &[(u8, u8, u16)], whole_until: usize) -> Vec<Sample> {
    let mut ts = 0u64;
    let mut prev_bits = 0u64;
    let mut prev_int = 0i64;
    let mut out: Vec<Sample> = Vec::new();
    for (i, &(delta_kind, value_kind, raw)) in specs.iter().enumerate() {
        if delta_kind >= 8 {
            let (cadence, rate) = match out[..] {
                [.., a, b] => (b.timestamp_ms - a.timestamp_ms, b.value - a.value),
                _ => (5_000, 0.0),
            };
            let mut value = out.last().map_or(0.0, |s| s.value);
            let holds_rate = delta_kind == 9 && qualifies(value);
            for _ in 0..=raw % 200 {
                ts = ts.saturating_add(cadence);
                if holds_rate && qualifies(value + rate) {
                    value += rate;
                }
                out.push(Sample { timestamp_ms: ts, value });
            }
            prev_bits = value.to_bits();
            prev_int = if qualifies(value) { value as i64 } else { 0 };
            continue;
        }
        let delta = match delta_kind {
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
        let value = if i < whole_until {
            let step = i64::from(raw);
            let int = match value_kind % 10 {
                0 => 0,
                1 => prev_int,                    // a gauge at rest
                2 | 3 => prev_int + 1 + step % 3, // a counter, nearly steady
                4 => prev_int - step,             // falling
                5 => step << (raw % 38),          // anywhere up to 2⁵³
                6 => {
                    if raw % 2 == 0 {
                        MAX_WHOLE
                    } else {
                        -MAX_WHOLE
                    }
                }
                // A Δ² on, and one off, either end of a ladder rung.
                7 => {
                    let half = 1i64 << (VALUE_LADDER[usize::from(raw % 7)] - 1);
                    prev_int + [half, half + 1, 1 - half, -half][usize::from(raw / 7 % 4)]
                }
                8 => -prev_int,
                _ => step,
            };
            int.clamp(-MAX_WHOLE, MAX_WHOLE) as f64
        } else {
            // Kinds 10 and up are bit patterns aimed at the XOR encoder's
            // window logic; the round-trip and decoder properties draw
            // from the first ten only.
            match value_kind % 14 {
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
            }
        };
        prev_bits = value.to_bits();
        prev_int = if qualifies(value) { value as i64 } else { 0 };
        out.push(Sample { timestamp_ms: ts, value });
    }
    out
}
