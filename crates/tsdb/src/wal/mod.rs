//! Write-ahead log: durability for [`crate::TimeSeriesDb`].
//!
//! The ingest fast lane already batches appends per shard per scrape round,
//! which is exactly the boundary a sequential log wants.  Every mutation of a
//! shard (series creation, every sample append — including rejected ones,
//! series drops, retention passes) is staged into that shard's reusable
//! in-memory buffer while the shard lock is held, and once per round the
//! scrape driver calls [`crate::TimeSeriesDb::wal_flush`], which drains the
//! sixteen staging buffers into **one group**, seals it with **one
//! checksum** and hands it to the log with **one sequential write** — plus
//! one fsync under [`FsyncMode::EveryCommit`].  Staging buffers and group
//! buffer are retained round over round, so the warm durable path is
//! allocation-free.  Ingest nobody drives a round for — remote-write pushes
//! into a server without scrape targets — is not left to stage forever: the
//! appender that takes a shard's buffer past 256 KiB commits the round
//! itself, once it has released its shard lock.
//!
//! # On-disk layout
//!
//! | file                   | contents                                        |
//! |------------------------|-------------------------------------------------|
//! | `segment-NNNNNNNN.log` | the log: one group per committed round          |
//! | `shard-NN.snap`        | shard `NN`'s state as of round `base_seq`       |
//! | `symbols.snap`         | every live symbol binding as of round `base_seq`|
//!
//! Every record in every file uses the same frame, and a log group's payload
//! is the round's sequence number followed by at most one section per
//! *stream* — the sixteen shards and the symbol table:
//!
//! ```text
//! frame   = len: u32, xxh64(payload): u64, payload        (little-endian)
//! payload = seq: u64, section*
//! section = stream: u8 (shard 0..15, 16 = symbol binds), len: u32, body
//! shard body   = records, type byte first: SERIES, SAMPLES, DROP, RETENTION
//! symbols body = (slot: u32, len: u32, utf-8 string)*
//! SERIES       = 22: u8, id, name, count, (key, value)*  (unsigned LEB128 each)
//! SAMPLES      = 21: u8, body_len: u32, timestamp_ms: u64, entry*
//! entry        = ctl: u8, [local: u16 | u32], value: 0..=8 bytes
//!                (a float's high bytes, or a whole number's low ones)
//! DROP         = 19: u8, count: u32, (local: u32)*
//! RETENTION    = 20: u8, cutoff_ms: u64
//! ```
//!
//! A sample is logged for what it is worth, not at a fixed width: the batch
//! carries its timestamp once, an entry names its series as a distance from
//! the previous entry's shard-local index (in the control byte's high nibble
//! when the round walks the shard in order — `append_batch` stages each
//! shard's run sorted by local, so it does) and stores the value either as
//! its `f64` bits without their trailing zero bytes or, where that is
//! shorter, as a whole number in one to four bytes (one to three if negative)
//! — 1 byte for `0.0`, 2 for a whole number below 2^8, 3 below 2^16, at most
//! 11 while a shard holds 65 536 series or fewer and 13 beyond
//! (`pack_sample`).  A series is logged the same way: a `SERIES`
//! record is its id, name and label symbols as varints, ≈ 22 bytes for a
//! six-label series where the fixed-width record took 65.  The coding is
//! bit-exact for every `f64` and closed over the record: no entry refers to
//! anything outside its own record, so the log stays replayable on its own.
//! Tag 17, the fixed-width series record, and tag 18, the fixed
//! `local: u32, value: f64` batch, which earlier versions wrote, are still
//! read — a directory they left must open whole — and never written.
//!
//! A shard snapshot is a header frame, one frame per series and a footer
//! frame.  A series frame holds the series' identity, its open head and its
//! sealed chunks, each chunk payload behind a one-byte kind tag: `0` plain
//! `(timestamp, value)` pairs, `3` a Gorilla block with XOR-coded values, `4`
//! a Gorilla block whose values — whole numbers all — are integer deltas
//! (see [`crate::chunk_codec`]).  Neither block holds its first timestamp: a
//! sealed chunk's is the `start` of the footer it is recorded with, and a
//! head's block has its start written beside it.  Tags `1` (XOR) and `2`
//! (integer) are blocks of the older form, which opened with their first
//! sample raw; directories written before tags 3 and 4 hold them (and
//! before tag 2, `0` and `1` only), and recovery decodes each such block
//! once and seals it again in today's form.  The tag, the sample count and
//! the start are all a block's decoder needs to be told, and recovery
//! believes a count only if the bytes next to it could hold that many
//! samples (a raw run `count × 16` bytes; a block the fewest bits that many
//! samples take in its form, two a sample past the second): anything else
//! fails the snapshot, never an allocation.
//!
//! Commit *is* the frame boundary: a group that verifies is a round that was
//! written whole, and nothing else confirms it.  Recovery therefore has one
//! rule — read the segments in order and apply a group's section to stream
//! `k` iff `seq > base_seq_k`, the round stream `k`'s snapshot was taken at
//! (`0` without a snapshot).
//!
//! # Checkpoints
//!
//! Each stream is checkpointed on its own: a shard is snapshotted when *its*
//! logged bytes since its last snapshot pass `segment_bytes`, the symbol
//! table is swept and snapshotted when the symbol stream's do.  The active
//! segment is sealed once it passes `segment_bytes`, and a sealed segment is
//! deleted as soon as no stream has an un-checkpointed section in it.  A
//! stream that logs too slowly to ever reach its budget is checkpointed
//! anyway once its oldest un-checkpointed section sits 32 segments (twice
//! the shard count) behind the active one, so it cannot pin the log forever.
//!
//! # Salvage and isolation
//!
//! Recovery scans the segments until the first frame whose length, checksum
//! or payload does not verify, cuts that segment back to the last valid
//! group and deletes every later segment, counting what was dropped through
//! `teemon_obs` probes (`teemon_wal_salvage_total`,
//! `teemon_wal_salvaged_bytes_total`).  A shard whose *snapshot* is
//! unreadable cannot be reconstructed at all: it comes up empty and flagged
//! in [`crate::StorageStats::wal_failed_shards`], without affecting the other
//! shards; an unreadable symbols snapshot fails the whole log (symbols are
//! global).  A runtime write or fsync error also fails the log as a whole —
//! there is only one — and the database keeps serving from memory.
//!
//! # Locking
//!
//! * `"tsdb.wal.shard"` (one instance per shard) guards a shard's staging
//!   buffer.  Acquired *after* the corresponding `tsdb.shard` lock on the
//!   staging path, and after `tsdb.wal.log` when a flush drains it.
//! * `"tsdb.wal.log"` guards the segment file, the group buffer and the
//!   checkpoint bookkeeping, and is held across a whole flush — commit *and*
//!   checkpoints — so a snapshot taken at round `seq` can never contain the
//!   effects of a later group.  `tsdb.symbols`, `tsdb.wal.shard` and — for a
//!   shard checkpoint — `tsdb.shard` (read) are taken inside it.
//!
//! The resulting order — `tsdb.wal.log → tsdb.shard → {tsdb.symbols,
//! tsdb.wal.shard}` — is acyclic: nothing that holds a shard lock ever takes
//! the log lock (an appender over its staging budget flushes only after it
//! let go of the shard).  The WAL classes are deliberately not marked `no_alloc`:
//! cold-path buffer growth (and the in-memory [`FaultFs`] used by tests)
//! allocates under them, and the allocation-freedom of the *warm* durable
//! round is proven directly by the counting-allocator test instead.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex, MutexGuard, RwLock};
use teemon_obs::{probes, Stopwatch};

use crate::chunk_codec::{self, BlockKind};
use crate::head::Head;
use crate::series::{put_raw, Chunk, Payload, Sample, Sealed, SAMPLE_BYTES};
use crate::storage::SHARD_COUNT;
use crate::symbols::{SymbolId, SymbolTable};

mod fault;

pub use fault::{CrashModel, FailpointWriter, FaultFs};

// ---------------------------------------------------------------------------
// XXH64 and record framing
// ---------------------------------------------------------------------------

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2)).rotate_left(31).wrapping_mul(PRIME_1)
}

#[inline(always)]
fn xxh_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh_round(0, acc)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4)
}

/// XXH64 (seed 0) of `bytes`: the one checksum of the durability tier, over
/// log groups and snapshot frames alike.  Four independent 64-bit lanes
/// retire 32 input bytes per step, so a 1 000-sample round group (≈ 5 KB)
/// costs about half a microsecond.
fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut v1 = PRIME_1.wrapping_add(PRIME_2);
        let mut v2 = PRIME_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(PRIME_1);
        for stripe in &mut stripes {
            let Some((a, rest)) = stripe.split_first_chunk::<8>() else { break };
            let Some((b, rest)) = rest.split_first_chunk::<8>() else { break };
            let Some((c, rest)) = rest.split_first_chunk::<8>() else { break };
            let Some((d, _)) = rest.split_first_chunk::<8>() else { break };
            v1 = xxh_round(v1, u64::from_le_bytes(*a));
            v2 = xxh_round(v2, u64::from_le_bytes(*b));
            v3 = xxh_round(v3, u64::from_le_bytes(*c));
            v4 = xxh_round(v4, u64::from_le_bytes(*d));
        }
        let hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        xxh_merge(xxh_merge(xxh_merge(xxh_merge(hash, v1), v2), v3), v4)
    } else {
        PRIME_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while let Some((word, rest)) = tail.split_first_chunk::<8>() {
        hash = (hash ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
        tail = rest;
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        tail = rest;
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5)).rotate_left(11).wrapping_mul(PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

/// Frame header size: `len: u32` + `xxh64: u64`.
const FRAME_BYTES: usize = 12;
/// Upper bound a frame length must pass before it is believed (256 MiB).
const MAX_RECORD_LEN: usize = 1 << 28;
/// Upper bound for element counts inside payloads (defends against garbage
/// lengths in checksum-colliding corruption).
const MAX_COUNT: u32 = 1 << 24;

/// Streams a log group can carry a section for: one per shard, then the
/// symbol table.  A stream is also the unit of checkpointing.
const STREAMS: usize = SHARD_COUNT + 1;
/// Stream index (and section tag) of the symbol binds.
const SYMBOLS: usize = SHARD_COUNT;
/// Bytes every group spends before its first section: frame header + `seq`.
const GROUP_HEADER_BYTES: usize = FRAME_BYTES + 8;
/// Bytes of a section header: stream tag + body length.
const SECTION_HEADER_BYTES: usize = 5;
/// A stream whose oldest un-checkpointed section sits this many segments
/// behind the active one is checkpointed regardless of its byte budget.
/// Twice the shard count: evenly loaded shards reach their budget about
/// sixteen segments in, so this only ever fires for a stream that lags.
const MAX_SEGMENT_LAG: u64 = 2 * SHARD_COUNT as u64;

// Shard records, inside a shard section:
/// The fixed-width series record of earlier versions (`id: u64, name: u32,
/// count: u32`, then `key: u32, value: u32` per label).  Read so a directory
/// they wrote still opens; never written.  Deletable, with its reader, once
/// an open rewrites such a directory in the current form at its first
/// checkpoint and `tests/golden/wal-v1`..`wal-v3` are retired with it.
const REC_SERIES_V1: u8 = 17;
/// The fixed-entry sample batch of earlier versions (`count: u32,
/// timestamp_ms: u64`, then `local: u32, value: f64` per sample).  Read so a
/// directory they wrote still opens; never written.  Deletable on the same
/// condition as [`REC_SERIES_V1`], once `tests/golden/wal-v1` is retired.
const REC_SAMPLES_V1: u8 = 18;
const REC_DROP: u8 = 19;
const REC_RETENTION: u8 = 20;
const REC_SAMPLES: u8 = 21;
/// Series creation: `id, name, count, (key, value)*`, every field unsigned
/// LEB128 ([`put_varint`]).
const REC_SERIES: u8 = 22;
/// The most bytes a [`REC_SERIES`] record takes before its labels (type
/// byte, a 64-bit id, two 32-bit fields), and per label pair.
const SERIES_HEADER_MAX_BYTES: usize = 1 + 10 + 5 + 5;
const SERIES_PAIR_MAX_BYTES: usize = 10;
/// The fewest bytes one element takes wherever a count is read: a varint
/// label pair, a fixed one, a symbol binding (`slot: u32, len: u32`), a
/// `DROP` victim, a sealed chunk's header (kind, count, start, end, length),
/// a shard snapshot's series frame.  A count the bytes left could not hold is
/// refused before anything is reserved for it ([`Cur::room_for`]).
const VARINT_PAIR_MIN_BYTES: usize = 2;
const FIXED_PAIR_BYTES: usize = 8;
const BINDING_MIN_BYTES: usize = 8;
const VICTIM_BYTES: usize = 4;
const SEALED_CHUNK_MIN_BYTES: usize = 1 + 4 + 8 + 8 + 4;
const SNAP_SERIES_MIN_BYTES: usize = FRAME_BYTES + 1;

/// Bytes of one entry of a [`REC_SAMPLES_V1`] batch.
const SAMPLE_V1_ENTRY_BYTES: usize = 12;
/// Bytes of a `REC_SAMPLES` batch header: type, body length, timestamp.  The
/// header carries the shared `timestamp_ms` once — every sample of a scrape
/// target's round lands at the same timestamp — and a sample at a different
/// timestamp seals the batch and opens a new one.
const SAMPLE_HEADER_BYTES: usize = 13;
/// Bytes [`pack_sample`] hands back per entry — of which at most 13 are the
/// entry: control byte, a `u32` local, all eight value bytes (11 while the
/// shard holds at most 65 536 series) — and therefore the spare capacity
/// [`ShardWriter::sample`] wants before staging one.
const SAMPLE_SLOT_BYTES: usize = 16;
/// Low-nibble bases of an entry's integer forms: `9..=12` is a whole number
/// `>= 0` in `nibble - 8` bytes, `13..=15` a negative one whose magnitude
/// takes `nibble - 12` (see [`pack_sample`]).
const INT_NON_NEGATIVE: u32 = 8;
const INT_NEGATIVE: u32 = 12;
/// High-nibble codes of an entry's control byte past the inline deltas
/// `0..=13`: the local index follows as a `u16`, or as a `u32`.
const LOCAL_U16: u8 = 14;
const LOCAL_U32: u8 = 15;
/// Staged bytes past which a shard's appender commits the round early
/// instead of waiting for the driver's flush (see
/// [`ShardWriter::over_budget`]).  A scrape round stays under it up to
/// ≈ 24 000 samples per shard, so only ingest nobody flushes for — a
/// push-only server — ever gets here; what it bounds is the memory staging
/// can hold (16 × this) and the size of the group a flush writes, which
/// recovery refuses past [`MAX_RECORD_LEN`].
const STAGE_FLUSH_BYTES: usize = 256 << 10;
// Snapshot frames, type byte first:
const REC_SNAP_SYMBOLS: u8 = 3;
const REC_SNAP_HEADER: u8 = 32;
const REC_SNAP_SERIES: u8 = 33;
const REC_SNAP_FOOTER: u8 = 34;

/// Opens a frame in `buf`: reserves the header, returns its offset.
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_BYTES]);
    at
}

/// Closes the frame opened at `at`: patches payload length and checksum in
/// place.
fn end_frame(buf: &mut [u8], at: usize) {
    let payload_len = buf.len().saturating_sub(at + FRAME_BYTES) as u32;
    let sum = xxh64(buf.get(at + FRAME_BYTES..).unwrap_or(&[]));
    if let Some(header) = buf.get_mut(at..at + FRAME_BYTES) {
        let (len_bytes, sum_bytes) = header.split_at_mut(4);
        len_bytes.copy_from_slice(&payload_len.to_le_bytes());
        sum_bytes.copy_from_slice(&sum.to_le_bytes());
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as unsigned LEB128: seven bits a byte, the low group first,
/// the high bit set on every byte but the last — 1 byte below 128, 5 for any
/// `u32`, 10 for any `u64`.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A counted list of `(key, value)` symbol pairs.
fn put_label_syms(buf: &mut Vec<u8>, label_syms: &[(SymbolId, SymbolId)]) {
    put_u32(buf, label_syms.len() as u32);
    for (k, v) in label_syms {
        put_u32(buf, k.as_u32());
        put_u32(buf, v.as_u32());
    }
}

fn put_bindings(buf: &mut Vec<u8>, bindings: &[(u32, Arc<str>)]) {
    for (raw, s) in bindings {
        put_u32(buf, *raw);
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Packs one sample of a `REC_SAMPLES` batch; returns the entry, left-aligned
/// in a fixed slot, and its length (at most 13):
///
/// ```text
/// entry    = ctl: u8, [local: u16 | u32], value bytes
/// ctl >> 4 = 0..=13: local = the batch's previous local + 1 + this (the
///            previous local starts at -1, wrapping); 14: the local follows
///            as a u16; 15: it follows as a u32
/// ctl & 15 = n in 0..=8: the n high-order bytes of value.to_bits()
///            follow, the low 8 - n are zero (the float form); n in
///            9..=12: value is the whole number m >= 0 whose n - 8
///            little-endian bytes follow; n in 13..=15: value is -m, m in
///            n - 12 bytes
/// ```
///
/// Bit-exact for every `f64`, and decodable from the batch alone — nothing is
/// coded against the series' previous value, so a log record never depends on
/// store state.  What it exploits is what monitoring data looks like: a round
/// visits a shard's series in order, and counts, page numbers and zeroes are
/// whole numbers.  The integer form is taken only where it is strictly
/// shorter than the float form and the value is exactly `i as f64` for an `i`
/// inside its widths (which leaves −0.0, NaN and ±∞ to the float form), so an
/// entry is never longer than its float form: 0.0 costs no value byte, a
/// whole number below 2^8 one, below 2^16 two.  A full mantissa in shuffled
/// order still fits 11 bytes while the shard holds at most 65 536 series.
#[inline(always)]
fn pack_sample(prev: u32, local: u32, value: f64) -> ([u8; SAMPLE_SLOT_BYTES], usize) {
    let bits = value.to_bits();
    let zeros = bits.trailing_zeros();
    let cut = (zeros / 8).min(8);
    let float_bytes = 8 - cut;
    // Read off the bits, without a conversion: `value` is ±m for a whole m
    // in 2^e..2^(e + 1) iff its exponent is e >= 0 and no mantissa bit below
    // 2^0 is set — at least 52 − e trailing zeros.  (A zero, a subnormal or
    // a fraction below 1 has an exponent below 0, which wraps past any
    // width; ±∞ and NaN one of 1024.)
    let exponent = ((bits >> 52) as u32 & 0x7FF).wrapping_sub(1023);
    let negative = (bits >> 63) as u32;
    let int_bytes = exponent / 8 + 1;
    let (form, payload, value_bytes) =
        if int_bytes <= 4 - negative && zeros + exponent >= 52 && int_bytes < float_bytes {
            let magnitude = (bits & ((1 << 52) - 1) | 1 << 52) >> (52 - exponent);
            (INT_NON_NEGATIVE + 4 * negative + int_bytes, magnitude, int_bytes)
        } else {
            (float_bytes, bits.checked_shr(cut * 8).unwrap_or(0), float_bytes)
        };
    let delta = local.wrapping_sub(prev).wrapping_sub(1);
    let (code, local_bits, local_bytes) = if delta < u32::from(LOCAL_U16) {
        (delta, 0, 0)
    } else if local <= u32::from(u16::MAX) {
        (u32::from(LOCAL_U16), u128::from(local), 2)
    } else {
        (u32::from(LOCAL_U32), u128::from(local), 4)
    };
    let entry = u128::from(code << 4 | form)
        | local_bits << 8
        | u128::from(payload) << (8 + 8 * local_bytes);
    (entry.to_le_bytes(), (1 + local_bytes + value_bytes) as usize)
}

/// The still-encoded entries of one sample batch, decoded as they are
/// iterated: `(local, value)` pairs in staging order.  Every control byte
/// names a length, so iteration ends only at an entry the batch cuts short,
/// leaving it unconsumed —
/// [`SampleEntries::validated`] is how [`decode_shard_op`] refuses such a
/// batch before anything of its group is applied.
#[derive(Clone, Copy)]
pub(crate) struct SampleEntries<'a> {
    bytes: &'a [u8],
    /// `false` for the fixed 12-byte entries of a [`REC_SAMPLES_V1`] batch.
    packed: bool,
    prev: u32,
}

impl<'a> SampleEntries<'a> {
    /// The number of entries, iff `bytes` is a whole number of well-formed
    /// entries.
    fn validated(bytes: &'a [u8], packed: bool) -> Option<(Self, usize)> {
        let entries = Self { bytes, packed, prev: u32::MAX };
        let mut walk = entries;
        let count = walk.by_ref().count();
        walk.bytes.is_empty().then_some((entries, count))
    }
}

impl Iterator for SampleEntries<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        if !self.packed {
            let (local, rest) = self.bytes.split_first_chunk::<4>()?;
            let (bits, rest) = rest.split_first_chunk::<8>()?;
            self.bytes = rest;
            return Some((u32::from_le_bytes(*local), f64::from_bits(u64::from_le_bytes(*bits))));
        }
        let (&ctl, rest) = self.bytes.split_first()?;
        let (local, rest) = match ctl >> 4 {
            LOCAL_U16 => {
                let (local, rest) = rest.split_first_chunk::<2>()?;
                (u32::from(u16::from_le_bytes(*local)), rest)
            }
            LOCAL_U32 => {
                let (local, rest) = rest.split_first_chunk::<4>()?;
                (u32::from_le_bytes(*local), rest)
            }
            delta => (self.prev.wrapping_add(1).wrapping_add(u32::from(delta)), rest),
        };
        let form = u32::from(ctl & 15);
        let value_bytes = match form {
            0..=8 => form,
            9..=12 => form - INT_NON_NEGATIVE,
            _ => form - INT_NEGATIVE,
        };
        let value = rest.get(..value_bytes as usize)?;
        // The value bytes as the low end of a word: one eight-byte load
        // wherever the batch runs on that far (what it picks up of later
        // entries is masked out), a copy at the batch's tail.
        let word = match rest.first_chunk::<8>() {
            Some(word) => u64::from_le_bytes(*word),
            None => {
                let mut word = [0u8; 8];
                word.get_mut(..value.len())?.copy_from_slice(value);
                u64::from_le_bytes(word)
            }
        } & u64::MAX.checked_shr(64 - 8 * value_bytes).unwrap_or(0);
        let bits = match form {
            0..=8 => word.checked_shl(64 - 8 * value_bytes).unwrap_or(0),
            9..=12 => f64::from(word as u32).to_bits(),
            _ => (-f64::from(word as u32)).to_bits(),
        };
        self.bytes = rest.get(value_bytes as usize..)?;
        self.prev = local;
        Some((local, f64::from_bits(bits)))
    }
}

/// Bounds-checked little-endian cursor over one frame's payload.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).and_then(|b| <[u8; 4]>::try_from(b).ok()).map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|b| <[u8; 8]>::try_from(b).ok()).map(u64::from_le_bytes)
    }

    /// An unsigned LEB128 number of at most `bits` significant bits, as
    /// [`put_varint`] writes it.  Refused: a number cut short, one in more
    /// bytes than it needs (a last byte of zero behind the first), and one
    /// past `bits`.
    fn varint(&mut self, bits: u32) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            if shift >= bits || group.checked_shr(bits - shift).unwrap_or(0) != 0 {
                return None;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0).then_some(value);
            }
            shift += 7;
        }
    }

    fn varint_u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint(32)?).ok()
    }

    /// `count`, iff the bytes left could hold that many elements of at least
    /// `min_bytes` each: what a decoder may reserve for.
    fn room_for(&self, count: usize, min_bytes: usize) -> Option<usize> {
        let remaining = self.bytes.len().saturating_sub(self.pos);
        (count.checked_mul(min_bytes)? <= remaining).then_some(count)
    }

    /// An element count, bounded before anything is allocated for it.
    fn count(&mut self) -> Option<usize> {
        self.u32().filter(|&count| count <= MAX_COUNT).map(|count| count as usize)
    }

    /// An element count the bytes left could hold, at `min_bytes` or more an
    /// element.
    fn count_of(&mut self, min_bytes: usize) -> Option<usize> {
        let count = self.count()?;
        self.room_for(count, min_bytes)
    }

    /// One symbol binding, as [`put_bindings`] wrote it.
    fn binding(&mut self) -> Option<(u32, &'a str)> {
        let raw = self.u32()?;
        let len = self.u32()? as usize;
        Some((raw, std::str::from_utf8(self.take(len)?).ok()?))
    }

    /// A counted list of `(key, value)` symbol pairs, as [`put_label_syms`]
    /// wrote it.
    fn label_syms(&mut self) -> Option<Vec<(SymbolId, SymbolId)>> {
        let count = self.count_of(FIXED_PAIR_BYTES)?;
        self.pairs(count, Self::u32)
    }

    /// The same list in a [`REC_SERIES`] record: count and fields varints.
    fn varint_label_syms(&mut self) -> Option<Vec<(SymbolId, SymbolId)>> {
        let count = self.varint_u32().filter(|&count| count <= MAX_COUNT)? as usize;
        let count = self.room_for(count, VARINT_PAIR_MIN_BYTES)?;
        self.pairs(count, Self::varint_u32)
    }

    /// `count` pairs of `field`s; `count` is already bounded by the bytes.
    fn pairs(
        &mut self,
        count: usize,
        field: fn(&mut Self) -> Option<u32>,
    ) -> Option<Vec<(SymbolId, SymbolId)>> {
        let mut label_syms = Vec::with_capacity(count);
        for _ in 0..count {
            let k = SymbolId::from_u32(field(self)?);
            let v = SymbolId::from_u32(field(self)?);
            label_syms.push((k, v));
        }
        Some(label_syms)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Walks the frames of a file image, yielding the payload of each valid
/// frame and stopping at the first that fails to verify.  `valid_len` after
/// iteration is the salvage point.
struct FrameScanner<'a> {
    bytes: &'a [u8],
    valid_len: usize,
}

impl<'a> FrameScanner<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, valid_len: 0 }
    }

    /// The body of the next frame if its type byte is `kind` — the shape of
    /// snapshot frames.
    fn typed(&mut self, kind: u8) -> Option<&'a [u8]> {
        self.next()?.split_first().filter(|(first, _)| **first == kind).map(|(_, body)| body)
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let mut cur = Cur::new(self.bytes.get(self.valid_len..)?);
        let len = cur.u32()? as usize;
        let sum = cur.u64()?;
        let payload = cur.take(len).filter(|_| len <= MAX_RECORD_LEN)?;
        if xxh64(payload) != sum {
            return None;
        }
        self.valid_len += cur.pos;
        Some(payload)
    }
}

// ---------------------------------------------------------------------------
// Filesystem abstraction
// ---------------------------------------------------------------------------

/// One open log file: sequential appends plus durability flushes.
///
/// Implemented by `RealFs` over `std::fs::File`, by the deterministic
/// in-memory [`FaultFs`] the fault-injection suite uses, and by
/// [`FailpointWriter`], which wraps any other implementation with injected
/// failures.
pub trait WalFile: Send {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durably flushes all previous appends (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem facade the WAL writes through, so tests can substitute a
/// deterministic, fault-injecting implementation for real files.
pub trait WalFs: Send + Sync {
    /// Opens `path` for appending (creating it if absent); also returns the
    /// file's current length.
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)>;
    /// Reads the whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replaces `path` with `bytes` (tmp file + rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// The files directly inside `dir`, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Deletes `path`, durably; deleting a file that is already gone is not
    /// an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// Production [`WalFs`]: real files, `sync_data` for fsync, atomic replace
/// via tmp file + rename + best-effort parent directory sync.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RealFs;

struct RealFile {
    file: fs::File,
}

impl WalFile for RealFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Best-effort fsync of `path`'s parent directory, making a rename or an
/// unlink inside it durable.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent().and_then(|parent| fs::File::open(parent).ok()) {
        let _ = dir.sync_data();
    }
}

impl WalFs for RealFs {
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok((Box::new(RealFile { file }), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        sync_parent(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                paths.push(entry.path());
            }
        }
        Ok(paths)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Ok(()) => sync_parent(path),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When the write-ahead log calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Fsync every commit: one write **and one fsync** per round.  Every
    /// acked round survives even power loss.  The crash-exactness property
    /// tests run in this mode — it is the mode in which "acked" equals
    /// "synced".
    EveryCommit,
    /// Fsync only at checkpoints: before a snapshot is installed and when a
    /// segment is sealed (the snapshot's atomic replace is always synced).
    /// Round groups still hit the kernel with one `write` each, so they
    /// survive a process crash at full fidelity — the page cache persists —
    /// but power loss may lose the tail written since the last checkpoint.
    /// This is the default, the same trade Prometheus' WAL makes.
    #[default]
    OnRotation,
}

/// Durability configuration for [`crate::TimeSeriesDb::open_with`].
#[derive(Clone)]
pub struct DurabilityOptions {
    /// The checkpoint budget: a shard is snapshotted once it has logged this
    /// many bytes since its last snapshot (likewise the symbol table), and
    /// the active log segment is sealed once it exceeds it.
    pub segment_bytes: u64,
    /// Fsync policy; see [`FsyncMode`].
    pub fsync: FsyncMode,
    /// Filesystem implementation; tests substitute [`FaultFs`].
    pub fs: Arc<dyn WalFs>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self { segment_bytes: 4 << 20, fsync: FsyncMode::default(), fs: Arc::new(RealFs) }
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("segment_bytes", &self.segment_bytes)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// Reserves `additional` bytes of staging capacity.  Growth is the cold path
/// (buffers are retained round over round); the lock audit's no-alloc check
/// is suspended for it because staging runs under the `tsdb.shard` lock.
fn reserve_staged(buf: &mut Vec<u8>, additional: usize) {
    if buf.capacity().wrapping_sub(buf.len()) < additional {
        #[cfg(lock_audit)]
        let _allow = parking_lot::audit::allow_alloc();
        buf.reserve(additional.max(1024));
    }
}

/// One shard's staging buffer: the records of the round in progress, in the
/// order the shard applied them.
struct Stage {
    staged: Vec<u8>,
    /// Offset and shared timestamp of the currently open `REC_SAMPLES`
    /// record in `staged`, if the most recently staged record is a sample
    /// batch still accepting entries.  Consecutive same-timestamp samples
    /// of a round append to one batch; staging any other record type, a
    /// sample at a different timestamp, or the flush seals it first.
    open_samples: Option<(usize, u64)>,
    /// The local index of the open batch's latest entry, which the next one
    /// is coded against; `u32::MAX` (−1, wrapping) in a batch without one.
    prev_local: u32,
}

impl Stage {
    /// The slow half of [`ShardWriter::sample`]: makes room for an entry and
    /// opens a batch for `timestamp_ms` unless one already is.
    #[cold]
    fn open_batch(&mut self, timestamp_ms: u64) {
        reserve_staged(&mut self.staged, SAMPLE_HEADER_BYTES + SAMPLE_SLOT_BYTES);
        if self.open_samples.map(|(_, ts)| ts) != Some(timestamp_ms) {
            self.close_samples();
            self.open_samples = Some((self.staged.len(), timestamp_ms));
            self.prev_local = u32::MAX;
            self.staged.push(REC_SAMPLES);
            put_u32(&mut self.staged, 0); // body length, patched on close
            put_u64(&mut self.staged, timestamp_ms);
        }
    }

    /// Seals the open sample batch, if any: patches the length of its
    /// entries in place.
    fn close_samples(&mut self) {
        if let Some((at, _)) = self.open_samples.take() {
            let body = self.staged.len().saturating_sub(at + SAMPLE_HEADER_BYTES);
            if let Some(slot) = self.staged.get_mut(at + 1..at + 5) {
                slot.copy_from_slice(&(body as u32).to_le_bytes());
            }
        }
    }
}

/// The segment file and everything a flush updates, under `tsdb.wal.log`.
struct Log {
    /// Handle on the active segment, opened lazily by the first commit into
    /// it.
    file: Option<Box<dyn WalFile>>,
    /// Index of the active segment; sealed segments are `oldest..index`.
    index: u64,
    /// Index of the oldest segment still on disk.
    oldest: u64,
    /// Bytes in the active segment.
    size: u64,
    /// Sequence number the next group commits under.
    next_seq: u64,
    /// The group under construction; retained, so a warm flush allocates
    /// nothing.
    group: Vec<u8>,
    streams: [Stream; STREAMS],
}

/// Checkpoint bookkeeping of one stream.
#[derive(Clone, Copy, Default)]
struct Stream {
    /// Bytes logged since the stream's last checkpoint.
    logged: u64,
    /// The segment holding the stream's oldest section not yet covered by a
    /// checkpoint, `None` when it has logged nothing since.  The minimum
    /// over all streams is the oldest segment recovery still needs.
    pin: Option<u64>,
}

impl Log {
    #[expect(
        clippy::indexing_slicing,
        reason = "reduced modulo the array length, always in bounds"
    )]
    fn stream(&mut self, stream: usize) -> &mut Stream {
        &mut self.streams[stream % STREAMS]
    }

    /// Accounts a section of `bytes` for `stream`, written into (or, during
    /// recovery, found in) segment `index`.
    fn note_section(&mut self, stream: usize, index: u64, bytes: u64) {
        let stream = self.stream(stream);
        stream.logged += bytes;
        stream.pin.get_or_insert(index);
    }

    /// Accounts one group's fixed bytes.  They are charged to the symbol
    /// stream's budget (without pinning anything): a workload that only
    /// *releases* symbols binds nothing, and would otherwise never reach the
    /// checkpoint whose sweep reclaims them.
    fn note_group(&mut self) {
        self.stream(SYMBOLS).logged += GROUP_HEADER_BYTES as u64;
    }

    /// Whether `stream` is due a checkpoint: past its byte budget, or pinning
    /// a segment too far behind the active one.
    fn due(&mut self, stream: usize, segment_bytes: u64) -> bool {
        let index = self.index;
        let stream = self.stream(stream);
        stream.logged > segment_bytes
            || stream.pin.is_some_and(|pin| index.saturating_sub(pin) >= MAX_SEGMENT_LAG)
    }
}

/// Bit in [`Wal::failed`] marking the log itself broken (shard bits are
/// `1 << shard`).
const LOG_FAILED_BIT: u64 = 1 << 63;

const SYMBOLS_SNAP: &str = "symbols.snap";

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.log"))
}

/// The index in a segment file name, `None` for any other file.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?.strip_suffix(".log")?.parse().ok()
}

fn shard_snap_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.snap"))
}

/// The write-ahead log of one durable [`crate::TimeSeriesDb`].
pub(crate) struct Wal {
    fs: Arc<dyn WalFs>,
    fsync: FsyncMode,
    segment_bytes: u64,
    dir: PathBuf,
    /// Failure bits: `1 << shard` for a shard whose snapshot or replay was
    /// unusable, [`LOG_FAILED_BIT`] once a write, fsync or salvage failed.
    /// Sticky — a failed log is never written again.
    failed: AtomicU64,
    log: Mutex<Log>,
    stages: [Mutex<Stage>; SHARD_COUNT],
}

impl Wal {
    /// Marks `shard` broken (sticky): nothing further is staged for it, and
    /// it is counted in [`Wal::failed_shard_count`].  Used by the storage
    /// layer when a shard's recovered state fails validation during replay.
    pub(crate) fn mark_shard_failed(&self, shard: usize) {
        if shard < SHARD_COUNT {
            self.failed.fetch_or(1 << shard, Ordering::Relaxed);
        }
    }

    fn mark_log_failed(&self) {
        self.failed.fetch_or(LOG_FAILED_BIT, Ordering::Relaxed);
    }

    fn log_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed) & LOG_FAILED_BIT != 0
    }

    fn shard_failed(&self, shard: usize) -> bool {
        let mask = self.failed.load(Ordering::Relaxed);
        mask & LOG_FAILED_BIT != 0 || shard < SHARD_COUNT && mask & (1 << shard) != 0
    }

    /// Number of shards currently flagged as failed (all of them once the
    /// log is broken) — surfaced in [`crate::StorageStats`].
    pub(crate) fn failed_shard_count(&self) -> u64 {
        let mask = self.failed.load(Ordering::Relaxed);
        if mask & LOG_FAILED_BIT != 0 {
            SHARD_COUNT as u64
        } else {
            u64::from((mask & ((1 << SHARD_COUNT) - 1)).count_ones())
        }
    }

    /// A staging handle for `shard`, or `None` once the shard (or the log)
    /// has failed.  Locks the shard's `tsdb.wal.shard` mutex — the caller
    /// already holds the matching `tsdb.shard` lock.
    pub(crate) fn shard_writer(&self, shard: usize) -> Option<ShardWriter<'_>> {
        if self.shard_failed(shard) {
            return None;
        }
        Some(ShardWriter(self.stages.get(shard)?.lock()))
    }

    /// Whether nothing is staged for `shard`.  Called with the `tsdb.shard`
    /// lock held — so nothing *can* be staged meanwhile — by the checkpoint's
    /// snapshot: an idle stage then means the shard's in-memory state is
    /// exactly what the log holds for it.
    pub(crate) fn stage_idle(&self, shard: usize) -> bool {
        self.stages.get(shard).is_some_and(|stage| stage.lock().staged.is_empty())
    }

    /// Commits everything staged since the last flush as one group — drain,
    /// one checksum, one write — then runs whatever checkpoints have come
    /// due.  `snapshot_shard(shard, seq)` is the storage layer's half of a
    /// shard checkpoint: the encoded state of `shard` as of round `seq`, or
    /// `None` to defer (its stage was not idle).
    ///
    /// Returns `false` once the log or any shard has failed, this round or
    /// earlier.  The log lock is held throughout, which makes this the
    /// single flusher crash-exactness is defined for; appends racing it from
    /// other threads stay safe, because a record is either in the buffer a
    /// group drained — and then inside that group's frame — or it waits for
    /// the next one.
    pub(crate) fn flush(
        &self,
        symbols: &RwLock<SymbolTable>,
        snapshot_shard: &dyn Fn(usize, u64) -> Option<Vec<u8>>,
    ) -> bool {
        let watch = Stopwatch::start();
        let mut log = self.log.lock();
        if !self.log_failed() {
            match self.commit(&mut log, symbols) {
                Ok(Some(seq)) => self.checkpoint(&mut log, seq, symbols, snapshot_shard),
                Ok(None) => {}
                Err(_) => self.mark_log_failed(),
            }
        }
        probes::WAL_FLUSH_NS.record_ns(watch.elapsed_ns());
        self.failed.load(Ordering::Relaxed) == 0
    }

    /// Builds and writes the round's group; `Ok(None)` when nothing was
    /// staged.  The symbol delta is captured *after* the stages are drained,
    /// so every symbol a drained record references is bound in this group or
    /// an earlier one.  Draining the dirty list before the write is safe: a
    /// failed write fails the log (sticky), so the lost delta can never be
    /// missed by a later flush.
    fn commit(&self, log: &mut Log, symbols: &RwLock<SymbolTable>) -> io::Result<Option<u64>> {
        let seq = log.next_seq;
        let index = log.index;
        log.group.clear();
        let at = begin_frame(&mut log.group);
        put_u64(&mut log.group, seq);
        for (shard, slot) in self.stages.iter().enumerate() {
            let mut stage = slot.lock();
            if stage.staged.is_empty() {
                continue;
            }
            stage.close_samples();
            log.group.push(shard as u8);
            put_u32(&mut log.group, stage.staged.len() as u32);
            log.group.extend_from_slice(&stage.staged);
            log.note_section(shard, index, (SECTION_HEADER_BYTES + stage.staged.len()) as u64);
            stage.staged.clear();
        }
        let bound = symbols.write().take_dirty_bindings();
        if !bound.is_empty() {
            let body: usize = bound.iter().map(|(_, s)| 8 + s.len()).sum();
            log.group.push(SYMBOLS as u8);
            put_u32(&mut log.group, body as u32);
            put_bindings(&mut log.group, &bound);
            log.note_section(SYMBOLS, index, (SECTION_HEADER_BYTES + body) as u64);
        }
        if log.group.len() == GROUP_HEADER_BYTES {
            return Ok(None);
        }
        end_frame(&mut log.group, at);
        log.note_group();

        let Log { file, group, size, .. } = &mut *log;
        let file = match file {
            Some(file) => file,
            None => {
                let (handle, len) = self.fs.open_append(&segment_path(&self.dir, index))?;
                *size = len;
                file.insert(handle)
            }
        };
        file.append(group)?;
        probes::WAL_WRITES.inc();
        probes::WAL_BYTES_WRITTEN.add(group.len() as u64);
        if self.fsync == FsyncMode::EveryCommit {
            sync(file.as_mut())?;
        }
        *size += group.len() as u64;
        log.next_seq = seq + 1;
        // Age the symbol-GC cooling queue: zero-ref bindings become
        // sweepable only after two of these boundaries, which guarantees
        // the shard record that released them is durable first.
        symbols.write().commit_durable();
        Ok(Some(seq))
    }

    /// Runs the checkpoints that came due with round `seq`, seals the active
    /// segment if it is full and deletes the segments nothing needs any
    /// more.  Every crash point is safe: a snapshot replaces atomically and
    /// only ever makes sections at or below its `base_seq` redundant, and a
    /// segment is deleted only once every section in it is redundant.  A
    /// failed snapshot write changes nothing and is retried next round.
    fn checkpoint(
        &self,
        log: &mut Log,
        seq: u64,
        symbols: &RwLock<SymbolTable>,
        snapshot_shard: &dyn Fn(usize, u64) -> Option<Vec<u8>>,
    ) {
        // Whether every byte of the log is already fsynced.  A snapshot must
        // not become durable ahead of the groups it stands on: the symbols
        // it references, or the drop records that made a sweep legal, may
        // still sit in the page cache.
        let mut synced = self.fsync == FsyncMode::EveryCommit;
        for shard in 0..SHARD_COUNT {
            if !log.due(shard, self.segment_bytes) {
                continue;
            }
            let Some(snapshot) = snapshot_shard(shard, seq) else { continue };
            if self.install(log, &mut synced, &shard_snap_path(&self.dir, shard), &snapshot) {
                *log.stream(shard) = Stream::default();
            }
        }
        if log.due(SYMBOLS, self.segment_bytes) {
            // The checkpoint is the only GC point, so a snapshot is always a
            // self-consistent table.  The symbol write lock is held across
            // the install so no binding can be interned between the capture
            // and the `clear_dirty` that declares every pending delta
            // subsumed by it.  Sweeping before an install that then fails is
            // safe: the stale snapshot merely carries extra unreferenced
            // bindings, which the next recovery parks back in the cooling
            // queue.
            let mut table = symbols.write();
            let swept = table.sweep();
            probes::SYMBOLS_SWEPT.add(swept as u64);
            let snapshot = encode_symbols_snapshot(&table, seq);
            if self.install(log, &mut synced, &self.dir.join(SYMBOLS_SNAP), &snapshot) {
                table.clear_dirty();
                *log.stream(SYMBOLS) = Stream::default();
            }
        }
        if log.size > self.segment_bytes {
            // Sealed segments are never synced again, so this one must be
            // durable before a later checkpoint relies on it.
            if !self.sync_log(log, &mut synced) {
                return;
            }
            log.file = None;
            log.index += 1;
            log.size = 0;
        }
        let pinned = log.streams.iter().filter_map(|stream| stream.pin).min();
        let keep = pinned.map_or(log.index, |pin| pin.min(log.index));
        while log.oldest < keep
            && !self.log_failed()
            && self.fs.remove(&segment_path(&self.dir, log.oldest)).is_ok()
        {
            log.oldest += 1;
        }
    }

    /// Fsyncs the active segment unless `*synced` says nothing in it is
    /// unsynced.  `false` once the log has failed — an fsync error fails it.
    fn sync_log(&self, log: &mut Log, synced: &mut bool) -> bool {
        if !*synced && log.file.as_mut().is_some_and(|file| sync(file.as_mut()).is_err()) {
            self.mark_log_failed();
        }
        *synced = true;
        !self.log_failed()
    }

    /// Installs one snapshot image, fsyncing the log first.  `false` when
    /// nothing was installed.
    fn install(&self, log: &mut Log, synced: &mut bool, path: &Path, image: &[u8]) -> bool {
        self.sync_log(log, synced) && self.fs.write_atomic(path, image).is_ok()
    }
}

/// One timed fsync.
fn sync(file: &mut dyn WalFile) -> io::Result<()> {
    let watch = Stopwatch::start();
    file.sync()?;
    probes::WAL_FSYNC_NS.record_ns(watch.elapsed_ns());
    Ok(())
}

/// Staging handle for one shard's WAL buffer, held alongside the shard's
/// data lock while a round's mutations are applied.
pub(crate) struct ShardWriter<'a>(MutexGuard<'a, Stage>);

impl ShardWriter<'_> {
    /// Seals any open sample batch and reserves room for a record of `need`
    /// bytes.
    fn begin(&mut self, need: usize) -> &mut Vec<u8> {
        self.0.close_samples();
        reserve_staged(&mut self.0.staged, need);
        &mut self.0.staged
    }

    /// Stages a series-creation record, every field a varint: a six-label
    /// series whose id and symbols sit below 2^14 takes at most 30 bytes,
    /// where the fixed-width record of earlier versions took 65.
    pub(crate) fn series(
        &mut self,
        id: u64,
        name_sym: SymbolId,
        label_syms: &[(SymbolId, SymbolId)],
    ) {
        let buf = self.begin(SERIES_HEADER_MAX_BYTES + label_syms.len() * SERIES_PAIR_MAX_BYTES);
        buf.push(REC_SERIES);
        put_varint(buf, id);
        put_varint(buf, name_sym.as_u32().into());
        put_varint(buf, label_syms.len() as u64);
        for (k, v) in label_syms {
            put_varint(buf, k.as_u32().into());
            put_varint(buf, v.as_u32().into());
        }
    }

    /// Stages one attempted append (accepted *or* rejected — replay re-runs
    /// the same ingest logic, so rejection is reproduced, not recorded).
    /// Consecutive samples at the same timestamp share one `REC_SAMPLES`
    /// batch, sealed when another record type (or a different timestamp) is
    /// staged or the round flushes — the per-sample cost is one packed entry
    /// ([`pack_sample`]), with the timestamp paid once per batch.
    #[inline]
    pub(crate) fn sample(&mut self, local: u32, timestamp_ms: u64, value: f64) {
        let stage = &mut *self.0;
        let spare = stage.staged.capacity() - stage.staged.len();
        if spare < SAMPLE_SLOT_BYTES || stage.open_samples.map(|(_, ts)| ts) != Some(timestamp_ms) {
            stage.open_batch(timestamp_ms);
        }
        let (slot, len) = pack_sample(stage.prev_local, local, value);
        stage.prev_local = local;
        // Copy the whole slot — a fixed-size store where the entry's own
        // length would be a `memcpy` call — and cut back to the entry.
        let end = stage.staged.len() + len;
        stage.staged.extend_from_slice(&slot);
        stage.staged.truncate(end);
    }

    /// Whether this shard has staged more than [`STAGE_FLUSH_BYTES`]: the
    /// caller then commits the round itself — [`crate::TimeSeriesDb::wal_flush`],
    /// *after* it released the shard lock this handle is held under —
    /// instead of leaving it to a driver that may never come.
    pub(crate) fn over_budget(&self) -> bool {
        self.0.staged.len() > STAGE_FLUSH_BYTES
    }

    /// Stages a drop of the series at `victims` (pre-removal local indexes,
    /// ascending — the same order the live path removes them in).
    pub(crate) fn drop_locals(&mut self, victims: &[u32]) {
        let buf = self.begin(5 + victims.len() * 4);
        buf.push(REC_DROP);
        put_u32(buf, victims.len() as u32);
        for v in victims {
            put_u32(buf, *v);
        }
    }

    /// Stages a retention pass at `cutoff_ms`.
    pub(crate) fn retention(&mut self, cutoff_ms: u64) {
        let buf = self.begin(9);
        buf.push(REC_RETENTION);
        put_u64(buf, cutoff_ms);
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Borrowed view of one series, assembled by the storage layer for
/// [`encode_shard_snapshot`].
pub(crate) struct SnapSeriesRef<'a> {
    pub(crate) id: u64,
    pub(crate) name_sym: SymbolId,
    pub(crate) label_syms: &'a [(SymbolId, SymbolId)],
    pub(crate) ever_appended: bool,
    /// The open head, `None` for a series that has none.
    pub(crate) head: Option<&'a Head>,
    pub(crate) sealed: &'a Sealed,
}

/// Chunk payload kind tags inside snapshot records: plain samples, or a
/// block of one of the codec's two kinds.  Tags 3 (XOR) and 4 (integer) are
/// the blocks written today, which leave their first timestamp to the
/// record (see [`crate::chunk_codec`]).  Tags 1 (XOR) and 2 (integer) are
/// blocks of the older form, which open with it: directories written before
/// hold them, and recovery reads them with [`chunk_codec::decode_legacy`]
/// and seals them again in today's form ([`reseal`]).
const CHUNK_RAW: u8 = 0;
const CHUNK_LEGACY_XOR: u8 = 1;
const CHUNK_LEGACY_INTEGER: u8 = 2;
const CHUNK_XOR: u8 = 3;
const CHUNK_INTEGER: u8 = 4;

fn block_tag(kind: BlockKind) -> u8 {
    match kind {
        BlockKind::Xor => CHUNK_XOR,
        BlockKind::Integer => CHUNK_INTEGER,
    }
}

/// The kind of block `tag` marks and whether it is of the older form,
/// `None` for a raw run or an unknown tag.
fn block_kind(tag: u8) -> Option<(BlockKind, bool)> {
    match tag {
        CHUNK_XOR => Some((BlockKind::Xor, false)),
        CHUNK_INTEGER => Some((BlockKind::Integer, false)),
        CHUNK_LEGACY_XOR => Some((BlockKind::Xor, true)),
        CHUNK_LEGACY_INTEGER => Some((BlockKind::Integer, true)),
        _ => None,
    }
}

/// Whether a block behind `tag` of `len` bytes can hold `count` samples.
/// The first sample takes 64 bits in an XOR block (its raw value), one at
/// the least in an integer block (a zero), 128 in a block of the older form
/// (timestamp and value, raw); the second 16 at the least (a 15-bit first
/// delta and a one-bit value), two in the older form (a one-bit `Δ²`); and
/// every later one at least two (a one-bit timestamp `Δ²`, a one-bit value,
/// in either kind).  A count is believed — allocated for, decoded up to —
/// only once it has passed this.
fn block_can_hold(tag: u8, len: usize, count: usize) -> bool {
    let (first, second) = match tag {
        CHUNK_XOR => (64, 16),
        CHUNK_INTEGER => (1, 16),
        _ => (128, 2),
    };
    let least_bits = match count {
        0 => 0,
        1 => first,
        n => first + second + 2 * (n - 2),
    };
    least_bits <= len.saturating_mul(8)
}

/// The samples of a block behind `tag` holding `count` of them, read off
/// `cur`: its start (today's form only), its length and its bytes.  `None`
/// where the bytes cannot hold the count.
fn take_block(cur: &mut Cur<'_>, tag: u8, count: usize) -> Option<Vec<Sample>> {
    let (kind, legacy) = block_kind(tag)?;
    let start_ms = if legacy { 0 } else { cur.u64()? };
    let len = cur.u32()? as usize;
    let block = cur.take(len)?;
    if !block_can_hold(tag, len, count) {
        return None;
    }
    Some(if legacy {
        chunk_codec::decode_legacy(block, kind, count)
    } else {
        chunk_codec::decode(block, kind, start_ms, count)
    })
}

/// A sealed chunk of the older form sealed again in today's: the block of
/// its `samples` ([`chunk_codec::encode`]: of the kind their values call
/// for), or their raw run where the block would be larger — the rule a seal
/// applies — with `None` for its kind.  `None` unless the samples run in
/// order from the footer's `start_ms` to its `end_ms`.
fn reseal(samples: &[Sample], start_ms: u64, end_ms: u64) -> Option<(Option<BlockKind>, Vec<u8>)> {
    let ends = (samples.first()?.timestamp_ms, samples.last()?.timestamp_ms);
    if ends != (start_ms, end_ms) {
        return None;
    }
    let (kind, block) = chunk_codec::encode(samples)?;
    if block.len() <= samples.len() * SAMPLE_BYTES {
        return Some((Some(kind), block));
    }
    let mut raw = vec![0; samples.len() * SAMPLE_BYTES];
    put_raw(samples, &mut raw);
    Some((None, raw))
}

/// Encodes a shard's full state as a snapshot file image: header, one record
/// per series (heads Gorilla-compressed where the codec accepts them, sealed
/// chunk payloads carried byte-identically), and a footer whose series count
/// proves the file complete.
pub(crate) fn encode_shard_snapshot(
    base_seq: u64,
    generation: u64,
    rejected: u64,
    series: &[SnapSeriesRef<'_>],
) -> Vec<u8> {
    let mut buf = Vec::new();
    let at = begin_frame(&mut buf);
    buf.push(REC_SNAP_HEADER);
    put_u64(&mut buf, base_seq);
    put_u64(&mut buf, generation);
    put_u64(&mut buf, rejected);
    put_u32(&mut buf, series.len() as u32);
    end_frame(&mut buf, at);

    let mut block = Vec::new();
    for s in series {
        let at = begin_frame(&mut buf);
        buf.push(REC_SNAP_SERIES);
        put_u64(&mut buf, s.id);
        put_u32(&mut buf, s.name_sym.as_u32());
        buf.push(u8::from(s.ever_appended));
        put_label_syms(&mut buf, s.label_syms);
        // Head: its samples as one Gorilla block (the block it is building,
        // completed with its tail) behind its start, an empty raw run when
        // it holds none.
        put_u32(&mut buf, s.head.map_or(0, Head::len) as u32);
        let head =
            s.head.and_then(|head| Some((head.encode_into(&mut block)?, head.first_timestamp()?)));
        if let Some((kind, start_ms)) = head {
            buf.push(block_tag(kind));
            put_u64(&mut buf, start_ms);
            put_u32(&mut buf, block.len() as u32);
            buf.extend_from_slice(&block);
        } else {
            buf.push(CHUNK_RAW);
        }
        // Sealed chunks, payloads verbatim so reopen is byte-identical (a
        // raw payload is already the little-endian run written here).
        put_u32(&mut buf, s.sealed.chunk_count() as u32);
        for chunk in s.sealed.chunks() {
            buf.push(match chunk.payload {
                Payload::Raw(_) => CHUNK_RAW,
                Payload::Block(kind, _) => block_tag(kind),
            });
            put_u32(&mut buf, chunk.count);
            put_u64(&mut buf, chunk.start_ms);
            put_u64(&mut buf, chunk.end_ms);
            put_u32(&mut buf, chunk.data_bytes() as u32);
            buf.extend_from_slice(chunk.payload.bytes());
        }
        end_frame(&mut buf, at);
    }

    let at = begin_frame(&mut buf);
    buf.push(REC_SNAP_FOOTER);
    put_u32(&mut buf, series.len() as u32);
    end_frame(&mut buf, at);
    buf
}

/// One series restored from a shard snapshot.
pub(crate) struct SnapSeries {
    pub(crate) id: u64,
    pub(crate) name_sym: SymbolId,
    pub(crate) label_syms: Vec<(SymbolId, SymbolId)>,
    pub(crate) ever_appended: bool,
    pub(crate) head: Vec<Sample>,
    pub(crate) sealed: Sealed,
}

/// A decoded shard snapshot: the state as of round `base_seq`.
pub(crate) struct ShardSnapshot {
    pub(crate) base_seq: u64,
    pub(crate) generation: u64,
    pub(crate) rejected: u64,
    pub(crate) series: Vec<SnapSeries>,
}

/// `count` raw samples — taken as bytes first, so nothing is allocated for
/// a count the payload does not hold.
fn take_samples(cur: &mut Cur<'_>, count: usize) -> Option<Vec<Sample>> {
    let mut run = Cur::new(cur.take(count.checked_mul(16)?)?);
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let timestamp_ms = run.u64()?;
        let value = f64::from_bits(run.u64()?);
        samples.push(Sample { timestamp_ms, value });
    }
    Some(samples)
}

fn decode_snap_series(payload: &[u8]) -> Option<SnapSeries> {
    let mut cur = Cur::new(payload);
    let id = cur.u64()?;
    let name_sym = SymbolId::from_u32(cur.u32()?);
    let ever_appended = cur.u8()? != 0;
    let label_syms = cur.label_syms()?;
    let head_count = cur.count()?;
    let head = match cur.u8()? {
        CHUNK_RAW => take_samples(&mut cur, head_count)?,
        tag => take_block(&mut cur, tag, head_count)?,
    };
    let sealed_count = cur.count_of(SEALED_CHUNK_MIN_BYTES)?;
    // Each chunk's footer and payload: borrowed from the record, or sealed
    // again here when it is a block of the older form.
    let mut held = Vec::with_capacity(sealed_count);
    for _ in 0..sealed_count {
        let tag = cur.u8()?;
        let count = cur.count()?;
        let start_ms = cur.u64()?;
        let end_ms = cur.u64()?;
        let (kind, payload) = match block_kind(tag) {
            Some((_, true)) => {
                let samples = take_block(&mut cur, tag, count)?;
                let (kind, bytes) = reseal(&samples, start_ms, end_ms)?;
                (kind, Cow::Owned(bytes))
            }
            kind => {
                let len = cur.u32()? as usize;
                let fits = match kind {
                    None => tag == CHUNK_RAW && len == count * 16,
                    Some(_) => block_can_hold(tag, len, count),
                };
                if !fits {
                    return None;
                }
                (kind.map(|(kind, _)| kind), Cow::Borrowed(cur.take(len)?))
            }
        };
        held.push((start_ms, end_ms, count as u32, kind, payload));
    }
    let sealed: Vec<Chunk<'_>> = held
        .iter()
        .map(|(start_ms, end_ms, count, kind, bytes)| {
            let payload = match kind {
                Some(kind) => Payload::Block(*kind, bytes),
                None => Payload::Raw(bytes),
            };
            Chunk { start_ms: *start_ms, end_ms: *end_ms, count: *count, payload }
        })
        .collect();
    let sealed = Sealed::from_chunks(&sealed);
    cur.done().then_some(SnapSeries { id, name_sym, label_syms, ever_appended, head, sealed })
}

fn decode_shard_snapshot(bytes: &[u8]) -> Option<ShardSnapshot> {
    let mut scanner = FrameScanner::new(bytes);
    let mut cur = Cur::new(scanner.typed(REC_SNAP_HEADER)?);
    let base_seq = cur.u64()?;
    let generation = cur.u64()?;
    let rejected = cur.u64()?;
    let series_count = cur.count()?;
    // The series frames follow the header: room for that many of them first.
    let frames = Cur { bytes, pos: scanner.valid_len };
    if !cur.done() || frames.room_for(series_count, SNAP_SERIES_MIN_BYTES).is_none() {
        return None;
    }
    let mut series = Vec::with_capacity(series_count);
    for _ in 0..series_count {
        series.push(decode_snap_series(scanner.typed(REC_SNAP_SERIES)?)?);
    }
    let mut cur = Cur::new(scanner.typed(REC_SNAP_FOOTER)?);
    if cur.count()? != series_count || !cur.done() || scanner.valid_len != bytes.len() {
        return None;
    }
    Some(ShardSnapshot { base_seq, generation, rejected, series })
}

/// Encodes the symbol table as a snapshot file image: every live
/// `(slot, string)` binding as of round `base_seq`.
fn encode_symbols_snapshot(table: &SymbolTable, base_seq: u64) -> Vec<u8> {
    let live = table.live_bindings();
    let mut buf = Vec::new();
    let at = begin_frame(&mut buf);
    buf.push(REC_SNAP_SYMBOLS);
    put_u64(&mut buf, base_seq);
    put_u32(&mut buf, live.len() as u32);
    put_bindings(&mut buf, &live);
    end_frame(&mut buf, at);
    buf
}

/// Decodes a symbols snapshot into its `base_seq` and bindings.
fn decode_symbols_snapshot(bytes: &[u8]) -> Option<(u64, Vec<(u32, &str)>)> {
    let mut scanner = FrameScanner::new(bytes);
    let mut cur = Cur::new(scanner.typed(REC_SNAP_SYMBOLS)?);
    let base_seq = cur.u64()?;
    let count = cur.count_of(BINDING_MIN_BYTES)?;
    let mut bindings = Vec::with_capacity(count);
    for _ in 0..count {
        bindings.push(cur.binding()?);
    }
    (cur.done() && scanner.valid_len == bytes.len()).then_some((base_seq, bindings))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// One replayable shard record.
pub(crate) enum ShardOp<'a> {
    /// Series creation.
    Series { id: u64, name_sym: SymbolId, label_syms: Vec<(SymbolId, SymbolId)> },
    /// A batch of `count` attempted appends at one timestamp (replay re-runs
    /// acceptance), decoded as `entries` is iterated.
    Samples { timestamp_ms: u64, count: usize, entries: SampleEntries<'a> },
    /// `drop_series` removal of these pre-removal local indexes.
    Drop { victims: Vec<u32> },
    /// Retention pass at this cutoff.
    Retention { cutoff_ms: u64 },
}

/// What [`Wal::open`] recovered, handed to the storage layer one item at a
/// time, in this order: the symbols snapshot's bindings, every readable
/// shard snapshot, then the log's groups in commit order — within a
/// group the symbol binds first.  A slot may be bound more than once (a
/// swept-and-reused slot is legitimately rebound); the **last** binding
/// wins, exactly as the live table ended.
pub(crate) enum Replay<'a> {
    /// A symbol binding: `(slot, string)`.
    Binding(u32, &'a str),
    /// A shard's snapshot; it precedes every op of that shard.
    Snapshot(usize, ShardSnapshot),
    /// One logged op of a shard, from a round past its snapshot.
    Op(usize, ShardOp<'a>),
}

/// One decoded log group.
struct Group<'a> {
    seq: u64,
    bindings: Vec<(u32, &'a str)>,
    ops: Vec<(usize, ShardOp<'a>)>,
    /// Per stream: bytes of its section, header included; `0` without one.
    section_bytes: [u64; STREAMS],
}

/// Decodes one checksum-valid group payload.  `None` when it fails
/// structural validation — the group is then no more trustworthy than a
/// torn one.
fn decode_group(payload: &[u8]) -> Option<Group<'_>> {
    let mut cur = Cur::new(payload);
    let mut group = Group {
        seq: cur.u64()?,
        bindings: Vec::new(),
        ops: Vec::new(),
        section_bytes: [0; STREAMS],
    };
    while !cur.done() {
        let stream = usize::from(cur.u8()?);
        let len = cur.u32()? as usize;
        let mut body = Cur::new(cur.take(len)?);
        let slot = group.section_bytes.get_mut(stream).filter(|bytes| **bytes == 0)?;
        *slot = (SECTION_HEADER_BYTES + len) as u64;
        while !body.done() {
            if stream == SYMBOLS {
                group.bindings.push(body.binding()?);
            } else {
                group.ops.push((stream, decode_shard_op(&mut body)?));
            }
        }
    }
    Some(group)
}

/// Decodes the shard record at `cur`.
fn decode_shard_op<'a>(cur: &mut Cur<'a>) -> Option<ShardOp<'a>> {
    Some(match cur.u8()? {
        REC_SERIES => {
            let id = cur.varint(64)?;
            let name_sym = SymbolId::from_u32(cur.varint_u32()?);
            ShardOp::Series { id, name_sym, label_syms: cur.varint_label_syms()? }
        }
        REC_SERIES_V1 => {
            let id = cur.u64()?;
            let name_sym = SymbolId::from_u32(cur.u32()?);
            ShardOp::Series { id, name_sym, label_syms: cur.label_syms()? }
        }
        // The batch is walked to exactly its length here, so a malformed
        // entry refuses the whole group before any of it is applied.
        kind @ (REC_SAMPLES | REC_SAMPLES_V1) => {
            let packed = kind == REC_SAMPLES;
            let len =
                if packed { cur.u32()? as usize } else { cur.count()? * SAMPLE_V1_ENTRY_BYTES };
            let timestamp_ms = cur.u64()?;
            let (entries, count) = SampleEntries::validated(cur.take(len)?, packed)?;
            ShardOp::Samples { timestamp_ms, count, entries }
        }
        REC_DROP => {
            let count = cur.count_of(VICTIM_BYTES)?;
            let mut victims = Vec::with_capacity(count);
            for _ in 0..count {
                victims.push(cur.u32()?);
            }
            ShardOp::Drop { victims }
        }
        REC_RETENTION => ShardOp::Retention { cutoff_ms: cur.u64()? },
        _ => return None,
    })
}

/// Counts a salvage event: `dropped` bytes did not survive validation and
/// are being cut off.
fn note_salvage(dropped: u64) {
    probes::WAL_SALVAGE.inc();
    probes::WAL_SALVAGED_BYTES.add(dropped);
}

impl Wal {
    /// Opens (or creates) the durability directory and feeds everything it
    /// recovers to `replay`.  Never panics on corrupt input: a damaged log
    /// tail is salvaged by truncation, an unreadable shard snapshot fails
    /// only that shard, and an unreadable symbols snapshot fails the whole
    /// log (symbols are global) — in every case the database still opens.
    /// `Err` is reserved for I/O errors on the directory itself and for a
    /// directory written in the per-shard layout of earlier versions
    /// ([`io::ErrorKind::InvalidData`]): opening empty on top of it would
    /// silently abandon its data.
    pub(crate) fn open(
        dir: &Path,
        options: &DurabilityOptions,
        replay: &mut dyn FnMut(Replay<'_>),
    ) -> io::Result<Self> {
        let fs = Arc::clone(&options.fs);
        fs.create_dir_all(dir)?;
        let mut segments: Vec<u64> = Vec::new();
        for path in fs.list(dir)? {
            let Some(name) = path.file_name().and_then(|name| name.to_str()) else { continue };
            if name == "meta.wal" || name.starts_with("shard-") && name.ends_with(".wal") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds a write-ahead log in the per-shard layout ({name}), \
                         which this version cannot read",
                        dir.display()
                    ),
                ));
            }
            if name.ends_with(".tmp") {
                // Left behind by an atomic replace that died before its
                // rename; the file it was to replace is still intact.
                fs.remove(&path)?;
            } else if let Some(index) = segment_index(name) {
                segments.push(index);
            }
        }
        segments.sort_unstable();

        // Per stream: the round its snapshot covers; `u64::MAX` for a shard
        // whose snapshot is unreadable, so none of its sections apply.
        let mut base = [0u64; STREAMS];
        let mut failed = 0u64;
        let mut newest = 0u64;
        if let Some(bytes) = fs.read(&dir.join(SYMBOLS_SNAP))? {
            match decode_symbols_snapshot(&bytes) {
                Some((base_seq, bindings)) => {
                    newest = base_seq;
                    if let Some(slot) = base.get_mut(SYMBOLS) {
                        *slot = base_seq;
                    }
                    for (raw, s) in bindings {
                        replay(Replay::Binding(raw, s));
                    }
                }
                None => {
                    // Without the symbol table nothing referencing it can
                    // be trusted.
                    note_salvage(bytes.len() as u64);
                    failed = LOG_FAILED_BIT;
                }
            }
        }
        let first = segments.first().copied().unwrap_or(1);
        let mut log = Log {
            file: None,
            index: first,
            oldest: first,
            size: 0,
            next_seq: 0,
            group: Vec::new(),
            streams: [Stream::default(); STREAMS],
        };
        if failed == 0 {
            for (shard, slot) in base.iter_mut().take(SHARD_COUNT).enumerate() {
                let Some(bytes) = fs.read(&shard_snap_path(dir, shard))? else { continue };
                match decode_shard_snapshot(&bytes) {
                    Some(snapshot) => {
                        *slot = snapshot.base_seq;
                        newest = newest.max(snapshot.base_seq);
                        replay(Replay::Snapshot(shard, snapshot));
                    }
                    None => {
                        note_salvage(bytes.len() as u64);
                        *slot = u64::MAX;
                        failed |= 1 << shard;
                    }
                }
            }
            if !Self::replay_segments(&*fs, dir, &segments, &base, &mut log, &mut newest, replay)? {
                failed |= LOG_FAILED_BIT;
            }
        }
        // Past every group *and* every snapshot: under `OnRotation` a power
        // loss can leave a snapshot ahead of the log's surviving tail, and a
        // group reusing a sequence number at or below its base would be
        // skipped on the next recovery.
        log.next_seq = newest + 1;
        Ok(Wal {
            fs,
            fsync: options.fsync,
            segment_bytes: options.segment_bytes,
            dir: dir.to_path_buf(),
            failed: AtomicU64::new(failed),
            log: Mutex::named(log, LockClass::new("tsdb.wal.log")),
            stages: std::array::from_fn(|i| {
                Mutex::named(
                    Stage { staged: Vec::new(), open_samples: None, prev_local: u32::MAX },
                    LockClass::new("tsdb.wal.shard").instance(i as u32),
                )
            }),
        })
    }

    /// Scans `segments` in order, applying each group's sections to the
    /// streams whose snapshot it is past and rebuilding the checkpoint
    /// bookkeeping in `log`.  The first frame that fails its length, its
    /// checksum, structural decoding or the strictly increasing sequence is
    /// the salvage point: the segment is cut back to its valid prefix and
    /// every later segment deleted — newest first, so an interrupted salvage
    /// leaves a directory the next open salvages the same way.  `Ok(false)`
    /// when the salvage itself failed, which fails the log.
    fn replay_segments(
        fs: &dyn WalFs,
        dir: &Path,
        segments: &[u64],
        base: &[u64; STREAMS],
        log: &mut Log,
        newest: &mut u64,
        replay: &mut dyn FnMut(Replay<'_>),
    ) -> io::Result<bool> {
        let mut last_seq = 0u64;
        for (pos, &index) in segments.iter().enumerate() {
            let path = segment_path(dir, index);
            let bytes = fs.read(&path)?.unwrap_or_default();
            let mut scanner = FrameScanner::new(&bytes);
            let mut valid = 0;
            while let Some(group) = scanner.next().and_then(decode_group) {
                if group.seq <= last_seq {
                    break;
                }
                valid = scanner.valid_len;
                last_seq = group.seq;
                let past = |stream: usize| base.get(stream).is_some_and(|&base| last_seq > base);
                for (stream, &bytes) in group.section_bytes.iter().enumerate() {
                    if bytes > 0 && past(stream) {
                        log.note_section(stream, index, bytes);
                    }
                }
                if past(SYMBOLS) {
                    log.note_group();
                    for &(raw, s) in &group.bindings {
                        replay(Replay::Binding(raw, s));
                    }
                }
                let mut replayed = 0;
                for (shard, op) in group.ops {
                    if past(shard) {
                        replayed += match op {
                            ShardOp::Samples { count, .. } => count,
                            _ => 1,
                        };
                        replay(Replay::Op(shard, op));
                    }
                }
                probes::WAL_RECORDS_REPLAYED.add(replayed as u64);
            }
            log.index = index;
            log.size = valid as u64;
            if valid < bytes.len() {
                for &later in segments.get(pos + 1..).unwrap_or(&[]).iter().rev() {
                    let later = segment_path(dir, later);
                    note_salvage(fs.read(&later)?.map_or(0, |bytes| bytes.len() as u64));
                    if fs.remove(&later).is_err() {
                        return Ok(false);
                    }
                }
                note_salvage((bytes.len() - valid) as u64);
                if fs.write_atomic(&path, bytes.get(..valid).unwrap_or(&[])).is_err() {
                    return Ok(false);
                }
                break;
            }
        }
        *newest = (*newest).max(last_seq);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        // Seed-0 digests published with the reference implementation: the
        // empty input, inputs that end in the 1-, 4- and 8-byte tail steps,
        // and one long enough to run the four-lane stripe loop.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32DD_3895_2C4B_C720);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
    }

    fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let at = begin_frame(&mut buf);
        buf.push(kind);
        buf.extend_from_slice(body);
        end_frame(&mut buf, at);
        buf
    }

    #[test]
    fn frames_round_trip_through_the_scanner() {
        let mut log = frame(REC_SNAP_HEADER, &7u64.to_le_bytes());
        log.extend_from_slice(&frame(REC_SNAP_FOOTER, &42u64.to_le_bytes()));
        let mut scanner = FrameScanner::new(&log);
        assert_eq!(scanner.typed(REC_SNAP_HEADER), Some(&7u64.to_le_bytes()[..]));
        assert_eq!(scanner.typed(REC_SNAP_FOOTER), Some(&42u64.to_le_bytes()[..]));
        assert!(scanner.next().is_none());
        assert_eq!(scanner.valid_len, log.len());
    }

    #[test]
    fn scanner_salvages_at_torn_and_corrupt_frames() {
        let first = frame(REC_SNAP_HEADER, &1u64.to_le_bytes());
        let second = frame(REC_SNAP_HEADER, &2u64.to_le_bytes());
        // Torn tail: any strict prefix of the second frame is rejected and
        // the salvage point is the end of the first.
        for cut in 0..second.len() {
            let mut log = first.clone();
            log.extend_from_slice(second.get(..cut).unwrap_or(&[]));
            let mut scanner = FrameScanner::new(&log);
            assert!(scanner.next().is_some());
            assert!(scanner.next().is_none(), "cut at {cut} must not verify");
            assert_eq!(scanner.valid_len, first.len());
        }
        // A flipped bit anywhere in the second frame fails its checksum (or
        // its length bound) and salvages at the same point.
        for bit in 0..second.len() * 8 {
            let mut log = first.clone();
            let mut broken = second.clone();
            if let Some(byte) = broken.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
            log.extend_from_slice(&broken);
            let mut scanner = FrameScanner::new(&log);
            assert!(scanner.next().is_some());
            assert!(scanner.next().is_none(), "bit flip at {bit} must not verify");
            assert_eq!(scanner.valid_len, first.len());
        }
    }

    #[test]
    fn fault_fs_crash_models_honour_sync_points() {
        let fs = FaultFs::new();
        let path = Path::new("/x.wal");
        let (mut file, len) = fs.open_append(path).expect("FaultFs open");
        assert_eq!(len, 0);
        file.append(b"aaaa").expect("append");
        file.sync().expect("sync");
        file.append(b"bbbb").expect("append");
        // No sync after "bbbb".
        assert_eq!(fs.total_write_bytes(), 8);

        // Torn with a full budget keeps everything written...
        let torn = fs.crashed(8, CrashModel::Torn);
        assert_eq!(torn.file_len(path), Some(8));
        // ...a smaller budget tears mid-write...
        let torn = fs.crashed(6, CrashModel::Torn);
        assert_eq!(torn.file_len(path), Some(6));
        // ...and SyncedOnly drops everything after the last fsync.
        let synced = fs.crashed(8, CrashModel::SyncedOnly);
        assert_eq!(synced.file_len(path), Some(4));

        // Atomic replaces are all-or-nothing and consume no byte budget —
        // but they still honour journal order: a budget that tears an
        // earlier write never reaches them.
        fs.write_atomic(Path::new("/y.snap"), b"snapshot").expect("atomic");
        let image = fs.crashed(8, CrashModel::SyncedOnly);
        assert_eq!(image.file_len(Path::new("/y.snap")), Some(8));
        assert_eq!(image.file_len(path), Some(4));
        let image = fs.crashed(0, CrashModel::SyncedOnly);
        assert_eq!(image.file_len(Path::new("/y.snap")), None, "torn before the atomic");
    }

    #[test]
    fn op_boundary_crashes_split_non_append_operations() {
        let fs = FaultFs::new();
        let wal = Path::new("/m.wal");
        let snap = Path::new("/m.snap");
        let (mut file, _) = fs.open_append(wal).expect("FaultFs open");
        file.append(b"tail").expect("append");
        fs.write_atomic(snap, b"snapshot").expect("atomic");
        fs.remove(wal).expect("remove");
        // An atomic replace is two operations: the tmp file, then the rename.
        assert_eq!(fs.op_count(), 4);
        // The byte budget cannot separate the atomic replace from the
        // removal that follows it: both ride on the last appended byte.
        let image = fs.crashed(4, CrashModel::Torn);
        assert_eq!(image.file_len(snap), Some(8));
        assert_eq!(image.file_len(wal), None);
        // Op boundaries can: a crash after the snapshot install but before
        // the removal — the window an interrupted checkpoint leaves.
        let image = fs.crashed_at_op(3, CrashModel::Torn);
        assert_eq!(image.file_len(snap), Some(8));
        assert_eq!(image.file_len(wal), Some(4), "log must not be removed yet");
        // ...or between the tmp write and its rename, stranding the tmp file.
        let image = fs.crashed_at_op(2, CrashModel::Torn);
        assert_eq!(image.file_len(snap), None, "crash before the rename");
        assert_eq!(image.list(Path::new("/")).expect("list"), [Path::new("/m.tmp"), wal]);
        let image = fs.crashed_at_op(1, CrashModel::Torn);
        assert_eq!(image.list(Path::new("/")).expect("list"), [wal]);
    }

    #[test]
    fn failpoint_writer_injects_short_writes_and_fsync_errors() {
        let fs = FaultFs::new();
        let path = Path::new("/fp.wal");
        let (inner, _) = fs.open_append(path).expect("FaultFs open");
        let mut writer = FailpointWriter::new(inner, Some(1), Some(2));
        writer.append(b"12345678").expect("first write passes");
        let err = writer.append(b"12345678").expect_err("second write fails");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // The failing write left half the bytes behind — a torn tail.
        assert_eq!(fs.file_len(path), Some(12));
        writer.sync().expect("first fsync passes");
        writer.sync().expect("second fsync passes");
        assert!(writer.sync().is_err(), "third fsync must fail");
    }

    fn head_of(samples: &[Sample]) -> Head {
        let mut head = Head::default();
        for &sample in samples {
            head.push(sample);
        }
        head
    }

    /// `samples` sealed by a head, as a list of one chunk.
    fn sealed_head(samples: &[Sample]) -> Sealed {
        let mut sealed = Sealed::default();
        head_of(samples).seal(|chunk| sealed.push(chunk));
        sealed
    }

    /// `samples` as a raw chunk, as a list of one.
    fn raw_sealed(samples: &[Sample]) -> Sealed {
        let mut raw = vec![0; samples.len() * 16];
        crate::series::put_raw(samples, &mut raw);
        let (start_ms, end_ms) = (samples[0].timestamp_ms, samples[samples.len() - 1].timestamp_ms);
        let count = samples.len() as u32;
        let mut sealed = Sealed::default();
        sealed.push(Chunk { start_ms, end_ms, count, payload: Payload::Raw(&raw) });
        sealed
    }

    fn chunks(sealed: &Sealed) -> Vec<Chunk<'_>> {
        sealed.chunks().collect()
    }

    /// A one-series shard snapshot of `head` and `sealed`, its series record
    /// passed through `patch` (the body behind the record's type byte) and
    /// framed again, checksum and all — what a colliding corruption or a
    /// hand-made file looks like to recovery.
    fn reframed_snapshot(
        head: &Head,
        sealed: &Sealed,
        patch: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let series = [SnapSeriesRef {
            id: 1,
            name_sym: SymbolId::from_u32(0),
            label_syms: &[],
            ever_appended: true,
            head: Some(head),
            sealed,
        }];
        let image = encode_shard_snapshot(1, 0, 0, &series);
        let mut scanner = FrameScanner::new(&image);
        let header = scanner.typed(REC_SNAP_HEADER).expect("header").to_vec();
        let mut body = scanner.typed(REC_SNAP_SERIES).expect("series").to_vec();
        let footer = scanner.typed(REC_SNAP_FOOTER).expect("footer").to_vec();
        patch(&mut body);
        [(REC_SNAP_HEADER, header), (REC_SNAP_SERIES, body), (REC_SNAP_FOOTER, footer)]
            .iter()
            .flat_map(|(kind, body)| frame(*kind, body))
            .collect()
    }

    /// Offsets into an unlabelled series record: `id`, `name_sym`,
    /// `ever_appended` and the label count come first.
    const HEAD_COUNT_AT: usize = 8 + 4 + 1 + 4;
    /// …and behind an empty head (`count: 0`, `CHUNK_RAW`, no length) the
    /// sealed list's count, then the first chunk's tag and count.
    const SEALED_COUNT_AT: usize = HEAD_COUNT_AT + 4 + 1;

    fn set_u32(body: &mut [u8], at: usize, value: u32) {
        body[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn a_count_its_block_cannot_hold_is_refused_and_the_fullest_honest_block_loads() {
        // Recovery allocates for a count only once the bytes beside it could
        // hold that many samples.  An XOR block: 64 bits, 16 for the second
        // sample, then two a sample at the least; an integer block the same
        // from one bit; a block of the older form 128 bits, then two a sample.
        for tag in [CHUNK_XOR, CHUNK_INTEGER, CHUNK_LEGACY_XOR, CHUNK_LEGACY_INTEGER] {
            assert!(block_can_hold(tag, 0, 0), "{tag}");
        }
        assert!(!block_can_hold(CHUNK_XOR, 7, 1) && block_can_hold(CHUNK_XOR, 8, 1));
        assert!(!block_can_hold(CHUNK_XOR, 9, 2) && block_can_hold(CHUNK_XOR, 10, 2));
        assert!(block_can_hold(CHUNK_XOR, 11, 6) && !block_can_hold(CHUNK_XOR, 11, 7));
        assert!(!block_can_hold(CHUNK_INTEGER, 0, 1) && block_can_hold(CHUNK_INTEGER, 1, 1));
        assert!(!block_can_hold(CHUNK_INTEGER, 2, 2) && block_can_hold(CHUNK_INTEGER, 3, 2));
        assert!(block_can_hold(CHUNK_INTEGER, 3, 5) && !block_can_hold(CHUNK_INTEGER, 3, 6));
        for tag in [CHUNK_LEGACY_XOR, CHUNK_LEGACY_INTEGER] {
            assert!(!block_can_hold(tag, 15, 1) && block_can_hold(tag, 16, 1));
            assert!(!block_can_hold(tag, 16, 2) && block_can_hold(tag, 17, 5));
            assert!(!block_can_hold(tag, 17, 6));
        }

        // The fullest honest block: one value, a zero first delta, 2 bits a
        // sample past the second — as an integer block (a zero, one bit) and
        // an XOR one, each at a count that leaves no spare bit but padding.
        for (value, count) in [(0.0, 77), (0.5, 78)] {
            let flat: Vec<Sample> = (0..count).map(|_| Sample { timestamp_ms: 9, value }).collect();
            let (kind, block) = chunk_codec::encode(&flat).expect("ordered");
            let tag = block_tag(kind);
            let first: usize = if kind == BlockKind::Xor { 64 } else { 1 };
            assert_eq!(block.len(), (first + 16 + 2 * (count - 2)).div_ceil(8));
            assert!(block_can_hold(tag, block.len(), count));
            assert!(!block_can_hold(tag, block.len(), count + 1));

            // As a head: loads whole, reserving for its samples and no more…
            let head = head_of(&flat);
            let image = reframed_snapshot(&head, &Sealed::default(), |_| {});
            let snap = decode_shard_snapshot(&image).expect("an honest snapshot");
            assert_eq!(snap.series[0].head, flat);
            assert!(snap.series[0].head.capacity() <= 4 * block.len());
            // …and one sample more than it can hold, or sixteen million, is
            // refused next to the same bytes.
            for count in [count as u32 + 1, MAX_COUNT] {
                let image = reframed_snapshot(&head, &Sealed::default(), |body| {
                    set_u32(body, HEAD_COUNT_AT, count);
                });
                assert!(decode_shard_snapshot(&image).is_none(), "head of {count} in {kind:?}");
            }

            // As a sealed chunk: the same, for the count in its footer — and
            // under the older form's tag, whose bound is the tighter one here.
            let sealed = sealed_head(&flat);
            assert_eq!(sealed.first().map(|c| c.payload), Some(Payload::Block(kind, &block)));
            let image = reframed_snapshot(&Head::default(), &sealed, |_| {});
            let snap = decode_shard_snapshot(&image).expect("an honest snapshot");
            assert_eq!(chunks(&snap.series[0].sealed), chunks(&sealed));
            for count in [count as u32 + 1, MAX_COUNT] {
                let image = reframed_snapshot(&Head::default(), &sealed, |body| {
                    set_u32(body, SEALED_COUNT_AT + 4 + 1, count);
                });
                assert!(decode_shard_snapshot(&image).is_none(), "chunk of {count} in {kind:?}");
            }
            let legacy =
                if kind == BlockKind::Xor { CHUNK_LEGACY_XOR } else { CHUNK_LEGACY_INTEGER };
            let image = reframed_snapshot(&Head::default(), &sealed, |body| {
                body[SEALED_COUNT_AT + 4] = legacy;
            });
            assert!(decode_shard_snapshot(&image).is_none(), "{count} in an older {kind:?} block");
        }

        // A raw run is its count times sixteen bytes, present in the record:
        // an inflated count is refused before a vector is sized for it.
        let raw = raw_sealed(&[Sample { timestamp_ms: 1, value: 0.5 }]);
        let honest = reframed_snapshot(&Head::default(), &raw, |_| {});
        assert_eq!(
            chunks(&decode_shard_snapshot(&honest).expect("honest").series[0].sealed),
            chunks(&raw)
        );
        let image = reframed_snapshot(&Head::default(), &raw, |body| {
            set_u32(body, SEALED_COUNT_AT + 4 + 1, MAX_COUNT);
            set_u32(body, SEALED_COUNT_AT + 4 + 1 + 4 + 16, MAX_COUNT * 16);
        });
        assert!(decode_shard_snapshot(&image).is_none());
        // …and so is a raw head's.
        let image = reframed_snapshot(&Head::default(), &Sealed::default(), |body| {
            set_u32(body, HEAD_COUNT_AT, MAX_COUNT);
        });
        assert!(decode_shard_snapshot(&image).is_none());
    }

    #[test]
    fn shard_snapshots_round_trip_byte_identically() {
        // Eleven head samples: a burst in the block and three in the tail.
        let head_samples: Vec<Sample> =
            (0..11).map(|i| Sample { timestamp_ms: 1_000 * i, value: 1.5 - i as f64 }).collect();
        let head = head_of(&head_samples);
        let sealed_samples: Vec<Sample> =
            (0..8).map(|i| Sample { timestamp_ms: 10_000 + i * 500, value: i as f64 }).collect();
        // One sealed chunk of each kind of block, and a raw one.
        let (integer, xor) = (sealed_head(&sealed_samples), sealed_head(&head_samples));
        let raw = raw_sealed(&sealed_samples);
        let mut sealed = Sealed::default();
        for chunk in [&integer, &xor, &raw].into_iter().filter_map(Sealed::first) {
            sealed.push(chunk);
        }
        let series = [SnapSeriesRef {
            id: 9,
            name_sym: SymbolId::from_u32(3),
            label_syms: &[(SymbolId::from_u32(1), SymbolId::from_u32(2))],
            ever_appended: true,
            head: Some(&head),
            sealed: &sealed,
        }];
        let bytes = encode_shard_snapshot(5, 2, 7, &series);
        let snap = decode_shard_snapshot(&bytes).expect("decode");
        assert_eq!(snap.base_seq, 5);
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.rejected, 7);
        assert_eq!(snap.series.len(), 1);
        let s = &snap.series[0];
        assert_eq!(s.id, 9);
        assert_eq!(s.name_sym, SymbolId::from_u32(3));
        assert_eq!(s.label_syms, vec![(SymbolId::from_u32(1), SymbolId::from_u32(2))]);
        assert!(s.ever_appended);
        assert_eq!(s.head, head_samples);
        // Payloads are carried verbatim and keep their kind: byte-identical
        // restore.
        let kinds: Vec<Option<BlockKind>> = chunks(&s.sealed)
            .iter()
            .map(|c| match c.payload {
                Payload::Block(kind, _) => Some(kind),
                Payload::Raw(_) => None,
            })
            .collect();
        assert_eq!(kinds, [Some(BlockKind::Integer), Some(BlockKind::Xor), None]);
        assert_eq!(chunks(&s.sealed), chunks(&sealed));
        // Any truncation of the image is rejected outright — a snapshot is
        // only trusted whole.
        for cut in 0..bytes.len() {
            assert!(decode_shard_snapshot(bytes.get(..cut).unwrap_or(&[])).is_none());
        }
    }

    // -- packed sample entries ---------------------------------------------

    /// A stage outside any [`Wal`], behind the lock [`ShardWriter`] wants.
    fn stage() -> Mutex<Stage> {
        Mutex::named(
            Stage { staged: Vec::new(), open_samples: None, prev_local: u32::MAX },
            LockClass::new("tsdb.wal.shard"),
        )
    }

    /// A checksum-valid log group of round `seq` holding `body` as shard 0's
    /// section.
    fn group(seq: u64, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let at = begin_frame(&mut buf);
        put_u64(&mut buf, seq);
        buf.push(0); // shard 0's section
        put_u32(&mut buf, body.len() as u32);
        buf.extend_from_slice(body);
        end_frame(&mut buf, at);
        buf
    }

    /// Every record of a shard section body, or `None` where
    /// [`decode_shard_op`] refuses one.
    fn decode_body(body: &[u8]) -> Option<Vec<ShardOp<'_>>> {
        let mut cur = Cur::new(body);
        let mut ops = Vec::new();
        while !cur.done() {
            ops.push(decode_shard_op(&mut cur)?);
        }
        Some(ops)
    }

    /// The `(timestamp, local, value bits)` triples of every sample batch.
    fn sample_triples(ops: &[ShardOp<'_>]) -> Vec<(u64, u32, u64)> {
        let mut triples = Vec::new();
        for op in ops {
            if let ShardOp::Samples { timestamp_ms, count, entries } = op {
                let before = triples.len();
                triples
                    .extend(entries.map(|(local, value)| (*timestamp_ms, local, value.to_bits())));
                assert_eq!(triples.len() - before, *count, "count is the number of entries");
            }
        }
        triples
    }

    /// Local indexes that stress every way an entry can name its series:
    /// the inline deltas and the first gaps past them, repeats and steps
    /// backwards, both sides of the `u16` boundary, the top of `u32`.
    fn gen_local(rng: &mut proptest::TestRng, prev: u32) -> u32 {
        match rng.below(10) {
            0..=2 => prev.wrapping_add(1),
            3 => prev,
            4 => prev.wrapping_sub(1 + rng.below(40) as u32),
            5 => prev.wrapping_add(13 + rng.below(4) as u32), // deltas 12..=15
            6 => 65_533 + rng.below(6) as u32,
            7 => u32::MAX - rng.below(3) as u32,
            8 => rng.below(3) as u32,
            _ => rng.next_u64() as u32,
        }
    }

    /// Values at every byte length the entry can take, and the `f64`s a
    /// careless codec loses: signed zero, subnormals, infinities, NaN
    /// payloads.
    fn gen_bits(rng: &mut proptest::TestRng) -> u64 {
        const QUIET_NAN: u64 = 0x7FF8_0000_0000_0000;
        const SIGNALLING_NAN: u64 = 0x7FF0_0000_0000_0000;
        match rng.below(12) {
            0 => 0.0f64.to_bits(),
            1 => (-0.0f64).to_bits(),
            2 => 1 + rng.below(1 << 20), // subnormal
            3 => if rng.below(2) == 0 { f64::INFINITY } else { f64::NEG_INFINITY }.to_bits(),
            4 => QUIET_NAN | rng.below(1 << 51),
            5 => SIGNALLING_NAN | (1 + rng.below(1 << 51)) | rng.below(2) << 63,
            // Whole numbers of either sign on both sides of where one more
            // byte is needed, in the float form or the integer one.
            6..=8 => {
                let power = [5, 8, 13, 16, 21, 24, 29, 32, 37, 45, 53][rng.below(11) as usize];
                (((1u64 << power) - 2 + rng.below(4)) as f64).to_bits() | rng.below(2) << 63
            }
            9 => (rng.below(100_000) as f64 / 8.0).to_bits(),
            10 => rng.next_u64() << (8 * rng.below(8)), // a chosen count of zero bytes
            _ => rng.next_u64(),                        // a full mantissa
        }
    }

    /// Values where an entry's form or length turns: whole numbers at ±0,
    /// ±1, ±(2^(8k) − 1, 2^(8k), 2^(8k) + 1) — the edges of each integer
    /// width — ±2^32, ±2^53 and ±(2^53 + 2), the last past where `i as f64`
    /// is exact for every `i`; then NaN payloads, subnormals and ±∞.
    fn value_edges() -> Vec<f64> {
        let mut wholes = vec![0.0, 1.0, 2f64.powi(32), 2f64.powi(53), 2f64.powi(53) + 2.0];
        for k in 1..=7 {
            let power = 2f64.powi(8 * k);
            wholes.extend([power - 1.0, power, power + 1.0]);
        }
        let mut edges: Vec<f64> = wholes.iter().flat_map(|&v| [v, -v]).collect();
        edges.extend(
            [
                0x7FF8_0000_0000_0000, // the quiet NaN
                0x7FF8_0000_0000_002A, // a quiet NaN payload
                0xFFF0_0000_0000_0001, // a negative signalling NaN
                1,                     // the smallest subnormal
                0x000F_FFFF_FFFF_FFFF, // the largest subnormal
                0x8000_0000_0000_00FF, // a negative subnormal
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ]
            .map(f64::from_bits),
        );
        edges
    }

    /// The length `value`'s entry must take after local `prev`, and the
    /// length of its float form: the integer form wherever `value` is a
    /// whole number in −(2^24 − 1)..=2^32 − 1 whose bytes are fewer.
    fn entry_lens(prev: u32, local: u32, value: f64) -> (usize, usize) {
        let local_bytes = if local.wrapping_sub(prev).wrapping_sub(1) < 14 {
            0
        } else if local <= 0xFFFF {
            2
        } else {
            4
        };
        let float_bytes = 8 - (value.to_bits().trailing_zeros() / 8).min(8) as usize;
        let whole = value.fract() == 0.0 && value > -16_777_216.0 && value < 4_294_967_296.0;
        let int_bytes = if whole {
            (1..=4).find(|&n| value.abs() < 256f64.powi(n)).unwrap_or(4) as usize
        } else {
            8
        };
        (1 + local_bytes + float_bytes.min(int_bytes), 1 + local_bytes + float_bytes)
    }

    /// Packs `values` with [`pack_sample`] after generated locals, holds each
    /// entry to [`entry_lens`], and reads them back through
    /// [`SampleEntries`]: every local and every value's bits come back.
    fn assert_packs_exactly(rng: &mut proptest::TestRng, values: impl IntoIterator<Item = f64>) {
        let (mut prev, mut bytes, mut expected) = (u32::MAX, Vec::new(), Vec::new());
        for value in values {
            let local = gen_local(rng, prev);
            let (slot, len) = pack_sample(prev, local, value);
            let (shortest, float_only) = entry_lens(prev, local, value);
            let bits = value.to_bits();
            assert_eq!(len, shortest, "{value:?} ({bits:#018x}) after local {prev}");
            assert!(len <= float_only, "{value:?} ({bits:#018x}) outgrew its float form");
            bytes.extend_from_slice(&slot[..len]);
            expected.push((local, bits));
            prev = local;
        }
        let (entries, count) = SampleEntries::validated(&bytes, true).expect("what was packed");
        assert_eq!(count, expected.len());
        assert_eq!(entries.map(|(local, v)| (local, v.to_bits())).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn every_value_edge_packs_at_its_shortest_and_comes_back() {
        let mut rng = proptest::TestRng::deterministic("value-edges");
        assert_packs_exactly(&mut rng, value_edges());
        // The forms as the format states them, after local 0 in order: a
        // whole number's low bytes with the nibble 8 + n (12 + n if
        // negative) where they are fewer than the float's high bytes.
        for (value, entry) in [
            (0.0, &[0x00][..]),
            (-0.0, &[0x01, 0x80]),
            (1.0, &[0x09, 0x01]),
            (2.0, &[0x01, 0x40]),
            (255.0, &[0x09, 0xFF]),
            (-1.0, &[0x0D, 0x01]),
            (1_000.0, &[0x0A, 0xE8, 0x03]),
            (-16_777_215.0, &[0x0F, 0xFF, 0xFF, 0xFF]),
            (4_294_967_295.0, &[0x0C, 0xFF, 0xFF, 0xFF, 0xFF]),
            (-16_777_216.0, &[0x02, 0x70, 0xC1]),
            (0.5, &[0x02, 0xE0, 0x3F]),
        ] {
            let (slot, len) = pack_sample(u32::MAX, 0, value);
            assert_eq!(&slot[..len], entry, "{value:?}");
        }
    }

    proptest::proptest! {
        /// decode(encode) is the identity on `(timestamp, local, bits)` for
        /// every sequence, and no entry exceeds its bound.
        #[test]
        fn packed_entries_round_trip_bit_exactly(len in 1usize..300, case in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::deterministic(&format!("packed-entries-{case}"));
            let stage = stage();
            let mut expected = Vec::new();
            let (mut local, mut timestamp_ms) = (u32::MAX, 1_000u64);
            for _ in 0..len {
                local = gen_local(&mut rng, local);
                if rng.below(16) == 0 {
                    timestamp_ms += rng.below(3) * 500; // sometimes a new batch
                }
                let bits = gen_bits(&mut rng);
                let mut writer = ShardWriter(stage.lock());
                let (before, batch) = (writer.0.staged.len(), writer.0.open_samples);
                writer.sample(local, timestamp_ms, f64::from_bits(bits));
                let mut entry = writer.0.staged.len() - before;
                if writer.0.open_samples != batch {
                    entry -= SAMPLE_HEADER_BYTES;
                }
                let bound = if local <= u32::from(u16::MAX) { 11 } else { 13 };
                assert!(entry <= bound, "local {local}, bits {bits:#x}: {entry} bytes");
                expected.push((timestamp_ms, local, bits));
            }
            let mut stage = stage.lock();
            stage.close_samples();
            let ops = decode_body(&stage.staged).expect("what the encoder wrote must decode");
            assert_eq!(sample_triples(&ops), expected);
        }

        /// `pack_sample` → `SampleEntries` is the identity on every value's
        /// bits — edges, the generator's values and raw bit patterns — and no
        /// entry is ever longer than its float form.
        #[test]
        fn packed_values_come_back_bit_exact_and_never_outgrow_the_float_form(
            len in 1usize..64,
            case in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::deterministic(&format!("packed-values-{case}"));
            let edges = value_edges();
            let values: Vec<f64> = (0..len)
                .map(|_| match rng.below(3) {
                    0 => edges[rng.below(edges.len() as u64) as usize],
                    1 => f64::from_bits(gen_bits(&mut rng)),
                    _ => f64::from_bits(rng.next_u64()),
                })
                .collect();
            assert_packs_exactly(&mut rng, values);
        }

        /// Whatever bytes stand where a batch's entries should, decoding
        /// never panics, and it either accounts for every byte up to
        /// `body_len` or refuses the group the record sits in — and with it
        /// the well-formed `SERIES` record before it.
        #[test]
        fn malformed_batches_refuse_their_whole_group(len in 0usize..64, case in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::deterministic(&format!("packed-fuzz-{case}"));
            let stage = stage();
            let mut writer = ShardWriter(stage.lock());
            writer.series(7, SymbolId::from_u32(1), &[]);
            // Past the SERIES record and the batch header.
            let entries_at = writer.0.staged.len() + SAMPLE_HEADER_BYTES;
            let mut local = u32::MAX;
            for _ in 0..len {
                local = gen_local(&mut rng, local);
                writer.sample(local, 5_000, f64::from_bits(gen_bits(&mut rng)));
            }
            writer.retention(1); // seals the batch; trailing record after it
            let mut body = writer.0.staged.clone();
            drop(writer);
            // Half the cases mutate one byte of the valid body (header,
            // entries or neighbours alike), the other half overwrite the
            // entries with noise.
            if rng.below(2) == 0 {
                let at = rng.below(body.len() as u64) as usize;
                body[at] ^= 1 + rng.below(255) as u8;
            } else if len > 0 {
                for byte in &mut body[entries_at..] {
                    *byte = rng.next_u64() as u8;
                }
            }
            let mut payload = 1u64.to_le_bytes().to_vec();
            payload.push(3); // shard 3's section
            put_u32(&mut payload, body.len() as u32);
            payload.extend_from_slice(&body);
            if let Some(group) = decode_group(&payload) {
                for (_, op) in &group.ops {
                    if let ShardOp::Samples { count, entries, .. } = op {
                        let mut walk = *entries;
                        assert_eq!(walk.by_ref().count(), *count);
                        assert!(walk.bytes.is_empty(), "a decoded batch is walked to its end");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_batches_stay_inside_their_bounds() {
        // The input without the property the format exploits: a thousand
        // full-mantissa values.  In shard order each costs control byte +
        // eight value bytes.
        let stage = stage();
        let mut writer = ShardWriter(stage.lock());
        for local in 0..1_000u32 {
            writer.sample(
                local,
                5_000,
                f64::from_bits(0x4009_21FB_5444_2D19 + 2 * u64::from(local)),
            );
        }
        writer.0.close_samples();
        assert_eq!(writer.0.staged.len(), SAMPLE_HEADER_BYTES + 1_000 * 9);
        assert!(writer.0.staged.len() <= 9_016);
        // ...and the input with it: zeroes in order are a byte each.
        writer.0.staged.clear();
        for local in 0..1_000u32 {
            writer.sample(local, 10_000, 0.0);
        }
        writer.0.close_samples();
        assert_eq!(writer.0.staged.len(), SAMPLE_HEADER_BYTES + 1_000);
    }

    #[test]
    fn every_control_byte_decodes_exactly_or_not_at_all() {
        const ALL_5A: u64 = 0x5A5A_5A5A_5A5A_5A5A;
        let batch = |entries: &[u8]| {
            let mut body = vec![REC_SAMPLES];
            put_u32(&mut body, entries.len() as u32);
            put_u64(&mut body, 5_000);
            body.extend_from_slice(entries);
            body
        };
        for ctl in 0..=u8::MAX {
            let local_bytes = match ctl >> 4 {
                LOCAL_U16 => 2,
                LOCAL_U32 => 4,
                _ => 0,
            };
            // The value bytes, all 0x5A, and what they stand for.
            let (value_bytes, value) = match ctl & 15 {
                n @ 0..=8 => {
                    let high = ALL_5A.checked_shl(64 - 8 * u32::from(n)).unwrap_or(0);
                    (n, f64::from_bits(high))
                }
                n @ 9..=12 => (n - 8, (ALL_5A >> (64 - 8 * u32::from(n - 8))) as f64),
                n => (n - 12, -((ALL_5A >> (64 - 8 * u32::from(n - 12))) as f64)),
            };
            // The entry exactly as long as its control byte says.
            let mut entry = vec![ctl];
            entry.resize(1 + local_bytes + usize::from(value_bytes), 0x5A);
            let whole = batch(&entry);
            match decode_body(&whole).as_deref() {
                Some([ShardOp::Samples { count: 1, entries, .. }]) => {
                    let bits: Vec<_> = entries.map(|(_, v)| v.to_bits()).collect();
                    assert_eq!(bits, [value.to_bits()], "ctl {ctl:#04x}");
                }
                _ => panic!("ctl {ctl:#04x} must decode to its one entry"),
            }
            // One byte short, and one byte over (a trailing byte reads as an
            // entry of its own, cut short): refused either way.
            if entry.len() > 1 {
                assert!(decode_body(&batch(&entry[..entry.len() - 1])).is_none(), "{ctl:#04x}");
            }
            entry.push(0x01);
            assert!(decode_body(&batch(&entry)).is_none(), "ctl {ctl:#04x} with a trailing byte");
        }
    }

    /// A record that fails structural validation is a salvage point for the
    /// **whole frame**: the checksum-valid group holding it is cut, and the
    /// well-formed records ahead of it in the same group are not applied.
    #[test]
    fn a_malformed_record_is_never_half_applied() {
        let stage = stage();
        let mut writer = ShardWriter(stage.lock());
        writer.series(1, SymbolId::from_u32(0), &[]);
        writer.sample(0, 1_000, 1.0);
        writer.0.close_samples();
        let good = group(1, &writer.0.staged);
        writer.0.staged.clear();
        writer.series(2, SymbolId::from_u32(0), &[]);
        writer.sample(1, 2_000, 2.0);
        writer.0.close_samples();
        let mut body = writer.0.staged.clone();
        // The entry is `[ctl, 0x40]`: make its control byte ask for eight
        // value bytes, seven more than the record holds.
        let ctl = body.len() - 2;
        assert_eq!(body[ctl..], [0x11, 0x40]);
        body[ctl] = 0x18;
        let bad = group(2, &body);

        let fs = FaultFs::new();
        let path = segment_path(Path::new("/wal"), 1);
        let (mut file, _) = fs.open_append(&path).expect("FaultFs open");
        file.append(&good).expect("append");
        file.append(&bad).expect("append");
        let options =
            DurabilityOptions { fs: Arc::new(fs.clone()), ..DurabilityOptions::default() };
        let mut series_ids = Vec::new();
        let mut samples = 0;
        Wal::open(Path::new("/wal"), &options, &mut |item| match item {
            Replay::Op(_, ShardOp::Series { id, .. }) => series_ids.push(id),
            Replay::Op(_, ShardOp::Samples { count, .. }) => samples += count,
            _ => {}
        })
        .expect("open");
        assert_eq!(series_ids, [1], "series 2 rode in the refused group");
        assert_eq!(samples, 1);
        assert_eq!(fs.file_len(&path), Some(good.len() as u64), "the segment is cut at the frame");
    }

    // -- varint series records and bounded counts --------------------------

    /// The largest single heap request this thread has made: the lib test
    /// binary's allocator notes it, so a test can show that a decoder sized
    /// nothing by a count it had not checked against the bytes.
    struct LargestRequest;

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: delegates every operation to `System`; only bookkeeping is added.
    unsafe impl std::alloc::GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            LARGEST.with(|largest| largest.set(largest.get().max(layout.size())));
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            LARGEST.with(|largest| largest.set(largest.get().max(new_size)));
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestRequest = LargestRequest;

    /// The largest heap request `f` makes on this thread.
    fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = LARGEST.with(|largest| largest.replace(0));
        let out = f();
        let largest = LARGEST.with(|largest| largest.replace(before.max(largest.get())));
        (out, largest)
    }

    /// A decoded `SERIES` record: id, name and label symbols.
    type SeriesFields = (u64, SymbolId, Vec<(SymbolId, SymbolId)>);

    /// The one series record `body` holds, decoded.
    fn series_of(body: &[u8]) -> Option<SeriesFields> {
        match decode_body(body)?.pop()? {
            ShardOp::Series { id, name_sym, label_syms } => Some((id, name_sym, label_syms)),
            _ => None,
        }
    }

    #[test]
    fn varint_series_records_round_trip_and_refuse_malformed_fields() {
        for (value, len) in [(0, 1), (127, 1), (128, 2), (u64::from(u32::MAX), 5), (u64::MAX, 10)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf.len(), len, "{value}");
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.varint(64), Some(value));
            assert!(cur.done());
            let fits = u32::try_from(value).ok();
            assert_eq!(Cur::new(&buf).varint_u32(), fits, "{value} as a u32 field");
        }

        // A record of extreme fields decodes to exactly what was staged.
        let labels = [
            (SymbolId::from_u32(0), SymbolId::from_u32(127)),
            (SymbolId::from_u32(128), SymbolId::from_u32(u32::MAX)),
        ];
        let stage = stage();
        let mut writer = ShardWriter(stage.lock());
        writer.series(u64::MAX, SymbolId::from_u32(u32::MAX), &labels);
        let record = writer.0.staged.clone();
        assert_eq!(record.len(), 1 + 10 + 5 + 1 + (1 + 1) + (2 + 5));
        let expected = (u64::MAX, SymbolId::from_u32(u32::MAX), labels.to_vec());
        assert_eq!(series_of(&record), Some(expected));

        // `[REC_SERIES, id, name, count]` with one field replaced by `field`.
        let series = |field: usize, bytes: &[u8]| {
            let mut fields: Vec<&[u8]> = vec![&[7], &[1], &[0]];
            fields[field] = bytes;
            let mut record = vec![REC_SERIES];
            fields.iter().for_each(|field| record.extend_from_slice(field));
            record
        };
        assert!(decode_body(&series(0, &[7])).is_some(), "the record the cases below break");
        for (what, field, bytes) in [
            ("an overlong zero", 0, &[0x80, 0x00][..]),
            ("an overlong one", 1, &[0x81, 0x80, 0x00][..]),
            (
                "eleven bytes",
                0,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81, 0x00][..],
            ),
            (
                "a u64 overflow",
                0,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02][..],
            ),
            ("a u32 overflow", 1, &[0x80, 0x80, 0x80, 0x80, 0x10][..]),
            ("a u32 count overflow", 2, &[0xFF, 0xFF, 0xFF, 0xFF, 0x1F][..]),
            ("a count past the bytes", 2, &[0x01][..]),
            ("an unterminated field", 2, &[0x80][..]),
        ] {
            assert!(decode_body(&series(field, bytes)).is_none(), "{what}");
        }
        // A key or value past `u32` in an otherwise whole record.
        let mut record = series(2, &[1]);
        record.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10, 0x01]);
        assert!(decode_body(&record).is_none(), "a u32 overflow in a label");

        // The fixed-width record of earlier versions still decodes.
        let mut record = vec![REC_SERIES_V1];
        put_u64(&mut record, 9);
        put_u32(&mut record, 3);
        put_label_syms(&mut record, &labels);
        assert_eq!(series_of(&record), Some((9, SymbolId::from_u32(3), labels.to_vec())));
    }

    #[test]
    fn forged_counts_are_refused_without_a_large_allocation() {
        const LARGE: usize = 1 << 20;
        let dir = Path::new("/wal");
        // A snapshot header that claims sixteen million series, checksum and
        // all, with none behind it: the shard comes up flagged.
        let fs = FaultFs::new();
        let mut header = Vec::new();
        [1u64, 0, 0].iter().for_each(|field| put_u64(&mut header, *field));
        put_u32(&mut header, MAX_COUNT);
        fs.write_atomic(&shard_snap_path(dir, 3), &frame(REC_SNAP_HEADER, &header))
            .expect("write the snapshot");
        let options = DurabilityOptions { fs: Arc::new(fs), ..DurabilityOptions::default() };
        let (wal, largest) = largest_request(|| Wal::open(dir, &options, &mut |_| {}));
        assert_eq!(wal.expect("open").failed_shard_count(), 1);
        assert!(largest < LARGE, "reserved {largest} bytes for a forged series count");

        // Log records that claim sixteen million label pairs, in each form:
        // their groups are cut, the good group before them kept.
        for forged in [REC_SERIES, REC_SERIES_V1] {
            let mut record = vec![forged];
            if forged == REC_SERIES {
                [1, 0, u64::from(MAX_COUNT)]
                    .iter()
                    .for_each(|&field| put_varint(&mut record, field));
            } else {
                put_u64(&mut record, 1);
                put_u32(&mut record, 0);
                put_u32(&mut record, MAX_COUNT);
            }
            record.extend_from_slice(&[0; 64]);
            let stage = stage();
            let mut writer = ShardWriter(stage.lock());
            writer.retention(1);
            let good = group(1, &writer.0.staged);
            let fs = FaultFs::new();
            let path = segment_path(dir, 1);
            let (mut file, _) = fs.open_append(&path).expect("FaultFs open");
            file.append(&good).expect("append");
            file.append(&group(2, &record)).expect("append");
            let options =
                DurabilityOptions { fs: Arc::new(fs.clone()), ..DurabilityOptions::default() };
            let (wal, largest) = largest_request(|| Wal::open(dir, &options, &mut |_| {}));
            assert_eq!(wal.expect("open").failed_shard_count(), 0);
            assert_eq!(
                fs.file_len(&path),
                Some(good.len() as u64),
                "tag {forged}: the tail is cut"
            );
            assert!(largest < LARGE, "tag {forged}: reserved {largest} bytes for a forged count");
        }
    }
}
