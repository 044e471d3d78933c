//! Structural identity of wire-level series.
//!
//! A scrape target emits the *same* series set round after round, so an
//! ingest cache wants a cheap, stable way to recognise "this is the sample I
//! saw last round" without interning strings or consulting any index.  This
//! module provides that identity:
//!
//! * [`SeriesKey`] — the owned form a cache stores per series.  The warm
//!   pass of a positional cache already knows *which* entry a sample should
//!   be, so it asks [`SeriesKey::matches`]: real equality over the borrowed
//!   name and the packed [`Labels`] — a few slice compares, no hashing.
//! * [`series_hash`] — a stable structural hash of a borrowed
//!   `(name, Labels)` pair, for the repair pass that has to *find* a
//!   surviving entry after the series set changed.  No allocation, no hasher
//!   state to set up, and independent of process, run, or label insertion
//!   order ([`Labels`] is already order-normalised).  A hash only ever
//!   nominates candidates; `matches` decides, so a collision degrades to a
//!   cache miss, never to a wrong-series hit.
//!
//! The hash is FNV-1a over the metric name and every `(key, value)` pair,
//! with a `0xFF` separator byte between components.  `0xFF` never occurs in
//! UTF-8, so component boundaries cannot be forged by crafted strings
//! (`("ab", "c")` and `("a", "bc")` hash differently).

use crate::label::Labels;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SEPARATOR: u8 = 0xFF;

#[inline]
fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[inline]
fn fnv_sep(hash: u64) -> u64 {
    fnv_bytes(hash, &[SEPARATOR])
}

/// Stable structural hash of one wire series: metric name plus its
/// (normalised) label set.  Allocation-free and deterministic across runs —
/// safe to persist in caches that outlive any one scrape round.
pub fn series_hash(name: &str, labels: &Labels) -> u64 {
    let mut hash = fnv_bytes(FNV_OFFSET, name.as_bytes());
    for (key, value) in labels.iter() {
        hash = fnv_sep(hash);
        hash = fnv_bytes(hash, key.as_bytes());
        hash = fnv_sep(hash);
        hash = fnv_bytes(hash, value.as_bytes());
    }
    hash
}

/// The owned identity of one series as a cache stores it: the key strings,
/// which decide every match, plus the structural hash a repair pass indexes
/// its candidates by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesKey {
    name: String,
    labels: Labels,
    hash: u64,
}

impl SeriesKey {
    /// Captures the identity of a borrowed `(name, labels)` pair.  This is
    /// the only allocating operation of the module — caches pay it when a
    /// series first appears, never on a steady-state hit.
    pub fn capture(name: &str, labels: &Labels) -> Self {
        Self { name: name.to_string(), labels: labels.clone(), hash: series_hash(name, labels) }
    }

    /// The pre-computed structural hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The captured metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` when the borrowed `(name, labels)` pair is this series: real
    /// equality, so neither a hash collision nor a positional coincidence can
    /// read as a wrong-series hit.  Allocation-free; inlined into the scrape
    /// walk, which calls it once per typed sample per round.
    #[inline]
    pub fn matches(&self, name: &str, labels: &Labels) -> bool {
        self.name == name && &self.labels == labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Labels {
        Labels::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn hash_is_stable_and_order_insensitive() {
        let a = labels(&[("node", "n1"), ("job", "sgx_exporter")]);
        let b = labels(&[("job", "sgx_exporter"), ("node", "n1")]);
        assert_eq!(series_hash("up", &a), series_hash("up", &a), "same inputs, same hash");
        assert_eq!(series_hash("up", &a), series_hash("up", &b), "Labels normalise order");
    }

    #[test]
    fn hash_distinguishes_names_labels_and_values() {
        let l = labels(&[("node", "n1")]);
        assert_ne!(series_hash("up", &l), series_hash("down", &l));
        assert_ne!(series_hash("up", &l), series_hash("up", &labels(&[("node", "n2")])));
        assert_ne!(series_hash("up", &l), series_hash("up", &labels(&[("pod", "n1")])));
        assert_ne!(series_hash("up", &l), series_hash("up", &Labels::new()));
    }

    #[test]
    fn component_boundaries_cannot_be_forged() {
        // Without separators these four would hash the same byte stream.
        assert_ne!(
            series_hash("m", &labels(&[("ab", "c")])),
            series_hash("m", &labels(&[("a", "bc")])),
        );
        assert_ne!(series_hash("ma", &Labels::new()), series_hash("m", &labels(&[("a", "x")])));
        assert_ne!(
            series_hash("m", &labels(&[("a", "bc")])),
            series_hash("m", &labels(&[("a", "b"), ("c", "")])),
        );
    }

    #[test]
    fn key_matches_verifies_equality_not_just_hash() {
        let l = labels(&[("node", "n1"), ("syscall", "read")]);
        let key = SeriesKey::capture("teemon_syscalls_total", &l);
        let hash = series_hash("teemon_syscalls_total", &l);
        assert_eq!(key.hash(), hash);
        assert_eq!(key.name(), "teemon_syscalls_total");
        assert_eq!(&key.labels, &l);
        assert!(key.matches("teemon_syscalls_total", &l));
        // Whatever nominated the entry, only equal data is a match.
        assert!(!key.matches("other_metric", &l));
        assert!(!key.matches("teemon_syscalls_total", &labels(&[("node", "n2")])));
        assert!(!key.matches("teemon_syscalls_total", &Labels::new()));
    }

    #[test]
    fn captured_keys_compare_structurally() {
        let l = labels(&[("node", "n1")]);
        assert_eq!(SeriesKey::capture("up", &l), SeriesKey::capture("up", &l));
        assert_ne!(SeriesKey::capture("up", &l), SeriesKey::capture("up", &Labels::new()));
    }
}
