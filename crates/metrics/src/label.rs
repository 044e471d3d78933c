//! Metric and label names plus normalised label sets.
//!
//! Names follow the Prometheus/OpenMetrics data model: metric names match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match `[a-zA-Z_][a-zA-Z0-9_]*` and
//! must not start with `__` (reserved for internal use by the aggregator).
//!
//! [`Labels`] is the packed label set every sample, cache entry and stored
//! key carries: one string of names and values plus an offset table, which
//! for the sets exporters emit (at most six labels, offsets within `u16`)
//! lives inline — a label set is then a single heap block to build, clone,
//! compare and free.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::error::MetricError;

/// A validated metric name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricName(String);

impl MetricName {
    /// Validates and constructs a metric name.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidMetricName`] when the name is empty or
    /// contains characters outside `[a-zA-Z0-9_:]` (or starts with a digit).
    pub fn new(name: impl Into<String>) -> Result<Self, MetricError> {
        let name = name.into();
        if Self::is_valid(&name) {
            Ok(Self(name))
        } else {
            Err(MetricError::InvalidMetricName(name))
        }
    }

    /// Returns `true` when `name` is a valid metric name.
    pub fn is_valid(name: &str) -> bool {
        let mut bytes = name.bytes();
        match bytes.next() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
            _ => return false,
        }
        bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MetricName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for MetricName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A validated label name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabelName(String);

impl LabelName {
    /// Validates and constructs a label name.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidLabelName`] when the name is empty,
    /// starts with `__`, or contains characters outside `[a-zA-Z0-9_]`.
    pub fn new(name: impl Into<String>) -> Result<Self, MetricError> {
        let name = name.into();
        if Self::is_valid(&name) {
            Ok(Self(name))
        } else {
            Err(MetricError::InvalidLabelName(name))
        }
    }

    /// Returns `true` when `name` is a valid, non-reserved label name.
    pub fn is_valid(name: &str) -> bool {
        if name.starts_with("__") {
            return false;
        }
        let mut bytes = name.bytes();
        match bytes.next() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {}
            _ => return false,
        }
        bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for LabelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A normalised set of labels attached to a metric point.
///
/// Labels are stored sorted by name so that two label sets with the same
/// key/value pairs compare equal and hash identically regardless of insertion
/// order.  This mirrors the identity rule used by Prometheus series.
///
/// The representation is packed: every name and value lies back to back in
/// one string (`name0 value0 name1 value1 …`, sorted by name, names unique)
/// and an offset table holds the end of each piece, two per label.  A set of
/// up to six labels (`INLINE_LABELS`) whose offsets fit `u16` — every set an
/// exporter emits — keeps that table inline, so it is **one heap block**;
/// anything larger spills the table into a `Vec`.  The form is canonical —
/// equal sets have the same bytes, the same offsets and the same table kind
/// (inline exactly when it fits) — so `==` and `Hash` are slice operations,
/// `clone` is one copy, and `get` is a short scan.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Labels {
    buf: String,
    ends: Ends,
}

/// Most labels a set holds with its offset table inline.
const INLINE_LABELS: usize = 6;
const INLINE_ENDS: usize = 2 * INLINE_LABELS;

/// The offset table: the end of every piece of `buf`, two per label.
/// `Inline` whenever the table fits (at most [`INLINE_ENDS`] offsets, all
/// within `u16`), `Heap` otherwise; unused inline slots stay zero.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Ends {
    Inline { len: u8, table: [u16; INLINE_ENDS] },
    Heap(Vec<usize>),
}

impl Default for Ends {
    fn default() -> Self {
        Ends::Inline { len: 0, table: [0; INLINE_ENDS] }
    }
}

impl Ends {
    fn len(&self) -> usize {
        match self {
            Ends::Inline { len, .. } => usize::from(*len),
            Ends::Heap(ends) => ends.len(),
        }
    }

    fn get(&self, at: usize) -> Option<usize> {
        match self {
            Ends::Inline { len, table } => {
                table.get(..usize::from(*len))?.get(at).map(|&end| usize::from(end))
            }
            Ends::Heap(ends) => ends.get(at).copied(),
        }
    }

    fn iter(&self) -> EndsIter<'_> {
        match self {
            Ends::Inline { len, table } => {
                EndsIter::Inline(table.get(..usize::from(*len)).unwrap_or_default().iter())
            }
            Ends::Heap(ends) => EndsIter::Heap(ends.iter()),
        }
    }

    /// Appends an offset, spilling to the heap only when the inline table
    /// cannot hold it.
    fn push(&mut self, end: usize) {
        match self {
            Ends::Inline { len, table } => {
                match (table.get_mut(usize::from(*len)), u16::try_from(end)) {
                    (Some(slot), Ok(short)) => {
                        *slot = short;
                        *len += 1;
                    }
                    _ => {
                        let mut spilled = Vec::with_capacity(2 * INLINE_ENDS);
                        spilled.extend(self.iter());
                        spilled.push(end);
                        *self = Ends::Heap(spilled);
                    }
                }
            }
            Ends::Heap(ends) => ends.push(end),
        }
    }

    /// A copy with room for `more` further offsets.
    fn clone_with_room(&self, more: usize) -> Self {
        match self {
            Ends::Inline { .. } => self.clone(),
            Ends::Heap(ends) => {
                let mut copy = Vec::with_capacity(ends.len() + more);
                copy.extend_from_slice(ends);
                Ends::Heap(copy)
            }
        }
    }
}

#[derive(Clone)]
enum EndsIter<'a> {
    Inline(std::slice::Iter<'a, u16>),
    Heap(std::slice::Iter<'a, usize>),
}

impl Iterator for EndsIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            EndsIter::Inline(ends) => ends.next().map(|&end| usize::from(end)),
            EndsIter::Heap(ends) => ends.next().copied(),
        }
    }
}

/// [`Labels::iter`]: walks the offset table two entries at a time.
#[derive(Clone)]
struct Pairs<'a> {
    buf: &'a str,
    ends: EndsIter<'a>,
    start: usize,
}

impl<'a> Iterator for Pairs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let (mid, end) = (self.ends.next()?, self.ends.next()?);
        let pair = (self.buf.get(self.start..mid)?, self.buf.get(mid..end)?);
        self.start = end;
        Some(pair)
    }
}

/// Bytes reserved per label when only the label count is known up front.
const TYPICAL_LABEL_BYTES: usize = 24;

impl Labels {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `bytes` bytes of names and values.
    fn with_capacity(bytes: usize) -> Self {
        Self { buf: String::with_capacity(bytes), ends: Ends::default() }
    }

    /// An empty set about to receive exactly `labels` labels of at most
    /// `bytes` bytes through [`Labels::push_last`]: the buffer and, past
    /// [`INLINE_LABELS`], the offset table are sized once, up front.  The
    /// count has to be exact — it chooses the table's kind.
    pub(crate) fn with_exact_capacity(labels: usize, bytes: usize) -> Self {
        let mut out = Self::with_capacity(bytes);
        if labels > INLINE_LABELS {
            out.ends = Ends::Heap(Vec::with_capacity(2 * labels));
        }
        out
    }

    /// Builds a label set from `(name, value)` pairs; a later pair replaces
    /// an earlier one with the same name.
    ///
    /// Label names are only checked by a `debug_assert!` — this constructor
    /// is for names the program itself wrote.  Use
    /// [`Labels::try_from_pairs`] when the input is untrusted.
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let pairs = pairs.into_iter();
        let expected = pairs.size_hint().0;
        let mut labels = Self::with_capacity(expected.saturating_mul(TYPICAL_LABEL_BYTES));
        for (k, v) in pairs {
            let k = k.into();
            debug_assert!(LabelName::is_valid(&k), "invalid label name {k:?}");
            labels.insert_str(&k, &v.into());
        }
        labels
    }

    /// [`Labels::from_pairs`] for callers that hold string slices — the
    /// packed form copies the bytes, so nothing needs to be owned first.  The
    /// pairs are walked twice: once to size the set, so input already sorted
    /// by distinct names (a stored series' key, say) costs one allocation up
    /// to six labels and two past that, and once to fill it.  A later pair
    /// replaces an earlier one with the same name; names are only checked by
    /// a `debug_assert!`.
    pub fn from_str_pairs<'a, I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let (mut count, mut bytes, mut sorted, mut last) = (0usize, 0usize, true, None);
        for (k, v) in pairs.clone() {
            debug_assert!(LabelName::is_valid(k), "invalid label name {k:?}");
            sorted &= last.is_none_or(|last| last < k);
            last = Some(k);
            count += 1;
            bytes += k.len() + v.len();
        }
        // Only for sorted, distinct names is the count exact, which
        // `with_exact_capacity` needs; `insert_str` appends those in place.
        let mut labels = if sorted {
            Self::with_exact_capacity(count, bytes)
        } else {
            Self::with_capacity(bytes)
        };
        for (k, v) in pairs {
            labels.insert_str(k, v);
        }
        labels
    }

    /// Builds a label set from pairs, validating every label name.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::InvalidLabelName`] for the first invalid name.
    pub fn try_from_pairs<I, K, V>(pairs: I) -> Result<Self, MetricError>
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let mut labels = Self::new();
        for (k, v) in pairs {
            let k = k.into();
            if !LabelName::is_valid(&k) {
                return Err(MetricError::InvalidLabelName(k));
            }
            labels.insert_str(&k, &v.into());
        }
        Ok(labels)
    }

    /// Returns a new label set with `name=value` added (replacing any existing
    /// value for `name`).
    #[must_use]
    pub fn with(&self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.with_str(&name.into(), &value.into())
    }

    /// [`Labels::with`] for callers that hold string slices.
    pub(crate) fn with_str(&self, name: &str, value: &str) -> Self {
        let mut out = self.clone_with_room(1, name.len() + value.len());
        out.insert_str(name, value);
        out
    }

    /// Inserts a label in place, replacing any previous value.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.insert_str(&name.into(), &value.into());
    }

    /// [`Labels::insert`] for callers that hold string slices: the packed
    /// form copies the bytes, so nothing needs to be owned first.
    fn insert_str(&mut self, name: &str, value: &str) {
        match self.search(name) {
            // Names arriving in sorted order — what every encoder emits —
            // append without moving a byte.
            Err(at) if at == self.len() => self.push_last(name, value),
            Err(at) => self.splice(at, 0, Some((name, value))),
            Ok(at) => self.splice(at, 1, Some((name, value))),
        }
    }

    /// Appends a label whose name sorts after every name held: each piece is
    /// written once, nothing moves.
    pub(crate) fn push_last(&mut self, name: &str, value: &str) {
        debug_assert!(self.last_name().is_none_or(|last| last < name), "sorted and distinct");
        self.buf.push_str(name);
        self.ends.push(self.buf.len());
        self.buf.push_str(value);
        self.ends.push(self.buf.len());
    }

    /// Removes a label, returning its previous value if present.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        let at = self.search(name).ok()?;
        let value = self.iter().nth(at).map(|(_, v)| v.to_string());
        self.splice(at, 1, None);
        value
    }

    /// Looks up the value of a label.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Returns `true` when no labels are present.
    pub fn is_empty(&self) -> bool {
        self.ends.len() == 0
    }

    /// Number of labels in the set.
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// Iterates over `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        Pairs { buf: &self.buf, ends: self.ends.iter(), start: 0 }
    }

    /// Returns `true` when every label in `other` is present in `self` with an
    /// equal value.  Used by query label matchers.
    pub fn matches(&self, other: &Labels) -> bool {
        other.iter().all(|(k, v)| self.get(k) == Some(v))
    }

    /// Merges `other` into a copy of `self`; labels in `other` win on conflict.
    #[must_use]
    pub fn merged(&self, other: &Labels) -> Self {
        let mut out = self.clone_with_room(other.len(), other.buf.len());
        for (k, v) in other.iter() {
            out.insert_str(k, v);
        }
        out
    }

    /// A copy of `self` with room for `labels` more labels of `bytes` bytes,
    /// so the inserts that follow do not reallocate.
    fn clone_with_room(&self, labels: usize, bytes: usize) -> Self {
        let mut buf = String::with_capacity(self.buf.len() + bytes);
        buf.push_str(&self.buf);
        Self { buf, ends: self.ends.clone_with_room(2 * labels) }
    }

    /// The index of label `name` (`Ok`), or the index it would be inserted
    /// at to keep the set sorted (`Err`).
    fn search(&self, name: &str) -> Result<usize, usize> {
        // Names arriving in sorted order sort after the last one held.
        if self.last_name().is_some_and(|last| last < name) {
            return Err(self.len());
        }
        for (at, (k, _)) in self.iter().enumerate() {
            match k.cmp(name) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(at),
                Ordering::Greater => return Err(at),
            }
        }
        Err(self.len())
    }

    fn last_name(&self) -> Option<&str> {
        let piece = self.ends.len().checked_sub(2)?;
        self.buf.get(self.piece_start(piece)..self.piece_start(piece + 1))
    }

    /// The byte offset at which piece `piece` (a name or a value) starts;
    /// `ends.len()` gives the end of the buffer.
    fn piece_start(&self, piece: usize) -> usize {
        piece.checked_sub(1).and_then(|before| self.ends.get(before)).unwrap_or(0)
    }

    /// Replaces the `removed` (0 or 1) labels at index `at` with `add`.  The
    /// offset table is rebuilt from empty, which is what keeps it canonical:
    /// a set that shrinks back under the inline bounds moves back inline.
    fn splice(&mut self, at: usize, removed: usize, add: Option<(&str, &str)>) {
        let tail = 2 * (at + removed);
        let (start, old_end) = (self.piece_start(2 * at), self.piece_start(tail));
        let (name, value) = add.unwrap_or_default();
        self.buf.replace_range(start..old_end, value);
        self.buf.insert_str(start, name);
        let mid = start + name.len();
        let new_end = mid + value.len();
        let old = std::mem::take(&mut self.ends);
        let kept = old.iter().take(2 * at);
        let added = add.map(|_| [mid, new_end]).into_iter().flatten();
        let moved = old.iter().skip(tail).map(|end| end - old_end + new_end);
        for end in kept.chain(added).chain(moved) {
            self.ends.push(end);
        }
    }
}

impl fmt::Debug for Labels {
    /// `Labels({"name": "value", …})`, as a derived map newtype prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'a>(&'a Labels);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_tuple("Labels").field(&Map(self)).finish()
    }
}

/// Lexicographic over the sorted `(name, value)` pairs — the order a
/// `BTreeMap<String, String>` has, which rendered output and
/// `BTreeMap<Labels, _>` users rely on.
impl Ord for Labels {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Labels {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Serialises as a JSON object of string values.
impl Serialize for Labels {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter().map(|(k, v)| (k.to_string(), Value::String(v.to_string()))).collect(),
        )
    }
}

impl Deserialize for Labels {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let Value::Object(entries) = value else {
            return Err(serde::Error::custom(format!("expected object, got {value:?}")));
        };
        let mut labels = Labels::new();
        for (name, value) in entries {
            labels.insert_str(name, &String::from_value(value)?);
        }
        Ok(labels)
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for Labels {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_validation() {
        assert!(MetricName::new("teemon_syscalls_total").is_ok());
        assert!(MetricName::new("node:cpu:rate5m").is_ok());
        assert!(MetricName::new("_private").is_ok());
        assert!(MetricName::new("9starts_with_digit").is_err());
        assert!(MetricName::new("has space").is_err());
        assert!(MetricName::new("").is_err());
        assert!(MetricName::new("dash-es").is_err());
    }

    #[test]
    fn label_name_validation() {
        assert!(LabelName::new("syscall").is_ok());
        assert!(LabelName::new("_internal").is_ok());
        assert!(LabelName::new("__reserved").is_err());
        assert!(LabelName::new("1digit").is_err());
        assert!(LabelName::new("colon:bad").is_err());
        assert!(LabelName::new("").is_err());
    }

    #[test]
    fn labels_are_order_insensitive() {
        let a = Labels::from_pairs([("b", "2"), ("a", "1")]);
        let b = Labels::from_pairs([("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        let collected: Vec<_> = a.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(collected, vec!["a", "b"]);
    }

    #[test]
    fn labels_with_and_get() {
        let base = Labels::from_pairs([("job", "sgx_exporter")]);
        let derived = base.with("instance", "node-1");
        assert_eq!(derived.get("job"), Some("sgx_exporter"));
        assert_eq!(derived.get("instance"), Some("node-1"));
        assert_eq!(base.get("instance"), None);
        assert_eq!(derived.len(), 2);
    }

    #[test]
    fn labels_matches_is_subset_semantics() {
        let series = Labels::from_pairs([("job", "redis"), ("node", "n1"), ("syscall", "read")]);
        let selector = Labels::from_pairs([("job", "redis")]);
        assert!(series.matches(&selector));
        assert!(series.matches(&Labels::new()));
        let wrong = Labels::from_pairs([("job", "nginx")]);
        assert!(!series.matches(&wrong));
        let missing = Labels::from_pairs([("pod", "p1")]);
        assert!(!series.matches(&missing));
    }

    #[test]
    fn labels_merge_prefers_other() {
        let a = Labels::from_pairs([("job", "redis"), ("node", "n1")]);
        let b = Labels::from_pairs([("node", "n2"), ("extra", "x")]);
        let merged = a.merged(&b);
        assert_eq!(merged.get("node"), Some("n2"));
        assert_eq!(merged.get("job"), Some("redis"));
        assert_eq!(merged.get("extra"), Some("x"));
    }

    #[test]
    fn try_from_pairs_rejects_reserved() {
        let err = Labels::try_from_pairs([("__name__", "x")]).unwrap_err();
        assert!(matches!(err, MetricError::InvalidLabelName(_)));
    }

    #[test]
    fn display_is_stable() {
        let l = Labels::from_pairs([("b", "2"), ("a", "1")]);
        assert_eq!(l.to_string(), "{a=\"1\",b=\"2\"}");
        assert_eq!(Labels::new().to_string(), "{}");
    }
}
