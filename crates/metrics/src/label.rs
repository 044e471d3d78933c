//! Metric and label names plus normalised label sets.
//!
//! Names follow the Prometheus/OpenMetrics data model: metric names match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match `[a-zA-Z_][a-zA-Z0-9_]*` and
//! must not start with `__` (reserved for internal use by the aggregator).

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
/// and `ends` holds the end offset of each piece, two per label.  The form is
/// canonical — equal sets have equal fields — so `==` and `Hash` are slice
/// operations, `clone` is two copies, building a set costs two allocations
/// however many labels it has, and `get` is a short scan.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Labels {
    buf: String,
    ends: Vec<usize>,
}

/// Bytes reserved per label when only the label count is known up front.
const TYPICAL_LABEL_BYTES: usize = 24;

impl Labels {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `labels` labels of `bytes` bytes in total.
    pub(crate) fn with_capacity(labels: usize, bytes: usize) -> Self {
        Self {
            buf: String::with_capacity(bytes),
            ends: Vec::with_capacity(labels.saturating_mul(2)),
        }
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
        let mut labels =
            Self::with_capacity(expected, expected.saturating_mul(TYPICAL_LABEL_BYTES));
        for (k, v) in pairs {
            let k = k.into();
            debug_assert!(LabelName::is_valid(&k), "invalid label name {k:?}");
            labels.insert_str(&k, &v.into());
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
    /// form copies the bytes, so nothing needs to be owned first.  Returns
    /// `true` when `name` was already present (and its value replaced).
    pub(crate) fn insert_str(&mut self, name: &str, value: &str) -> bool {
        match self.search(name) {
            // Names arriving in sorted order — what every encoder emits —
            // append without moving a byte.
            Err(at) if at == self.len() => {
                self.buf.push_str(name);
                self.ends.push(self.buf.len());
                self.buf.push_str(value);
                self.ends.push(self.buf.len());
            }
            Err(at) => self.splice(at, 0, Some((name, value))),
            Ok(at) => {
                self.splice(at, 1, Some((name, value)));
                return true;
            }
        }
        false
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
        self.ends.is_empty()
    }

    /// Number of labels in the set.
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// Iterates over `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut start = 0;
        self.ends.chunks_exact(2).filter_map(move |ends| {
            let &[mid, end] = ends else { return None };
            let pair = (self.buf.get(start..mid)?, self.buf.get(mid..end)?);
            start = end;
            Some(pair)
        })
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
        let mut out = Self::with_capacity(self.len() + labels, self.buf.len() + bytes);
        out.buf.push_str(&self.buf);
        out.ends.extend_from_slice(&self.ends);
        out
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
        piece.checked_sub(1).and_then(|before| self.ends.get(before)).copied().unwrap_or(0)
    }

    /// Replaces the `removed` (0 or 1) labels at index `at` with `add`.
    fn splice(&mut self, at: usize, removed: usize, add: Option<(&str, &str)>) {
        let tail = 2 * (at + removed);
        let (start, old_end) = (self.piece_start(2 * at), self.piece_start(tail));
        let (name, value) = add.unwrap_or_default();
        self.buf.replace_range(start..old_end, value);
        self.buf.insert_str(start, name);
        let mid = start + name.len();
        let new_end = mid + value.len();
        for end in self.ends.iter_mut().skip(tail) {
            *end = *end - old_end + new_end;
        }
        self.ends.splice(2 * at..tail, add.map(|_| [mid, new_end]).into_iter().flatten());
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
        let mut labels = Labels::with_capacity(entries.len(), 0);
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
